//! Per-code bitmap index: exact `COUNT(*)` by AND-ing bitmaps and
//! popcounting.
//!
//! For every column and every code in its domain the index holds one bitmap
//! of `⌈n/64⌉` words whose bit `r` is set when row `r` holds that code. All
//! bitmaps live in one contiguous `Vec<u64>` (column-major, code-minor), so
//! the index is a single allocation of `Σ domain · ⌈n/64⌉ · 8` bytes (see
//! [`BitmapIndex::footprint`]); a large one is returned to the allocator in
//! one piece when the index is dropped.
//!
//! A point predicate reads its code's bitmap, a range ORs the bitmaps of its
//! codes, and the conjunction ANDs the per-predicate sets and popcounts the
//! result. Counting walks the rows in blocks of [`BLOCK`] words, so the two
//! working sets live on the stack and a count allocates nothing.
//!
//! [`Table::count`] stays the reference scan; the workload generator labels
//! its attempts through this index, and the ablation benchmark times the two
//! against each other.

use crate::predicate::ConjunctiveQuery;
use crate::schema::Schema;
use crate::table::Table;

/// Words per counting block: 2 048 rows, 256 bytes per working set.
const BLOCK: usize = 32;

/// One bitmap per (column, code) over the rows of a [`Table`].
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    schema: Schema,
    n_rows: usize,
    /// Words per bitmap, `⌈n_rows/64⌉`.
    words: usize,
    /// Bitmap number of code 0 of each column.
    first_bitmap: Vec<usize>,
    /// Bitmap `b` occupies `bits[b * words..(b + 1) * words]`.
    bits: Vec<u64>,
}

impl BitmapIndex {
    /// Indexes every column of `table`.
    pub fn build(table: &Table) -> Self {
        let schema = table.schema().clone();
        let n_rows = table.n_rows();
        let words = n_rows.div_ceil(64);
        let mut first_bitmap = Vec::with_capacity(schema.arity());
        let mut n_bitmaps = 0usize;
        for c in 0..schema.arity() {
            first_bitmap.push(n_bitmaps);
            n_bitmaps += schema.domain(c) as usize;
        }
        let mut bits = vec![0u64; n_bitmaps * words];
        for (c, &first) in first_bitmap.iter().enumerate() {
            for (r, &v) in table.column(c).iter().enumerate() {
                bits[(first + v as usize) * words + r / 64] |= 1 << (r % 64);
            }
        }
        BitmapIndex { schema, n_rows, words, first_bitmap, bits }
    }

    /// Bytes the bitmaps of `table` take: `Σ domain · ⌈n/64⌉ · 8`,
    /// saturating. Known before building, so a caller can refuse an index
    /// that would not fit.
    pub fn footprint(table: &Table) -> u64 {
        let schema = table.schema();
        let codes: u64 = (0..schema.arity()).map(|c| u64::from(schema.domain(c))).sum();
        codes.saturating_mul(table.n_rows().div_ceil(64) as u64).saturating_mul(8)
    }

    /// Exact `COUNT(*)`; equals [`Table::count`] on the indexed table.
    ///
    /// # Panics
    /// Panics if the query fails validation against the schema.
    pub fn count(&self, query: &ConjunctiveQuery) -> u64 {
        if let Err(e) = query.validate(&self.schema) {
            panic!("invalid query: {e}");
        }
        if query.is_empty() {
            return self.n_rows as u64;
        }
        let mut total = 0u64;
        let mut acc = [0u64; BLOCK];
        let mut term = [0u64; BLOCK];
        for start in (0..self.words).step_by(BLOCK) {
            let len = BLOCK.min(self.words - start);
            let (acc, term) = (&mut acc[..len], &mut term[..len]);
            acc.fill(!0);
            for p in &query.predicates {
                term.fill(0);
                let (lo, hi) = p.op.bounds();
                for code in lo..=hi {
                    let b = (self.first_bitmap[p.column] + code as usize) * self.words + start;
                    for (t, w) in term.iter_mut().zip(&self.bits[b..b + len]) {
                        *t |= w;
                    }
                }
                for (a, t) in acc.iter_mut().zip(term.iter()) {
                    *a &= t;
                }
            }
            // Bits past the last row are clear in every bitmap, so the
            // first AND already cleared them in `acc`.
            total += acc.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ConjunctiveQuery, Op, Predicate};
    use crate::schema::{ColumnKind, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DOMAINS: [u32; 3] = [8, 32, 4];

    fn random_table(seed: u64, n: usize) -> Table {
        let schema = Schema::from_specs(&[
            ("a", DOMAINS[0], ColumnKind::Categorical),
            ("b", DOMAINS[1], ColumnKind::Numeric),
            ("c", DOMAINS[2], ColumnKind::Categorical),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let columns =
            DOMAINS.iter().map(|&d| (0..n).map(|_| rng.gen_range(0..d)).collect()).collect();
        Table::new(schema, columns)
    }

    fn random_query(rng: &mut StdRng) -> ConjunctiveQuery {
        let mut preds = Vec::new();
        if rng.gen_bool(0.7) {
            preds.push(Predicate::eq(0, rng.gen_range(0..DOMAINS[0])));
        }
        if rng.gen_bool(0.7) {
            let lo = rng.gen_range(0..DOMAINS[1]);
            let hi = rng.gen_range(lo..DOMAINS[1]);
            preds.push(Predicate::range(1, lo, hi));
        }
        if rng.gen_bool(0.5) {
            preds.push(Predicate::eq(2, rng.gen_range(0..DOMAINS[2])));
        }
        ConjunctiveQuery::new(preds)
    }

    fn q(preds: Vec<Predicate>) -> ConjunctiveQuery {
        ConjunctiveQuery::new(preds)
    }

    /// Row counts around the word boundary: none, one, a word short, a
    /// full word, a word and a bit; plus a multi-block table.
    const EDGE_ROWS: [usize; 6] = [0, 1, 63, 64, 65, 64 * BLOCK + 65];

    #[test]
    fn every_code_and_full_range_match_the_scan_at_word_edges() {
        for n in EDGE_ROWS {
            let table = random_table(n as u64, n);
            let index = BitmapIndex::build(&table);
            for (c, &d) in DOMAINS.iter().enumerate() {
                for v in 0..d {
                    let point = q(vec![Predicate::eq(c, v)]);
                    assert_eq!(index.count(&point), table.count(&point), "n={n} col {c} = {v}");
                }
                let full = q(vec![Predicate::range(c, 0, d - 1)]);
                assert_eq!(index.count(&full), n as u64, "n={n} full range on col {c}");
                let top = q(vec![Predicate::range(c, d - 1, d - 1)]);
                assert_eq!(index.count(&top), table.count(&top), "n={n} col {c} top code");
            }
            let all = q(vec![
                Predicate::range(0, 0, DOMAINS[0] - 1),
                Predicate::range(1, 0, DOMAINS[1] - 1),
                Predicate::range(2, 0, DOMAINS[2] - 1),
            ]);
            assert_eq!(index.count(&all), n as u64, "n={n} full-domain conjunction");
        }
    }

    #[test]
    fn single_column_ranges_count_known_rows() {
        let schema = Schema::from_specs(&[("a", 4, ColumnKind::Numeric)]);
        let table = Table::new(schema, vec![vec![3, 1, 3, 0, 2, 3, 1]]);
        let index = BitmapIndex::build(&table);
        assert_eq!(index.count(&q(vec![Predicate::range(0, 3, 3)])), 3);
        assert_eq!(index.count(&q(vec![Predicate::range(0, 0, 3)])), 7);
        assert_eq!(index.count(&q(vec![Predicate::range(0, 1, 2)])), 3);
    }

    #[test]
    fn empty_results_count_zero() {
        // Column `a` holds only code 0 and column `b` only code 5.
        let schema = Schema::from_specs(&[
            ("a", 3, ColumnKind::Categorical),
            ("b", 10, ColumnKind::Numeric),
        ]);
        for n in EDGE_ROWS {
            let table = Table::new(schema.clone(), vec![vec![0; n], vec![5; n]]);
            let index = BitmapIndex::build(&table);
            for query in [
                q(vec![Predicate::eq(0, 2)]),
                q(vec![Predicate::range(1, 6, 9)]),
                q(vec![Predicate::eq(0, 0), Predicate::range(1, 0, 4)]),
            ] {
                assert_eq!(table.count(&query), 0);
                assert_eq!(index.count(&query), 0, "n={n} {query:?}");
            }
            let hit = q(vec![Predicate::eq(0, 0), Predicate::range(1, 5, 9)]);
            assert_eq!(index.count(&hit), n as u64, "n={n}");
        }
    }

    #[test]
    fn inverted_range_built_by_hand_matches_the_scan() {
        // `Predicate::range` refuses lo > hi, but `Op` is public.
        let table = random_table(5, 200);
        let index = BitmapIndex::build(&table);
        let inverted =
            q(vec![Predicate { column: 1, op: Op::Range { lo: 9, hi: 3 } }]);
        assert_eq!(table.count(&inverted), 0);
        assert_eq!(index.count(&inverted), 0);
    }

    #[test]
    fn indexed_count_matches_naive_scan_on_random_queries() {
        for n in EDGE_ROWS.into_iter().chain([500, 5_000]) {
            let table = random_table(17 + n as u64, n);
            let index = BitmapIndex::build(&table);
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..100 {
                let query = random_query(&mut rng);
                assert_eq!(index.count(&query), table.count(&query), "n={n} {query:?}");
            }
        }
    }

    #[test]
    fn indexed_empty_query_counts_all() {
        for n in EDGE_ROWS {
            let index = BitmapIndex::build(&random_table(3, n));
            assert_eq!(index.count(&ConjunctiveQuery::default()), n as u64);
        }
    }

    #[test]
    fn footprint_is_the_bitmap_allocation() {
        for n in EDGE_ROWS {
            let table = random_table(1, n);
            let index = BitmapIndex::build(&table);
            let codes: u64 = DOMAINS.iter().map(|&d| u64::from(d)).sum();
            assert_eq!(BitmapIndex::footprint(&table), codes * n.div_ceil(64) as u64 * 8);
            assert_eq!(BitmapIndex::footprint(&table), index.bits.len() as u64 * 8);
        }
    }

    #[test]
    #[should_panic(expected = "invalid query")]
    fn indexed_count_rejects_invalid_query() {
        let index = BitmapIndex::build(&random_table(1, 10));
        index.count(&q(vec![Predicate::eq(7, 0)]));
    }

    #[test]
    #[should_panic(expected = "invalid query")]
    fn rejects_a_code_outside_the_domain() {
        let index = BitmapIndex::build(&random_table(1, 10));
        index.count(&q(vec![Predicate::range(0, 2, DOMAINS[0])]));
    }
}
