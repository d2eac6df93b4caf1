//! The unified single-table workload generator.
//!
//! Follows the principled design of Wang et al. [51] that the paper adopts:
//! sample a *center tuple* from the data, pick a subset of columns, and
//! attach point predicates (categorical columns) or ranges around the center
//! value (numeric columns). Centering on real tuples yields non-empty,
//! realistically-correlated queries; the drift mode replaces data-driven
//! centers with uniform ones to manufacture the non-exchangeable workload of
//! Fig. 11.
//!
//! Each attempt is labelled with its exact `COUNT(*)` before the selectivity
//! filter sees it, and under a narrow band most attempts are rejected, so
//! labelling is the generator's main cost. [`generate_workload`] therefore
//! builds a [`BitmapIndex`] over the table once per call (about 1 MB and
//! 1 ms for a 20 000-row `dmv`), labels every attempt through it, and drops
//! it on return. The index counts exactly what the `Table::count` scan
//! counts, so the workload is the same either way; a schema whose domains
//! would make the index larger than `MAX_LABEL_INDEX_BYTES` is labelled by
//! the scan instead.

use ce_storage::{BitmapIndex, ColumnKind, ConjunctiveQuery, Predicate, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::workload::{Labeled, Workload};

/// How predicate centers are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CenterPolicy {
    /// Sample an existing tuple (the exchangeable, data-driven default).
    DataTuple,
    /// Sample uniformly from each column's domain — ignores the data
    /// distribution, producing the workload-drift regime of Fig. 11.
    UniformDomain,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Minimum number of predicated columns per query.
    pub min_predicates: usize,
    /// Maximum number of predicated columns per query.
    pub max_predicates: usize,
    /// Maximum half-width of range predicates, as a fraction of the column
    /// domain. The actual half-width is uniform in `(0, max]`.
    pub max_range_frac: f64,
    /// Probability that a *numeric* column still receives a point predicate.
    pub point_on_numeric_prob: f64,
    /// Keep only queries with selectivity at most this (1.0 keeps all).
    pub max_selectivity: f64,
    /// Keep only queries with selectivity at least this (0.0 keeps all;
    /// the paper's Fig. 5 slice uses a positive lower bound).
    pub min_selectivity: f64,
    /// Center policy.
    pub center: CenterPolicy,
    /// Multiplier on the requested count bounding generation attempts before
    /// giving up on the selectivity filter.
    pub max_attempts_factor: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            min_predicates: 1,
            max_predicates: 4,
            max_range_frac: 0.2,
            point_on_numeric_prob: 0.1,
            max_selectivity: 1.0,
            min_selectivity: 0.0,
            center: CenterPolicy::DataTuple,
            max_attempts_factor: 50,
        }
    }
}

impl GeneratorConfig {
    /// The paper's default plotting regime: low-selectivity queries (< 0.1).
    pub fn low_selectivity() -> Self {
        GeneratorConfig { max_selectivity: 0.1, ..Default::default() }
    }
}

/// Largest bitmap index [`generate_workload`] builds to label its attempts
/// (256 MiB: a `dmv` table of about five million rows).
const MAX_LABEL_INDEX_BYTES: u64 = 256 << 20;

/// The index attempts are labelled through, or `None` when it would exceed
/// [`MAX_LABEL_INDEX_BYTES`].
fn label_index(table: &Table) -> Option<BitmapIndex> {
    (BitmapIndex::footprint(table) <= MAX_LABEL_INDEX_BYTES).then(|| BitmapIndex::build(table))
}

/// Generates `count` labeled queries over `table`.
///
/// Duplicates are removed; generation stops early if the selectivity filter
/// exhausts `count * max_attempts_factor` attempts (the returned workload may
/// then be shorter than requested).
///
/// # Panics
/// Panics on an empty table with `CenterPolicy::DataTuple`, or a predicate
/// range larger than the arity.
pub fn generate_workload(
    table: &Table,
    count: usize,
    config: &GeneratorConfig,
    seed: u64,
) -> Workload {
    assert!(config.min_predicates >= 1, "queries need at least one predicate");
    assert!(
        config.max_predicates >= config.min_predicates
            && config.max_predicates <= table.schema().arity(),
        "predicate count range invalid for arity {}",
        table.schema().arity()
    );
    if config.center == CenterPolicy::DataTuple {
        assert!(table.n_rows() > 0, "cannot center on tuples of an empty table");
    }

    let _span = ce_telemetry::Span::enter("query_generate_workload");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Workload = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    let mut columns: Vec<usize> = (0..table.schema().arity()).collect();
    let max_attempts = count.saturating_mul(config.max_attempts_factor);
    let mut attempts = 0usize;
    let index = label_index(table);
    while out.len() < count && attempts < max_attempts {
        attempts += 1;
        let query = sample_query(table, config, &mut columns, &mut rng);
        let key: Vec<(usize, u32, u32)> = query
            .predicates
            .iter()
            .map(|p| {
                let (lo, hi) = p.op.bounds();
                (p.column, lo, hi)
            })
            .collect();
        if seen.contains(&key) {
            continue;
        }
        let cardinality = match &index {
            Some(index) => index.count(&query),
            None => table.count(&query),
        };
        let selectivity = cardinality as f64 / table.n_rows().max(1) as f64;
        if selectivity > config.max_selectivity || selectivity < config.min_selectivity
        {
            continue;
        }
        seen.insert(key);
        out.push(Labeled { query, cardinality, selectivity });
    }
    if ce_telemetry::enabled() {
        ce_telemetry::counter("query.workload_queries").add(out.len() as u64);
        // Rejection pressure: attempts spent per kept query (selectivity
        // band misses and duplicates) — high values mean the band is too
        // narrow for the table.
        ce_telemetry::histogram("query.generate_attempts").record(attempts as u64);
    }
    out
}

fn sample_query(
    table: &Table,
    config: &GeneratorConfig,
    columns: &mut [usize],
    rng: &mut StdRng,
) -> ConjunctiveQuery {
    let k = rng.gen_range(config.min_predicates..=config.max_predicates);
    columns.shuffle(rng);
    let chosen = &columns[..k];

    let center_row = match config.center {
        CenterPolicy::DataTuple => Some(rng.gen_range(0..table.n_rows())),
        CenterPolicy::UniformDomain => None,
    };

    let mut predicates = Vec::with_capacity(k);
    for &c in chosen {
        let meta = table.schema().column(c);
        let center = match center_row {
            Some(r) => table.value(r, c),
            None => rng.gen_range(0..meta.domain),
        };
        let is_point = meta.kind == ColumnKind::Categorical
            || rng.gen_bool(config.point_on_numeric_prob);
        let op = if is_point {
            Predicate::eq(c, center)
        } else {
            let max_half =
                ((meta.domain as f64 * config.max_range_frac) / 2.0).max(1.0);
            let half = rng.gen_range(0.0..max_half).ceil() as u32;
            let lo = center.saturating_sub(half);
            let hi = (center + half).min(meta.domain - 1);
            Predicate::range(c, lo, hi)
        };
        predicates.push(op);
    }
    // Deterministic order by column for stable dedup keys.
    predicates.sort_by_key(|p| p.column);
    ConjunctiveQuery::new(predicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::dmv;

    #[test]
    fn generates_requested_count_of_valid_queries() {
        let table = dmv(3000, 0);
        let w = generate_workload(&table, 200, &GeneratorConfig::default(), 1);
        assert_eq!(w.len(), 200);
        for lq in &w {
            assert!(lq.query.validate(table.schema()).is_ok());
            assert_eq!(lq.cardinality, table.count(&lq.query));
            assert!(lq.selectivity <= 1.0);
        }
    }

    #[test]
    fn data_tuple_centers_yield_nonempty_point_queries_mostly() {
        let table = dmv(3000, 0);
        let config = GeneratorConfig { min_predicates: 1, max_predicates: 2, ..Default::default() };
        let w = generate_workload(&table, 100, &config, 2);
        let nonempty = w.iter().filter(|lq| lq.cardinality > 0).count();
        // Center tuples guarantee at least the center row matches point
        // predicates; ranges include the center too.
        assert_eq!(nonempty, w.len());
    }

    #[test]
    fn selectivity_filter_is_respected() {
        let table = dmv(3000, 0);
        let config = GeneratorConfig::low_selectivity();
        let w = generate_workload(&table, 150, &config, 3);
        assert!(!w.is_empty());
        assert!(w.iter().all(|lq| lq.selectivity <= 0.1));
    }

    #[test]
    fn min_selectivity_filter_selects_heavy_queries() {
        let table = dmv(3000, 0);
        let config = GeneratorConfig {
            min_selectivity: 0.1,
            min_predicates: 1,
            max_predicates: 1,
            max_range_frac: 0.8,
            ..Default::default()
        };
        let w = generate_workload(&table, 50, &config, 4);
        assert!(!w.is_empty());
        assert!(w.iter().all(|lq| lq.selectivity >= 0.1));
    }

    #[test]
    fn deterministic_given_seed() {
        let table = dmv(1000, 5);
        let a = generate_workload(&table, 50, &GeneratorConfig::default(), 9);
        let b = generate_workload(&table, 50, &GeneratorConfig::default(), 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.cardinality, y.cardinality);
        }
    }

    #[test]
    fn uniform_centers_differ_from_data_centers() {
        // Drifted workload has many empty-result queries on skewed data —
        // the signature of workload/data mismatch.
        let table = dmv(3000, 0);
        let drift_config = GeneratorConfig {
            center: CenterPolicy::UniformDomain,
            min_predicates: 2,
            max_predicates: 3,
            ..Default::default()
        };
        let drifted = generate_workload(&table, 100, &drift_config, 11);
        let empty = drifted.iter().filter(|lq| lq.cardinality == 0).count();
        assert!(
            empty as f64 / drifted.len() as f64 > 0.3,
            "uniform centers should often miss skewed data: {empty}/{}",
            drifted.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one predicate")]
    fn rejects_zero_min_predicates() {
        let table = dmv(100, 0);
        let config = GeneratorConfig { min_predicates: 0, ..Default::default() };
        generate_workload(&table, 1, &config, 0);
    }

    #[test]
    fn oversized_index_falls_back_to_the_scan() {
        use ce_storage::Schema;
        // 2^31 codes per column: a 16 GiB index for a 10-row table.
        let schema = Schema::from_specs(&[
            ("a", 1 << 31, ColumnKind::Categorical),
            ("b", 1 << 31, ColumnKind::Numeric),
        ]);
        let columns = vec![(0..10).map(|r| r % 3).collect(), (0..10).map(|r| r * 1_000).collect()];
        let table = Table::new(schema, columns);
        assert!(BitmapIndex::footprint(&table) > MAX_LABEL_INDEX_BYTES);
        assert!(label_index(&table).is_none());
        let config = GeneratorConfig { max_predicates: 2, ..Default::default() };
        let w = generate_workload(&table, 20, &config, 3);
        assert!(!w.is_empty());
        for lq in &w {
            assert_eq!(lq.cardinality, table.count(&lq.query));
        }
        assert!(label_index(&dmv(20_000, 0)).is_some(), "dmv at servebench's size is indexed");
    }

    #[test]
    fn telemetry_observes_generation_without_changing_it() {
        let table = dmv(2000, 5);
        let off = generate_workload(&table, 80, &GeneratorConfig::default(), 7);

        ce_telemetry::set_enabled(true);
        let queries_before = ce_telemetry::counter("query.workload_queries").get();
        let spans_before = ce_telemetry::histogram("span.query_generate_workload").count();
        let on = generate_workload(&table, 80, &GeneratorConfig::default(), 7);
        ce_telemetry::set_enabled(false);

        // Out-of-band contract: same seed, same workload either way.
        assert_eq!(off.len(), on.len());
        for (a, b) in off.iter().zip(&on) {
            assert_eq!(a.cardinality, b.cardinality);
            assert_eq!(a.query.predicates.len(), b.query.predicates.len());
        }
        assert!(
            ce_telemetry::counter("query.workload_queries").get()
                >= queries_before + on.len() as u64
        );
        assert!(ce_telemetry::histogram("span.query_generate_workload").count() > spans_before);
    }
}
