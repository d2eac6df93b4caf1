//! Property-based tests of the storage engine's counting invariants.

use ce_storage::{BitmapIndex, ColumnKind, ConjunctiveQuery, Predicate, Schema, Table};
use proptest::prelude::*;

const DOMAINS: [u32; 3] = [6, 20, 3];

fn table_strategy() -> impl Strategy<Value = Table> {
    prop::collection::vec((0..DOMAINS[0], 0..DOMAINS[1], 0..DOMAINS[2]), 1..200).prop_map(
        |rows| {
            let schema = Schema::from_specs(&[
                ("a", DOMAINS[0], ColumnKind::Categorical),
                ("b", DOMAINS[1], ColumnKind::Numeric),
                ("c", DOMAINS[2], ColumnKind::Categorical),
            ]);
            let tuples: Vec<Vec<u32>> =
                rows.into_iter().map(|(a, b, c)| vec![a, b, c]).collect();
            Table::from_rows(schema, &tuples)
        },
    )
}

fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    (
        prop::option::of(0..DOMAINS[0]),
        prop::option::of((0..DOMAINS[1], 0..DOMAINS[1])),
        prop::option::of(0..DOMAINS[2]),
    )
        .prop_map(|(a, b, c)| {
            let mut preds = Vec::new();
            if let Some(v) = a {
                preds.push(Predicate::eq(0, v));
            }
            if let Some((x, y)) = b {
                preds.push(Predicate::range(1, x.min(y), x.max(y)));
            }
            if let Some(v) = c {
                preds.push(Predicate::eq(2, v));
            }
            ConjunctiveQuery::new(preds)
        })
}

proptest! {
    /// The bitmap-index evaluator agrees with the naive scan on everything.
    #[test]
    fn indexed_count_equals_naive(table in table_strategy(), q in query_strategy()) {
        let indexed = BitmapIndex::build(&table);
        prop_assert_eq!(indexed.count(&q), table.count(&q));
    }

    /// Counts never exceed the table size; selectivity stays in [0, 1].
    #[test]
    fn counts_are_bounded(table in table_strategy(), q in query_strategy()) {
        let c = table.count(&q);
        prop_assert!(c <= table.n_rows() as u64);
        let s = table.selectivity(&q);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    /// Adding a conjunct can only shrink the result.
    #[test]
    fn conjunction_is_antitone(table in table_strategy(), q in query_strategy(), extra in 0..DOMAINS[0]) {
        prop_assume!(!q.predicates.iter().any(|p| p.column == 0));
        let base = table.count(&q);
        let mut preds = q.predicates.clone();
        preds.push(Predicate::eq(0, extra));
        let narrowed = table.count(&ConjunctiveQuery::new(preds));
        prop_assert!(narrowed <= base);
    }

    /// A full-domain range predicate is a no-op.
    #[test]
    fn full_range_predicate_is_noop(table in table_strategy(), q in query_strategy()) {
        prop_assume!(!q.predicates.iter().any(|p| p.column == 1));
        let base = table.count(&q);
        let mut preds = q.predicates.clone();
        preds.push(Predicate::range(1, 0, DOMAINS[1] - 1));
        prop_assert_eq!(table.count(&ConjunctiveQuery::new(preds)), base);
    }

    /// match_mask, matching_rows, and count are mutually consistent.
    #[test]
    fn evaluators_are_mutually_consistent(table in table_strategy(), q in query_strategy()) {
        let count = table.count(&q);
        let mask = table.match_mask(&q);
        let rows = table.matching_rows(&q);
        prop_assert_eq!(mask.iter().filter(|&&m| m).count() as u64, count);
        prop_assert_eq!(rows.len() as u64, count);
        for &r in &rows {
            prop_assert!(mask[r as usize]);
        }
    }
}
