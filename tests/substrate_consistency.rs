//! Cross-crate consistency: the evaluators, generators, and estimators must
//! agree with each other on shared quantities.

use cardest::datagen::{census, dmv, dsb_star, forest, power};
use cardest::estimators::{AviModel, SingleTableFeaturizer, TableStatistics};
use cardest::query::{generate_workload, GeneratorConfig};
use cardest::storage::{BitmapIndex, ConjunctiveQuery, Predicate, StarQuery};

#[test]
fn naive_and_indexed_counts_agree_on_every_dataset() {
    for (name, table) in [
        ("dmv", dmv(3_000, 1)),
        ("census", census(3_000, 2)),
        ("forest", forest(3_000, 3)),
        ("power", power(3_000, 4)),
    ] {
        let workload = generate_workload(&table, 120, &GeneratorConfig::default(), 5);
        let indexed = BitmapIndex::build(&table);
        for lq in &workload {
            assert_eq!(
                table.count(&lq.query),
                indexed.count(&lq.query),
                "{name}: {:?}",
                lq.query
            );
        }
    }
}

#[test]
fn workload_labels_match_match_mask_counts() {
    let table = dmv(2_000, 6);
    let workload = generate_workload(&table, 80, &GeneratorConfig::default(), 7);
    for lq in &workload {
        let mask_count =
            lq.query.predicates.iter().fold(vec![true; table.n_rows()], |mut m, p| {
                let col = table.column(p.column);
                for (mi, &v) in m.iter_mut().zip(col) {
                    *mi = *mi && p.op.matches(v);
                }
                m
            });
        assert_eq!(
            mask_count.iter().filter(|&&b| b).count() as u64,
            lq.cardinality
        );
    }
}

#[test]
fn avi_estimator_is_exact_under_real_independence() {
    // A table whose columns are genuinely independent: AVI should be nearly
    // exact on conjunctions (up to sampling noise), validating both the
    // histogram math and the generator's independence when no parents are
    // declared.
    use cardest::datagen::{ColumnSpec, Dist, TableSpec};
    use cardest::storage::ColumnKind;
    let table = TableSpec {
        name: "indep".into(),
        n_rows: 40_000,
        columns: vec![
            ColumnSpec::new("a", 4, ColumnKind::Categorical, Dist::Uniform),
            ColumnSpec::new("b", 4, ColumnKind::Categorical, Dist::Uniform),
        ],
    }
    .generate(11);
    let stats = TableStatistics::build(&table);
    let q = ConjunctiveQuery::new(vec![Predicate::eq(0, 1), Predicate::eq(1, 2)]);
    let avi = stats.avi_selectivity(&q);
    let truth = table.selectivity(&q);
    assert!(
        (avi - truth).abs() < 0.01,
        "independent columns: AVI {avi} vs truth {truth}"
    );
}

#[test]
fn avi_model_prediction_equals_direct_estimate_on_workload() {
    let table = power(2_000, 8);
    let model = AviModel::build(&table, 1e-9);
    let stats = TableStatistics::build(&table);
    let feat = SingleTableFeaturizer::new(table.schema().clone());
    let workload = generate_workload(&table, 60, &GeneratorConfig::default(), 9);
    for lq in &workload {
        let via_features =
            cardest::conformal::Regressor::predict(&model, &feat.encode(&lq.query));
        let direct = stats.avi_selectivity(&lq.query).max(1e-9);
        assert!(
            (via_features - direct).abs() < 1e-12,
            "encoding round-trip changed the estimate"
        );
    }
}

#[test]
fn star_count_is_monotone_in_joined_dimensions() {
    // Adding a (filtered) dimension can only reduce the join cardinality.
    let star = dsb_star(3_000, 10);
    let q = StarQuery {
        fact: ConjunctiveQuery::default(),
        dims: vec![
            Some(ConjunctiveQuery::new(vec![Predicate::eq(0, 1)])),
            Some(ConjunctiveQuery::new(vec![Predicate::eq(0, 0)])),
            None,
            None,
        ],
    };
    let both = star.count_with_dims(&q, &[0, 1]);
    let only0 = star.count_with_dims(&q, &[0]);
    let only1 = star.count_with_dims(&q, &[1]);
    let none = star.count_with_dims(&q, &[]);
    assert!(both <= only0 && both <= only1);
    assert!(only0 <= none && only1 <= none);
    assert_eq!(none as usize, star.fact().n_rows());
}

#[test]
fn generator_respects_predicate_count_bounds() {
    let table = census(1_500, 12);
    let config = GeneratorConfig {
        min_predicates: 2,
        max_predicates: 3,
        ..Default::default()
    };
    let workload = generate_workload(&table, 100, &config, 13);
    for lq in &workload {
        assert!((2..=3).contains(&lq.query.len()), "{:?}", lq.query);
    }
}
