//! Workload labels against the reference scan, and a pinned fingerprint of
//! every generated workload.
//!
//! The generator labels its attempts through an index, not through
//! `Table::count`; these tests hold the two to exact agreement on every
//! built-in dataset under both center policies. The fingerprint covers each
//! query's bounds, its cardinality and its selectivity bits, so any change
//! to labelling, to the selectivity filter, to dedup or to how many random
//! draws an attempt consumes changes a pinned value.

use ce_datagen::{census, dmv, forest, power};
use ce_query::{generate_workload, CenterPolicy, GeneratorConfig, Workload};
use ce_storage::Table;

const ROWS: usize = 2_500;
const QUERIES: usize = 300;

fn datasets() -> [(&'static str, Table); 4] {
    [
        ("dmv", dmv(ROWS, 1)),
        ("census", census(ROWS, 2)),
        ("forest", forest(ROWS, 3)),
        ("power", power(ROWS, 4)),
    ]
}

/// The data-tuple case uses the paper's low-selectivity band (the filter
/// rejects most attempts); the uniform case keeps everything, empty
/// results included.
fn config(center: CenterPolicy) -> GeneratorConfig {
    match center {
        CenterPolicy::DataTuple => GeneratorConfig::low_selectivity(),
        CenterPolicy::UniformDomain => GeneratorConfig { center, ..Default::default() },
    }
}

/// 64-bit FNV-1a over each labelled query's predicate bounds, cardinality
/// and selectivity bits, in workload order.
fn fingerprint(workload: &Workload) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for lq in workload {
        eat(lq.query.predicates.len() as u64);
        for p in &lq.query.predicates {
            let (lo, hi) = p.op.bounds();
            eat(p.column as u64);
            eat(u64::from(lo));
            eat(u64::from(hi));
        }
        eat(lq.cardinality);
        eat(lq.selectivity.to_bits());
    }
    h
}

#[test]
fn every_label_equals_the_reference_scan() {
    for (name, table) in datasets() {
        for center in [CenterPolicy::DataTuple, CenterPolicy::UniformDomain] {
            let workload = generate_workload(&table, QUERIES, &config(center), 7);
            assert!(!workload.is_empty(), "{name}/{center:?}: empty workload");
            for lq in &workload {
                let truth = table.count(&lq.query);
                assert_eq!(lq.cardinality, truth, "{name}/{center:?}: {:?}", lq.query);
                assert_eq!(
                    lq.selectivity.to_bits(),
                    (truth as f64 / ROWS as f64).to_bits(),
                    "{name}/{center:?}: {:?}",
                    lq.query
                );
            }
        }
    }
}

/// Values computed with the generator labelling every attempt by
/// `Table::count`.
#[test]
fn workloads_match_their_pinned_fingerprints() {
    let pinned: [(&str, CenterPolicy, usize, u64); 8] = [
        ("dmv", CenterPolicy::DataTuple, 300, 0x4b8d_3c10_ead2_d60a),
        ("dmv", CenterPolicy::UniformDomain, 300, 0xa1ae_aaa2_2f15_2c24),
        ("census", CenterPolicy::DataTuple, 300, 0xb77a_7272_d035_cc67),
        ("census", CenterPolicy::UniformDomain, 300, 0xbfdc_9846_5cc5_34b2),
        ("forest", CenterPolicy::DataTuple, 300, 0xbb8f_257a_fbdb_9e4e),
        ("forest", CenterPolicy::UniformDomain, 300, 0x4f5f_f4b5_8b2d_76cf),
        ("power", CenterPolicy::DataTuple, 300, 0x3ef6_a64f_c8fb_58f1),
        ("power", CenterPolicy::UniformDomain, 300, 0xef04_754b_61a3_c4d0),
    ];
    let mut seen = Vec::new();
    for (name, table) in datasets() {
        for center in [CenterPolicy::DataTuple, CenterPolicy::UniformDomain] {
            let workload = generate_workload(&table, QUERIES, &config(center), 7);
            seen.push((name, center, workload.len(), fingerprint(&workload)));
        }
    }
    assert_eq!(seen, pinned, "a generated workload changed");
}
