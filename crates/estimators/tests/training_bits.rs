//! Pinned fingerprints of trained parameters.
//!
//! Each fit below runs at small scale and its model is fingerprinted with
//! 64-bit FNV-1a over its serialized form. The serializer prints every
//! `f32` in its shortest round-trip form, so that text fixes every weight,
//! bias and Adam moment bit for bit (and the step counts); any change to
//! the arithmetic of a forward, a backward, a loss gradient or an Adam
//! step changes a pinned value. The values were computed by the training
//! path that built each layer's backward from fresh transposed matrices,
//! so they hold the tape-based path to the same bits. MSCN is trained at
//! one and at three threads against the same value: the thread count must
//! not change a bit.

use ce_datagen::{dmv, dsb_star};
use ce_estimators::{
    LwNn, LwNnConfig, Mscn, MscnConfig, MscnLayout, Naru, NaruConfig, NaruMade, NaruMadeConfig,
    SingleTableFeaturizer, StarFeaturizer, TrainLoss,
};
use ce_query::{
    generate_join_workload, generate_workload, random_templates, GeneratorConfig,
    JoinGeneratorConfig,
};

/// 64-bit FNV-1a over a model's serialized bytes. Panics on a non-finite
/// value (the serializer writes those as `null`, which would hide bits).
fn fingerprint<T: serde::Serialize>(model: &T) -> u64 {
    let text = serde_json::to_string(model).expect("serialize model");
    assert!(!text.contains("null"), "a trained value is not finite");
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// An MSCN layout with its encoded queries and their selectivities.
type Workload = (MscnLayout, Vec<Vec<f32>>, Vec<f64>);

/// A single-table workload on `dmv`: 240 queries, so 64-query batches
/// leave a ragged last one.
fn dmv_workload() -> Workload {
    let table = dmv(2_000, 0);
    let feat = SingleTableFeaturizer::new(table.schema().clone());
    let w = generate_workload(&table, 240, &GeneratorConfig::default(), 1);
    let x = w.iter().map(|lq| feat.encode(&lq.query)).collect();
    let y = w.iter().map(|lq| lq.selectivity).collect();
    (MscnLayout::Single(feat), x, y)
}

/// A star-join workload on `dsb_star`.
fn star_workload() -> Workload {
    let star = dsb_star(400, 0);
    let feat = StarFeaturizer::new(&star);
    let templates = random_templates(&star, 6, 1);
    let w = generate_join_workload(&star, &templates, 12, &JoinGeneratorConfig::default(), 2);
    let x = w.iter().map(|lq| feat.encode(&lq.query)).collect();
    let y = w.iter().map(|lq| lq.selectivity).collect();
    (MscnLayout::Star(feat), x, y)
}

fn assert_mscn_pinned(workload: fn() -> Workload, loss: TrainLoss, want: u64) {
    let (layout, x, y) = workload();
    for threads in [1, 3] {
        let config = MscnConfig { epochs: 4, loss, seed: 5, ..Default::default() };
        let model =
            ce_parallel::with_threads(threads, || Mscn::fit(layout.clone(), &x, &y, &config));
        let got = fingerprint(&model);
        assert_eq!(got, want, "{loss:?} at {threads} threads: {got:#018x}");
    }
}

#[test]
fn mscn_dmv_log_mse_bits_are_pinned() {
    assert_mscn_pinned(dmv_workload, TrainLoss::LogMse, 0xd442_5cd6_6b91_51a4);
}

#[test]
fn mscn_dmv_pinball_bits_are_pinned() {
    assert_mscn_pinned(dmv_workload, TrainLoss::Pinball(0.05), 0x8fa8_51f5_577f_42e4);
}

#[test]
fn mscn_star_log_mse_bits_are_pinned() {
    assert_mscn_pinned(star_workload, TrainLoss::LogMse, 0x1038_1a62_983e_ae08);
}

#[test]
fn mscn_star_pinball_bits_are_pinned() {
    assert_mscn_pinned(star_workload, TrainLoss::Pinball(0.05), 0x242e_ab4d_221d_e417);
}

#[test]
fn lwnn_bits_are_pinned() {
    let table = dmv(2_000, 0);
    let feat = SingleTableFeaturizer::new(table.schema().clone());
    let w = generate_workload(&table, 240, &GeneratorConfig::default(), 1);
    let x: Vec<Vec<f32>> = w.iter().map(|lq| feat.encode(&lq.query)).collect();
    let y: Vec<f64> = w.iter().map(|lq| lq.selectivity).collect();
    let model = LwNn::fit(&table, &x, &y, &LwNnConfig { epochs: 4, ..Default::default() });
    let got = fingerprint(&model);
    assert_eq!(got, 0x1e51_bc9c_1b98_b50a, "{got:#018x}");
}

#[test]
fn naru_bits_are_pinned() {
    let table = dmv(600, 3);
    let model = Naru::fit(&table, &NaruConfig { epochs: 1, ..Default::default() });
    let got = fingerprint(&model);
    assert_eq!(got, 0xc39f_4f90_d4d0_3a55, "{got:#018x}");
}

#[test]
fn naru_made_bits_are_pinned() {
    let table = dmv(600, 3);
    let config = NaruMadeConfig { epochs: 1, hidden: vec![32, 32], ..Default::default() };
    let got = fingerprint(&NaruMade::fit(&table, &config));
    assert_eq!(got, 0x6b06_bd65_32d5_e520, "{got:#018x}");
}
