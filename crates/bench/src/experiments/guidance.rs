//! The §V-D practitioner-guidance summary and the design-choice ablations
//! DESIGN.md calls out.

use std::time::Instant;

use cardest::conformal::{
    interval_report, AbsoluteResidual, CvPlus, LocallyWeightedConformal, Regressor,
};
use cardest::datagen;
use cardest::estimators::{EnsembleSpread, LwNn, LwNnConfig, Naru, NaruConfig};
use cardest::pipeline::{
    run_jackknife_cv_lwnn, run_locally_weighted, run_split_conformal, train_mscn,
    MethodResult, ScoreKind,
};
use cardest::query::{
    generate_join_workload, generate_workload, random_templates, GeneratorConfig,
    JoinGeneratorConfig,
};
use cardest::storage::BitmapIndex;

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::single_table::{labeled_union, mscn_four_methods, sel_floor, standard_bench, ALPHA};

/// §V-D: the four methods side by side on DMV/MSCN plus mean-width ratios
/// against S-CP (the paper reports JK-CV+ at 83–96% of S-CP).
pub fn guide(scale: &Scale) -> Vec<ExperimentRecord> {
    let bench = standard_bench(scale, "dmv");
    let results = mscn_four_methods(&bench, scale, ALPHA);
    let mut rec = ExperimentRecord::new(
        "guide",
        "practitioner guidance: all four methods on DMV/MSCN with width ratios vs S-CP",
    );
    let scp_width = results[0].report.mean_width;
    for r in &results {
        rec.push("dmv/mscn", r);
        rec.extra(
            &format!("width_ratio_vs_scp/{}", r.method),
            r.report.mean_width / scp_width,
        );
    }
    vec![rec]
}

/// Design-choice ablations:
/// 1. Algorithm-1 JK-CV vs the full CV+ interval (Eq. 5);
/// 2. LW-S-CP difficulty model: GBDT vs ensemble spread;
/// 3. Naru progressive-sampling budget;
/// 4. calibration-set size vs threshold (δ) variance;
/// 5. naive scan vs CSR-index COUNT(*) evaluation.
pub fn ablation(scale: &Scale) -> Vec<ExperimentRecord> {
    let bench = standard_bench(scale, "dmv");
    let floor = sel_floor(scale.rows);
    let mut rec = ExperimentRecord::new("ablation", "design-choice ablations");

    // --- 1. Alg-1 JK-CV (symmetric, full model) vs CV+ (Eq. 5). ---
    let labeled = labeled_union(&bench);
    let jk = run_jackknife_cv_lwnn(
        &bench.table,
        &labeled,
        &bench.test,
        10,
        ALPHA,
        scale.epochs,
        scale.seed,
    );
    rec.push("jk-variants", &jk);
    let table_for_trainer = bench.table.clone();
    let epochs = scale.epochs;
    let trainer = move |x: &[Vec<f32>], y: &[f64], s: u64| {
        LwNn::fit(
            &table_for_trainer,
            x,
            y,
            &LwNnConfig { epochs, seed: s, ..Default::default() },
        )
    };
    let cv_plus = CvPlus::fit(&trainer, &labeled.x, &labeled.y, 10, ALPHA, scale.seed);
    let ivs: Vec<_> = bench
        .test
        .x
        .iter()
        .map(|f| cv_plus.interval(f).clip(0.0, 1.0))
        .collect();
    rec.push(
        "jk-variants",
        &MethodResult {
            method: "CV+",
            report: interval_report(&ivs, &bench.test.y),
            intervals: ivs,
        },
    );

    // --- 2. Difficulty model: GBDT (default) vs MSCN ensemble spread. ---
    let mscn = train_mscn(&bench.feat, &bench.train, scale.epochs, scale.seed);
    let lw_gbdt = run_locally_weighted(
        mscn.clone(),
        ScoreKind::Residual,
        &bench.train,
        &bench.calib,
        &bench.test,
        ALPHA,
        floor,
        scale.seed,
    );
    rec.push("difficulty/gbdt", &lw_gbdt);
    let ensemble: Vec<_> = (0..3)
        .map(|i| {
            train_mscn(
                &bench.feat,
                &bench.train,
                (scale.epochs / 2).max(1),
                scale.seed + 1000 + i,
            )
        })
        .collect();
    let spread = EnsembleSpread::new(ensemble, floor);
    let lw_ens = LocallyWeightedConformal::calibrate(
        mscn.clone(),
        spread,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        ALPHA,
        floor,
    );
    let ivs: Vec<_> = bench
        .test
        .x
        .iter()
        .map(|f| lw_ens.interval(f).clip(0.0, 1.0))
        .collect();
    rec.push(
        "difficulty/ensemble",
        &MethodResult {
            method: "LW-S-CP",
            report: interval_report(&ivs, &bench.test.y),
            intervals: ivs,
        },
    );

    // --- 3. Naru sampling budget: accuracy and S-CP width vs samples. ---
    let mut naru = Naru::fit(
        &bench.table,
        &NaruConfig {
            epochs: scale.naru_epochs,
            samples: scale.naru_samples,
            seed: scale.seed,
            ..Default::default()
        },
    );
    for &budget in &[8usize, 32, 128] {
        naru.set_samples(budget);
        let r = run_split_conformal(
            naru.clone(),
            ScoreKind::Residual,
            &bench.calib,
            &bench.test,
            ALPHA,
            floor,
        );
        rec.push(&format!("naru-samples={budget}"), &r);
        let geo_q: f64 = bench
            .test
            .x
            .iter()
            .zip(&bench.test.y)
            .map(|(f, &y)| cardest::conformal::q_error(naru.predict(f), y, floor).ln())
            .sum::<f64>()
            / bench.test.len() as f64;
        rec.extra(&format!("naru_geo_qerror_samples_{budget}"), geo_q.exp());
    }

    // --- 4. Calibration-set size vs threshold variance: the paper notes
    // that small calibration sets keep the coverage guarantee but make δ
    // itself noisy. Measured as the std of δ over resampled calibration
    // subsets of each size. ---
    {
        use cardest::conformal::conformal_quantile;
        use rand::SeedableRng;
        let mscn = train_mscn(&bench.feat, &bench.train, scale.epochs, scale.seed);
        let scores: Vec<f64> = bench
            .calib
            .x
            .iter()
            .zip(&bench.calib.y)
            .map(|(f, &y)| (y - mscn.predict(f)).abs())
            .collect();
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(scale.seed + 77);
        let n = scores.len();
        for size in [(n / 16).max(20), n / 4, n] {
            // Bootstrap (with replacement) so the full-size row still shows
            // its sampling variance.
            let deltas: Vec<f64> = (0..20)
                .map(|_| {
                    let subset: Vec<f64> =
                        (0..size).map(|_| scores[rng.gen_range(0..n)]).collect();
                    conformal_quantile(&subset, ALPHA)
                })
                .collect();
            let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
            let std = (deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>()
                / deltas.len() as f64)
                .sqrt();
            rec.extra(&format!("delta_mean_calib_{size}"), mean);
            rec.extra(&format!("delta_std_calib_{size}"), std);
        }
    }

    // --- 5. Naive scan vs bitmap-index COUNT(*), and star-join counts. ---
    let table = datagen::dmv(scale.rows, scale.seed + 5);
    let queries = generate_workload(&table, 200, &GeneratorConfig::default(), 77);
    let t0 = Instant::now();
    let mut checksum_scan = 0u64;
    for lq in &queries {
        checksum_scan += table.count(&lq.query);
    }
    let scan_time = t0.elapsed().as_secs_f64();
    let indexed = BitmapIndex::build(&table);
    let t1 = Instant::now();
    let mut checksum_idx = 0u64;
    for lq in &queries {
        checksum_idx += indexed.count(&lq.query);
    }
    let idx_time = t1.elapsed().as_secs_f64();
    assert_eq!(checksum_scan, checksum_idx, "evaluators disagree");
    rec.extra("count_naive_scan_secs", scan_time);
    rec.extra("count_bitmap_index_secs", idx_time);
    rec.extra("count_speedup", scan_time / idx_time.max(1e-12));

    let star = datagen::dsb_star(scale.fact_rows, scale.seed + 11);
    let templates = random_templates(&star, 5, scale.seed + 12);
    let joins = generate_join_workload(
        &star,
        &templates,
        5,
        &JoinGeneratorConfig::default(),
        scale.seed + 13,
    );
    let t2 = Instant::now();
    let mut checksum_star = 0u64;
    for lq in &joins {
        checksum_star += star.count(&lq.query);
    }
    rec.extra("count_star_join_secs", t2.elapsed().as_secs_f64());
    let labelled: u64 = joins.iter().map(|lq| lq.cardinality).sum();
    assert_eq!(checksum_star, labelled, "star-join counts disagree with their labels");

    vec![rec]
}
