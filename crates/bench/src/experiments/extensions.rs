//! `ext`: the paper's §V-D future-work directions, implemented and measured —
//! localized conformal prediction (LCP) and Mondrian (group-conditional)
//! calibration, against plain split conformal on the same model.

use cardest::conformal::{
    interval_report, AbsoluteResidual, AsymmetricSplitConformal, LocalizedConformal,
    MondrianConformal, PredictionInterval, Regressor,
};
use cardest::estimators::BLOCK;
use cardest::pipeline::{run_split_conformal, train_mscn, MethodResult, ScoreKind};

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::single_table::{sel_floor, standard_bench, ALPHA};

/// Number of predicates in a canonically-encoded query — the taxonomy the
/// Mondrian variant calibrates per class on (queries with more conjuncts are
/// systematically harder for learned models).
fn predicate_count(features: &[f32]) -> u64 {
    features
        .chunks(BLOCK)
        .filter(|block| block[0] >= 0.5)
        .count() as u64
}

/// Runs S-CP vs LCP (two neighbourhood sizes) vs Mondrian-by-predicate-count
/// vs asymmetric (signed-residual) split conformal.
pub fn ext(scale: &Scale) -> Vec<ExperimentRecord> {
    let bench = standard_bench(scale, "dmv");
    let floor = sel_floor(scale.rows);
    let mscn = train_mscn(&bench.feat, &bench.train, scale.epochs, scale.seed);
    let mut rec = ExperimentRecord::new(
        "ext",
        "future-work methods on DMV/MSCN: localized conformal + Mondrian vs S-CP",
    );

    let scp = run_split_conformal(
        mscn.clone(),
        ScoreKind::Residual,
        &bench.calib,
        &bench.test,
        ALPHA,
        floor,
    );
    rec.push("dmv/mscn", &scp);

    for &k in &[50usize, 200] {
        let lcp = LocalizedConformal::calibrate(
            mscn.clone(),
            AbsoluteResidual,
            &bench.calib.x,
            &bench.calib.y,
            k,
            ALPHA,
        );
        let ivs: Vec<PredictionInterval> = bench
            .test
            .x
            .iter()
            .map(|f| lcp.interval(f).clip(0.0, 1.0))
            .collect();
        let result = MethodResult {
            method: if k == 50 { "LCP-50" } else { "LCP-200" },
            report: interval_report(&ivs, &bench.test.y),
            intervals: ivs,
        };
        rec.push("dmv/mscn", &result);
    }

    let mondrian = MondrianConformal::calibrate(
        mscn.clone(),
        AbsoluteResidual,
        predicate_count,
        &bench.calib.x,
        &bench.calib.y,
        ALPHA,
        25,
    );
    let ivs: Vec<PredictionInterval> = bench
        .test
        .x
        .iter()
        .map(|f| mondrian.interval(f).clip(0.0, 1.0))
        .collect();
    let result = MethodResult {
        method: "Mondrian",
        report: interval_report(&ivs, &bench.test.y),
        intervals: ivs,
    };
    rec.push("dmv/mscn", &result);
    rec.extra("mondrian_classes", mondrian.n_classes() as f64);

    // Asymmetric split conformal: two-sided signed-residual calibration.
    let asym = AsymmetricSplitConformal::calibrate(
        mscn.clone(),
        &bench.calib.x,
        &bench.calib.y,
        ALPHA,
    );
    let ivs: Vec<PredictionInterval> = bench
        .test
        .x
        .iter()
        .map(|f| asym.interval(f).clip(0.0, 1.0))
        .collect();
    let result = MethodResult {
        method: "Asym-SCP",
        report: interval_report(&ivs, &bench.test.y),
        intervals: ivs,
    };
    rec.push("dmv/mscn", &result);
    rec.extra("asym_delta_low", asym.delta_low());
    rec.extra("asym_delta_high", asym.delta_high());

    // Per-class coverage under Mondrian — the strengthened guarantee,
    // written in class order so the file repeats byte for byte.
    let mut per_class: std::collections::BTreeMap<u64, (usize, usize)> =
        std::collections::BTreeMap::new();
    for (f, &y) in bench.test.x.iter().zip(&bench.test.y) {
        let entry = per_class.entry(predicate_count(f)).or_insert((0, 0));
        entry.1 += 1;
        entry.0 += usize::from(mondrian.interval(f).clip(0.0, 1.0).contains(y));
    }
    for (class, (cover, count)) in per_class {
        if count >= 20 {
            rec.extra(
                &format!("mondrian_coverage_class_{class}"),
                cover as f64 / count as f64,
            );
        }
    }
    let _ = mscn.predict(&bench.test.x[0]);
    vec![rec]
}
