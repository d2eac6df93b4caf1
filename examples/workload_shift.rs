//! Workload shift: what happens to coverage when the exchangeability
//! assumption breaks (paper Figs. 10–11), and how the martingale monitor
//! plus a sliding calibration window recover it.
//!
//! ```text
//! cargo run --release --example workload_shift
//! ```

use cardest::conformal::{
    coverage, AbsoluteResidual, ExchangeabilityMartingale, OnlineConformal, Regressor,
    ScoreFunction, SplitConformal,
};
use cardest::pipeline::{train_mscn, EncodedSet, SingleTableBench, SplitSpec};
use cardest::query::{generate_workload, GeneratorConfig};

fn main() {
    let table = cardest::datagen::dmv(10_000, 13);
    let bench = SingleTableBench::prepare(
        table.clone(),
        1_500,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        13,
    );
    let mscn = train_mscn(&bench.feat, &bench.train, 30, 13);
    let model = |f: &[f32]| mscn.predict(f);

    let scp = SplitConformal::calibrate(
        model,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        0.1,
    );

    // A drifted workload: heavy (high-selectivity) queries, a regime the
    // low-selectivity calibration set never saw — the model's residuals out
    // there dwarf the calibrated threshold.
    let drift_gen = GeneratorConfig {
        min_selectivity: 0.15,
        max_selectivity: 0.9,
        max_range_frac: 0.9,
        min_predicates: 1,
        max_predicates: 2,
        ..Default::default()
    };
    let drifted = EncodedSet::from_workload(
        &bench.feat,
        &generate_workload(&table, 400, &drift_gen, 99),
    );

    let eval = |set: &EncodedSet| {
        let ivs: Vec<_> =
            set.x.iter().map(|f| scp.interval(f).clip(0.0, 1.0)).collect();
        coverage(&ivs, &set.y)
    };
    println!("S-CP coverage on exchangeable test : {:.3}", eval(&bench.test));
    println!("S-CP coverage on drifted workload  : {:.3}  <- guarantee lost", eval(&drifted));

    // The martingale monitor fires on the drifted stream...
    let mut monitor = ExchangeabilityMartingale::new();
    for (x, &y) in bench.calib.x.iter().zip(&bench.calib.y) {
        monitor.observe(AbsoluteResidual.score(y, model.predict(x)));
    }
    for (x, &y) in drifted.x.iter().zip(&drifted.y) {
        monitor.observe(AbsoluteResidual.score(y, model.predict(x)));
    }
    println!(
        "martingale max growth: 10^{:.1} -> shift detected at capital 100: {}",
        monitor.max_growth_log10(),
        monitor.detects_shift_at(100.0)
    );

    // ...and a sliding-window calibration recovers coverage once the window
    // fills with post-shift queries.
    let mut windowed = OnlineConformal::windowed(model, AbsoluteResidual, 150, 0.1);
    for (x, &y) in bench.calib.x.iter().zip(&bench.calib.y) {
        windowed.observe(x, y);
    }
    let half = drifted.len() / 2;
    for (x, &y) in drifted.x[..half].iter().zip(&drifted.y[..half]) {
        windowed.observe(x, y);
    }
    let ivs: Vec<_> = drifted.x[half..]
        .iter()
        .map(|f| windowed.interval(f).clip(0.0, 1.0))
        .collect();
    println!(
        "windowed-conformal coverage on the drifted tail: {:.3}  <- recovered",
        coverage(&ivs, &drifted.y[half..])
    );
}
