//! Online conformal prediction: after each query executes, its true
//! cardinality is folded back into the calibration set, tightening future
//! intervals (paper §IV + Fig. 8). A sliding-window variant and the
//! martingale shift monitor run alongside.
//!
//! ```text
//! cargo run --release --example online_calibration
//! ```

use cardest::conformal::{
    AbsoluteResidual, ExchangeabilityMartingale, OnlineConformal, Regressor, ScoreFunction,
};
use cardest::pipeline::{train_mscn, SingleTableBench, SplitSpec};
use cardest::query::GeneratorConfig;

fn main() {
    let table = cardest::datagen::forest(10_000, 5);
    let bench = SingleTableBench::prepare(
        table,
        1_800,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        5,
    );
    let mscn = train_mscn(&bench.feat, &bench.train, 30, 5);
    let model = |f: &[f32]| mscn.predict(f);

    // Start with a tiny calibration set; stream the rest.
    let warm = 30;
    let mut online = OnlineConformal::new(
        model,
        AbsoluteResidual,
        &bench.calib.x[..warm],
        &bench.calib.y[..warm],
        0.1,
    );
    let mut window = OnlineConformal::windowed(model, AbsoluteResidual, 200, 0.1);
    let mut monitor = ExchangeabilityMartingale::new();

    let stream_x: Vec<&Vec<f32>> =
        bench.calib.x[warm..].iter().chain(bench.test.x.iter()).collect();
    let stream_y: Vec<f64> = bench.calib.y[warm..]
        .iter()
        .chain(bench.test.y.iter())
        .copied()
        .collect();

    println!("{:>8} {:>14} {:>14} {:>12}", "queries", "online delta", "window delta", "mart.log10");
    for (t, (x, &y)) in stream_x.iter().zip(&stream_y).enumerate() {
        online.observe(x, y);
        window.observe(x, y);
        monitor.observe(AbsoluteResidual.score(y, model.predict(x)));
        if [50usize, 200, 500, stream_x.len() - 1].contains(&t) {
            println!(
                "{:>8} {:>14.6} {:>14.6} {:>12.2}",
                t + 1,
                online.delta(),
                window.delta(),
                monitor.log10_martingale()
            );
        }
    }
    println!(
        "\nonline calibration grew to {} scores; shift detected at 1e4: {}",
        online.calibration_size(),
        monitor.detects_shift_at(1e4)
    );
    println!("(thresholds tighten as the calibration set absorbs the live workload)");
}
