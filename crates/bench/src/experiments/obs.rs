//! `obs`: telemetry overhead, out-of-band byte-identity, and coverage-drift
//! monitoring.
//!
//! Three claims from the observability layer are checked in one run:
//!
//! 1. **Out-of-band** — fig1 and fig6 (run at smoke scale) serialize to
//!    byte-identical JSON with telemetry enabled vs disabled, and the batched
//!    serving path returns bit-identical intervals either way. Telemetry
//!    observes, it never participates (DESIGN.md §5b).
//! 2. **Cheap** — best-of-reps wall-clock of
//!    [`PiService::predict_interval_batch`] with telemetry on vs off; the
//!    measured overhead must stay under `OVERHEAD_THRESHOLD_PCT`.
//! 3. **Useful** — a drifting prequential workload (truths shifted far out of
//!    the calibrated regime) trips the
//!    [`CoverageMonitor`](cardest::conformal::CoverageMonitor) drift alarm
//!    within one window, while the exchangeable phase leaves it silent, and the
//!    registry's JSON/Prometheus exports carry the recorded spans.
//! 4. **Traceable for free** — the distributed-tracing layer (DESIGN.md §13)
//!    at its default 1-in-64 head sampling costs under
//!    `TRACING_OVERHEAD_THRESHOLD_PCT` of serving throughput, and fig1/fig6
//!    stay byte-identical even with every request traced (`--trace-sample 1`).
//!
//! The summary is exported to `BENCH_obs.json` in the working directory
//! (grep-gated by CI) alongside the usual `results/obs.json` record.

use std::time::Instant;

use cardest::conformal::{AbsoluteResidual, PiService, PiServiceConfig};
use cardest::pipeline::train_mscn;
use ce_telemetry::trace;

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::scoring::fig6;
use super::single_table::{fig1, standard_bench, ALPHA};

/// Maximum tolerated instrumentation overhead on the batched serving path.
const OVERHEAD_THRESHOLD_PCT: f64 = 5.0;

/// Maximum tolerated throughput cost of head-sampled tracing (1-in-64).
const TRACING_OVERHEAD_THRESHOLD_PCT: f64 = 2.0;

/// Passes over the test batch per timed sample, so one sample is long enough
/// that scheduler noise does not dominate a sub-millisecond batch.
const PASSES_PER_SAMPLE: usize = 4;

/// Timed samples per telemetry setting (best-of is the noise-robust pick).
const SAMPLES: usize = 7;

/// Timed samples per tracing setting. The tracing gate
/// ([`TRACING_OVERHEAD_THRESHOLD_PCT`]) is 2.5× tighter than telemetry's,
/// so its best-of needs more draws for both floors to converge below the
/// gate's resolution.
const TRACING_SAMPLES: usize = 17;

/// Passes per tracing sample: longer samples than the telemetry phase so
/// scheduler jitter (~hundreds of µs) stays well under the 2% gate.
const TRACING_PASSES: usize = 12;

/// Queries streamed in each prequential phase of the drift scenario.
const DRIFT_STREAM: usize = 400;

/// Best-of wall-clock seconds for `f`, recording samples under `label`.
fn best_of<R>(label: &str, reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = criterion::black_box(f());
        let elapsed = start.elapsed();
        criterion::record_sample(label, elapsed.as_nanos());
        best = best.min(elapsed.as_secs_f64());
        out = Some(r);
    }
    (out.expect("reps must be positive"), best)
}

/// Runs the observability experiment; see the module docs.
pub fn obs(scale: &Scale) -> Vec<ExperimentRecord> {
    let mut rec = ExperimentRecord::new(
        "obs",
        "telemetry layer: serving overhead, out-of-band byte-identity, drift alarm",
    );
    ce_telemetry::set_enabled(false);
    ce_telemetry::global().reset();

    // --- 1. out-of-band audit: fig1/fig6 byte-identical on/off ----------
    // Always at smoke scale: the audit compares bytes, not trends, and the
    // smoke preset keeps the doubled run affordable at any requested scale.
    let fig_scale = Scale::smoke();
    let baseline = serde_json::to_string(&(fig1(&fig_scale), fig6(&fig_scale)))
        .expect("serialize fig records");
    ce_telemetry::set_enabled(true);
    let instrumented = serde_json::to_string(&(fig1(&fig_scale), fig6(&fig_scale)))
        .expect("serialize fig records");
    ce_telemetry::set_enabled(false);
    let fig_identical = baseline == instrumented;
    assert!(fig_identical, "telemetry changed fig1/fig6 results — out-of-band contract broken");
    rec.extra("fig_results_identical", 1.0);
    // And again with every request traced: the flight recorder observes the
    // same wall it never participates in. An active trace plus rate-1
    // sampling exercises the span→stage join on every instrumented scope.
    trace::reset();
    trace::set_sample_rate(1);
    ce_telemetry::set_enabled(true);
    trace::begin(trace::mint());
    let traced = serde_json::to_string(&(fig1(&fig_scale), fig6(&fig_scale)))
        .expect("serialize fig records");
    trace::abandon();
    ce_telemetry::set_enabled(false);
    let fig_tracing_identical = baseline == traced;
    assert!(
        fig_tracing_identical,
        "tracing changed fig1/fig6 results — out-of-band contract broken"
    );
    rec.extra("fig_identical_with_tracing", 1.0);

    // --- 2. serving overhead on predict_interval_batch ------------------
    let bench = standard_bench(scale, "dmv");
    let model = train_mscn(&bench.feat, &bench.train, scale.epochs.clamp(1, 10), scale.seed);
    let service = PiService::new(
        model,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha: ALPHA, ..Default::default() },
    );
    let batch = &bench.test.x;
    let serve = || {
        let mut last = Vec::new();
        for _ in 0..PASSES_PER_SAMPLE {
            last = service.predict_interval_batch(batch);
        }
        last
    };
    // Warm both code paths once before timing.
    criterion::black_box(serve());
    let (ivs_off, secs_off) = best_of("obs/serving_telemetry_off", SAMPLES, serve);
    ce_telemetry::set_enabled(true);
    let (ivs_on, secs_on) = best_of("obs/serving_telemetry_on", SAMPLES, serve);
    ce_telemetry::set_enabled(false);
    assert_eq!(ivs_off, ivs_on, "telemetry changed served intervals");
    let overhead_pct = (secs_on - secs_off) / secs_off * 100.0;
    let queries_per_sample = (batch.len() * PASSES_PER_SAMPLE) as f64;
    rec.extra("serving_qps_off", queries_per_sample / secs_off);
    rec.extra("serving_qps_on", queries_per_sample / secs_on);
    rec.extra("overhead_pct", overhead_pct);
    assert!(
        overhead_pct < OVERHEAD_THRESHOLD_PCT,
        "telemetry overhead {overhead_pct:.2}% exceeds {OVERHEAD_THRESHOLD_PCT}% \
         on the batched serving path"
    );

    // --- 2b. tracing overhead at default head sampling -------------------
    // Mimic the HTTP handler's per-request decision: consult the sampler,
    // mint + begin on a hit, serve the batch, finish. At the default
    // 1-in-64 rate the steady-state cost is one atomic fetch_add on the
    // miss path, so the throughput gate is much tighter than telemetry's.
    // Samples interleave the two settings so machine drift (thermal,
    // frequency scaling) hits both sides equally before best-of picks.
    let serve_traced = || {
        let mut last = Vec::new();
        for _ in 0..TRACING_PASSES {
            if trace::should_sample() {
                trace::begin(trace::mint());
            }
            last = service.predict_interval_batch(batch);
            if trace::active_id().is_some() {
                trace::finish(None);
            }
        }
        last
    };
    trace::reset();
    trace::warm();
    let mut secs_untraced = f64::INFINITY;
    let mut secs_sampled = f64::INFINITY;
    trace::set_sample_rate(0);
    let ivs_untraced = criterion::black_box(serve_traced()); // warm both paths
    trace::set_sample_rate(trace::DEFAULT_SAMPLE_RATE);
    let ivs_sampled = criterion::black_box(serve_traced());
    assert_eq!(ivs_untraced, ivs_sampled, "tracing changed served intervals");
    for _ in 0..TRACING_SAMPLES {
        trace::set_sample_rate(0);
        let start = Instant::now();
        criterion::black_box(serve_traced());
        let elapsed = start.elapsed();
        criterion::record_sample("obs/serving_trace_off", elapsed.as_nanos());
        secs_untraced = secs_untraced.min(elapsed.as_secs_f64());
        trace::set_sample_rate(trace::DEFAULT_SAMPLE_RATE);
        let start = Instant::now();
        criterion::black_box(serve_traced());
        let elapsed = start.elapsed();
        criterion::record_sample("obs/serving_trace_sampled", elapsed.as_nanos());
        secs_sampled = secs_sampled.min(elapsed.as_secs_f64());
    }
    trace::set_sample_rate(0);
    let tracing_overhead_pct = (secs_sampled - secs_untraced) / secs_untraced * 100.0;
    let tracing_queries = (batch.len() * TRACING_PASSES) as f64;
    rec.extra("tracing_qps_off", tracing_queries / secs_untraced);
    rec.extra("tracing_qps_sampled", tracing_queries / secs_sampled);
    rec.extra("tracing_overhead_pct", tracing_overhead_pct);
    assert!(
        tracing_overhead_pct < TRACING_OVERHEAD_THRESHOLD_PCT,
        "tracing overhead {tracing_overhead_pct:.2}% exceeds \
         {TRACING_OVERHEAD_THRESHOLD_PCT}% at 1-in-{} head sampling",
        trace::DEFAULT_SAMPLE_RATE
    );

    // --- 3. drift scenario: monitor silent when calm, alarmed on shift --
    let model = train_mscn(&bench.feat, &bench.train, scale.epochs.clamp(1, 10), scale.seed);
    let mut drifting = PiService::new(
        model,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha: ALPHA, ..Default::default() },
    );
    ce_telemetry::set_enabled(true);
    for qi in 0..DRIFT_STREAM {
        let i = qi % bench.test.len();
        drifting.observe(&bench.test.x[i], bench.test.y[i]);
    }
    let calm_alarms = drifting.coverage_monitor().alarms_raised();
    rec.extra("calm_alarms", calm_alarms as f64);
    rec.extra("calm_coverage", drifting.coverage_monitor().coverage());
    // Shift: truths jump far outside the calibrated selectivity range, so
    // served intervals stop covering. The alarm must fire within one window.
    let window = drifting.coverage_monitor().config().window;
    let mut alarm_after = None;
    for qi in 0..window {
        let i = qi % bench.test.len();
        drifting.observe(&bench.test.x[i], bench.test.y[i] + 5.0);
        if drifting.coverage_monitor().alarms_raised() > calm_alarms {
            alarm_after = Some(qi + 1);
            break;
        }
    }
    ce_telemetry::set_enabled(false);
    let alarm_after = alarm_after.expect("drift alarm did not fire within one window");
    rec.extra("drift_alarm_after_queries", alarm_after as f64);
    rec.extra("drift_coverage", drifting.coverage_monitor().coverage());

    // --- registry export sanity -----------------------------------------
    let json = ce_telemetry::global().to_json();
    let prom = ce_telemetry::global().to_prometheus();
    let exports_ok = json.contains("span.pi_batch")
        && json.contains("monitor.coverage")
        && prom.contains("cardest_span_pi_batch_count")
        && prom.contains("cardest_monitor_coverage");
    assert!(exports_ok, "telemetry exports missing expected serving metrics");
    rec.extra("exports_ok", 1.0);
    rec.extra("telemetry_json_bytes", json.len() as f64);
    rec.extra("telemetry_prom_bytes", prom.len() as f64);
    ce_telemetry::global().reset();

    write_bench_summary(
        scale,
        overhead_pct,
        tracing_overhead_pct,
        fig_identical,
        fig_tracing_identical,
        alarm_after,
        &rec,
    );
    vec![rec]
}

/// Writes `BENCH_obs.json` in the working directory: the gate fields CI
/// greps plus the scalar metrics and raw criterion samples.
fn write_bench_summary(
    scale: &Scale,
    overhead_pct: f64,
    tracing_overhead_pct: f64,
    fig_identical: bool,
    fig_tracing_identical: bool,
    alarm_after: usize,
    rec: &ExperimentRecord,
) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"setting_rows\": {},\n", scale.rows));
    json.push_str(&format!("  \"overhead_pct\": {overhead_pct:.4},\n"));
    json.push_str(&format!("  \"overhead_threshold_pct\": {OVERHEAD_THRESHOLD_PCT},\n"));
    json.push_str(&format!(
        "  \"overhead_under_threshold\": {},\n",
        overhead_pct < OVERHEAD_THRESHOLD_PCT
    ));
    json.push_str(&format!("  \"tracing_overhead_pct\": {tracing_overhead_pct:.4},\n"));
    json.push_str(&format!(
        "  \"tracing_overhead_threshold_pct\": {TRACING_OVERHEAD_THRESHOLD_PCT},\n"
    ));
    json.push_str(&format!(
        "  \"tracing_overhead_under_threshold\": {},\n",
        tracing_overhead_pct < TRACING_OVERHEAD_THRESHOLD_PCT
    ));
    json.push_str(&format!("  \"fig_results_identical\": {fig_identical},\n"));
    json.push_str(&format!(
        "  \"fig_identical_with_tracing\": {fig_tracing_identical},\n"
    ));
    json.push_str(&format!("  \"drift_alarm_after_queries\": {alarm_after},\n"));
    json.push_str("  \"metrics\": {\n");
    let scalars: Vec<String> = rec
        .extras
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    json.push_str(&scalars.join(",\n"));
    json.push_str("\n  },\n");
    let samples = criterion::samples_json();
    let indented: String = samples
        .trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 0 { l.to_string() } else { format!("  {l}") })
        .collect::<Vec<_>>()
        .join("\n");
    json.push_str(&format!("  \"samples_ns\": {indented}\n}}\n"));
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("  [saved BENCH_obs.json]");
}
