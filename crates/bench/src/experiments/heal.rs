//! `heal`: drift-triggered self-healing and durable checkpoint recovery.
//!
//! Three operational claims about the [`SelfHealingService`] layer are
//! checked in one run (DESIGN.md §9):
//!
//! 1. **Transparent** — on a calm stream the healing layer is a pure
//!    pass-through: batched serving through the wrapped service returns
//!    bit-identical intervals to the bare [`PiService`].
//! 2. **Self-healing** — a prequential stream whose truths shift out of the
//!    calibrated regime collapses rolling coverage, raises the monitor
//!    alarm, and the layer recalibrates on fresh-regime scores: within
//!    `RECOVERY_BUDGET` observations of drift onset the trailing-window
//!    coverage re-enters the `1 − α − ε` band (the recovery curve is
//!    recorded alongside the gates).
//! 3. **Durable** — the mid-drift service checkpoints to disk, is
//!    "killed", and the restored replica evolves bit-for-bit with the
//!    original: after 200 further shared observations both re-checkpoint to
//!    byte-identical files.
//!
//! The summary is exported to `BENCH_heal.json` in the working directory
//! (grep-gated by CI) alongside the usual `results/heal.json` record.

use std::collections::VecDeque;

use cardest::conformal::{
    encode_checkpoint, interval_report, read_checkpoint, write_checkpoint, AbsoluteResidual,
    HealConfig, HealEvent, PiService, PiServiceConfig, PredictionInterval, SelfHealingService,
};
use cardest::pipeline::train_mscn;

use crate::report::ExperimentRecord;
use crate::scale::Scale;

use super::single_table::{standard_bench, ALPHA};

/// Added to every truth in the drift phase: roughly 10× the calm residual
/// scale, so served intervals stop covering without tripping the healing
/// layer's width-blowup guard (which exists to reject *pathological*
/// candidates, not honest regime shifts).
const DRIFT_SHIFT: f64 = 0.5;

/// Prequential calm observations before drift is injected (fills the
/// coverage monitor's window).
const CALM_STREAM: usize = 200;

/// Trailing window over which the recovery curve's coverage is measured.
const RECOVERY_WINDOW: usize = 50;

/// Observations allowed from drift onset until trailing coverage re-enters
/// the band — covers alarm latency, the fresh-score gather, and the window
/// refill after promotion.
const RECOVERY_BUDGET: usize = 600;

/// Shared observations streamed into both replicas after the kill-and-
/// recover restore.
const RESUME_STREAM: usize = 200;

/// Runs the self-healing experiment; see the module docs.
pub fn heal(scale: &Scale) -> Vec<ExperimentRecord> {
    let mut rec = ExperimentRecord::new(
        "heal",
        "self-healing serving: drift alarm -> shadow-validated recalibration -> recovery, \
         plus checkpoint kill-and-recover",
    );
    let bench = standard_bench(scale, "dmv");
    let model = train_mscn(&bench.feat, &bench.train, scale.epochs.clamp(1, 10), scale.seed);
    let service_config = PiServiceConfig { alpha: ALPHA, ..Default::default() };
    let heal_config = HealConfig { min_history: 60, cooldown_base: 100, ..Default::default() };
    let floor = 1.0 - ALPHA - heal_config.epsilon;
    rec.extra("coverage_floor", floor);

    // --- 1. calm pass-through: healing layer serves bit-identically ------
    let bare = PiService::new(
        model.clone(),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        service_config,
    );
    let mut healed = SelfHealingService::new(
        model.clone(),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        service_config,
        heal_config,
    );
    let bare_ivs = bare.predict_interval_batch(&bench.test.x);
    let healed_ivs = healed.predict_interval_batch(&bench.test.x);
    let serving_identical = bare_ivs == healed_ivs;
    assert!(serving_identical, "healing layer changed calm serving");
    rec.extra("healing_serving_identical", 1.0);
    let calm_report = interval_report(&bare_ivs, &bench.test.y);
    rec.extra("calm_coverage", calm_report.coverage);

    // --- 2. drift -> alarm -> recalibration -> recovery curve ------------
    let stream = |qi: usize| qi % bench.test.len();
    for qi in 0..CALM_STREAM {
        let i = stream(qi);
        healed.observe(&bench.test.x[i], bench.test.y[i]);
    }
    let drift_start = healed.observations();
    let promotions_before = healed.promotion_count();
    rec.extra("calm_alarms", healed.service().coverage_monitor().alarms_raised() as f64);

    let mut trailing: VecDeque<bool> = VecDeque::with_capacity(RECOVERY_WINDOW);
    let mut recovery_obs = None;
    let mut curve_points = 0usize;
    for step in 0..RECOVERY_BUDGET {
        let i = stream(CALM_STREAM + step);
        let x = &bench.test.x[i];
        let y = bench.test.y[i] + DRIFT_SHIFT;
        let covered = healed.interval(x).contains(y);
        if trailing.len() == RECOVERY_WINDOW {
            trailing.pop_front();
        }
        trailing.push_back(covered);
        healed.observe(x, y);
        // Sample the recovery curve sparsely so the record stays readable.
        if step % RECOVERY_WINDOW == RECOVERY_WINDOW - 1 && curve_points < 12 {
            let rate =
                trailing.iter().filter(|&&c| c).count() as f64 / trailing.len() as f64;
            rec.extra(&format!("recovery_curve/obs_{}", step + 1), rate);
            curve_points += 1;
        }
        if recovery_obs.is_none() && trailing.len() == RECOVERY_WINDOW {
            let rate = trailing.iter().filter(|&&c| c).count() as f64 / RECOVERY_WINDOW as f64;
            if rate >= floor {
                recovery_obs = Some(step + 1);
            }
        }
    }
    let alarm_after = healed
        .history()
        .iter()
        .filter_map(|e| match e {
            HealEvent::AlarmReceived { at, .. } if *at > drift_start => Some(*at - drift_start),
            _ => None,
        })
        .next();
    let promotions_after = healed.promotion_count() - promotions_before;
    let recovery_obs = recovery_obs.expect("coverage never re-entered the band after drift");
    let alarm_after = alarm_after.expect("drift never raised an alarm");
    assert!(promotions_after >= 1, "drift alarm never led to a promoted recalibration");
    let healed_gate = true;
    rec.extra("drift_alarm_after_obs", alarm_after as f64);
    rec.extra("promotions_after_drift", promotions_after as f64);
    rec.extra("rollbacks", healed.rollback_count() as f64);
    rec.extra("recovery_obs", recovery_obs as f64);
    rec.extra("recovery_budget", RECOVERY_BUDGET as f64);
    let post_coverage =
        trailing.iter().filter(|&&c| c).count() as f64 / trailing.len().max(1) as f64;
    rec.extra("post_heal_coverage", post_coverage);

    // --- 3. checkpoint kill-and-recover, byte-identical resume -----------
    let path = std::env::temp_dir().join(format!("ce-heal-bench-{}.ckpt", scale.rows));
    write_checkpoint(&path, &healed.checkpoint()).expect("write checkpoint");
    let from_disk = read_checkpoint(&path).expect("read checkpoint");
    let checkpoint_bytes = encode_checkpoint(&from_disk).len();
    // "Kill" the process state: the restored replica is rebuilt purely from
    // the file plus the (immutable) model weights.
    let mut restored =
        SelfHealingService::restore(model.clone(), AbsoluteResidual, from_disk)
            .expect("restore from checkpoint");
    let mut divergence = 0usize;
    for qi in 0..RESUME_STREAM {
        let i = stream(CALM_STREAM + RECOVERY_BUDGET + qi);
        let x = &bench.test.x[i];
        let y = bench.test.y[i] + DRIFT_SHIFT;
        let a: PredictionInterval = healed.interval(x);
        let b: PredictionInterval = restored.interval(x);
        if a != b {
            divergence += 1;
        }
        healed.observe(x, y);
        restored.observe(x, y);
    }
    let final_original = encode_checkpoint(&healed.checkpoint());
    let final_restored = encode_checkpoint(&restored.checkpoint());
    let roundtrip_identical = divergence == 0 && final_original == final_restored;
    assert!(roundtrip_identical, "restored replica diverged from the original");
    let _ = std::fs::remove_file(&path);
    rec.extra("checkpoint_bytes", checkpoint_bytes as f64);
    rec.extra("resume_divergence", divergence as f64);
    rec.extra("checkpoint_roundtrip_identical", 1.0);

    write_bench_summary(
        scale,
        healed_gate,
        serving_identical,
        roundtrip_identical,
        alarm_after,
        recovery_obs,
        &rec,
    );
    vec![rec]
}

/// Writes `BENCH_heal.json` in the working directory: the gate fields CI
/// greps plus the scalar metrics (including the recovery curve).
fn write_bench_summary(
    scale: &Scale,
    healed: bool,
    serving_identical: bool,
    roundtrip_identical: bool,
    alarm_after: u64,
    recovery_obs: usize,
    rec: &ExperimentRecord,
) {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"setting_rows\": {},\n", scale.rows));
    json.push_str(&format!("  \"healed\": {healed},\n"));
    json.push_str(&format!("  \"healing_serving_identical\": {serving_identical},\n"));
    json.push_str(&format!("  \"checkpoint_roundtrip_identical\": {roundtrip_identical},\n"));
    json.push_str(&format!("  \"drift_alarm_after_obs\": {alarm_after},\n"));
    json.push_str(&format!("  \"recovery_obs\": {recovery_obs},\n"));
    json.push_str(&format!("  \"recovery_budget\": {RECOVERY_BUDGET},\n"));
    json.push_str("  \"metrics\": {\n");
    let scalars: Vec<String> = rec
        .extras
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    json.push_str(&scalars.join(",\n"));
    json.push_str("\n  }\n}\n");
    std::fs::write("BENCH_heal.json", &json).expect("write BENCH_heal.json");
    println!("  [saved BENCH_heal.json]");
}
