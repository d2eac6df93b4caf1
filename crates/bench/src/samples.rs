//! Wall-time samples of the timed experiments (`perf`, `obs`): a
//! process-wide registry, label → nanosecond samples, exported into their
//! `BENCH_*.json` summaries as `samples_ns`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Label → samples in nanoseconds; a `BTreeMap` keeps the export order
/// stable across runs.
static SAMPLES: Mutex<BTreeMap<String, Vec<u128>>> = Mutex::new(BTreeMap::new());

/// Records one wall-time sample (in nanoseconds) under `label`.
fn record_sample(label: &str, elapsed_ns: u128) {
    SAMPLES
        .lock()
        .expect("sample registry poisoned")
        .entry(label.to_string())
        .or_default()
        .push(elapsed_ns);
}

/// Best-of-`reps` wall-clock seconds for `f`, recording every sample under
/// `label`. Returns the last result and the fastest time (the standard
/// noise-robust estimator for short benches).
pub fn best_of<R>(label: &str, reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let (r, secs) = timed(label, &mut f);
        best = best.min(secs);
        out = Some(r);
    }
    (out.expect("reps must be positive"), best)
}

/// Runs `pass` again and again until at least `min_secs` of wall time have
/// passed, records the mean time per pass under `label`, and returns the
/// last pass's result and that mean in seconds. A sample sized by time
/// stays as long when `pass` gets faster, so scheduler noise does not grow
/// into a larger share of it.
pub fn timed_per_pass<R>(label: &str, min_secs: f64, mut pass: impl FnMut() -> R) -> (R, f64) {
    let start = Instant::now();
    let mut passes = 0u32;
    loop {
        let r = black_box(pass());
        passes += 1;
        let secs = start.elapsed().as_secs_f64();
        if secs >= min_secs {
            let per_pass = secs / f64::from(passes);
            record_sample(label, (per_pass * 1e9) as u128);
            return (r, per_pass);
        }
    }
}

/// Runs `f` once, records its wall time under `label` and returns its
/// result and the time in seconds.
pub fn timed<R>(label: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = black_box(f());
    let elapsed = start.elapsed();
    record_sample(label, elapsed.as_nanos());
    (r, elapsed.as_secs_f64())
}

/// The registry as the `samples_ns` member of a two-space-indented JSON
/// object: `  "samples_ns": {"label": [ns, ...], ...}`, one label a line,
/// without a trailing newline.
pub fn samples_member() -> String {
    let snapshot = SAMPLES.lock().expect("sample registry poisoned");
    let rows: Vec<String> = snapshot
        .iter()
        .map(|(label, ns)| {
            let ns: Vec<String> = ns.iter().map(u128::to_string).collect();
            format!("    {}: [{}]", json_string(label), ns.join(", "))
        })
        .collect();
    format!("  \"samples_ns\": {{\n{}\n  }}", rows.join(",\n"))
}

/// `s` as a JSON string literal; labels only need quotes and backslashes
/// escaped.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_export_as_an_indented_json_member() {
        record_sample("samples-test/a", 5);
        record_sample("samples-test/a", 7);
        record_sample("samples-test/\"q\"", 1);
        let (r, secs) = best_of("samples-test/best", 2, || 3);
        assert_eq!(r, 3);
        assert!(secs >= 0.0);
        let member = samples_member();
        assert!(member.starts_with("  \"samples_ns\": {\n"), "{member}");
        assert!(member.ends_with("\n  }"), "{member}");
        assert!(member.contains("    \"samples-test/a\": [5, 7]"), "{member}");
        assert!(member.contains("    \"samples-test/\\\"q\\\"\": [1]"), "{member}");
        let json = format!("{{\n{member}\n}}");
        let parsed = serde_json::parse(&json).expect("valid JSON");
        let best = parsed.field("samples_ns").and_then(|s| s.field("samples-test/best"));
        assert!(matches!(best, Ok(serde_json::Value::Array(v)) if v.len() == 2), "{json}");
    }
}
