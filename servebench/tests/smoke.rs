//! A tiny-length run of every workload, timed and traced: the checks must
//! pass and every metric named in `BENCHMARK.json` must be reported.

use servebench::fixture::Scale;
use servebench::{run, Workload};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"name"` values of one top-level list of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let text = benchmark_json();
    let value = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let serde_json::Value::Array(items) = value.field(section).expect("section present") else {
        panic!("{section} is a list");
    };
    items
        .iter()
        .map(
            |item| match item.field("name").expect("every entry is named") {
                serde_json::Value::Str(name) => name.clone(),
                other => panic!("name is a string, got {other:?}"),
            },
        )
        .collect()
}

fn assert_reports(outcome: &servebench::Outcome, wanted: &[String]) {
    let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    for name in wanted {
        assert!(
            got.contains(&name.as_str()),
            "metric {name} missing from {got:?}"
        );
    }
    assert_eq!(
        got.len(),
        wanted.len(),
        "exactly the listed metrics: {got:?}"
    );
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_runs_correctly_at_tiny_length() {
    let end_to_end = names("end_to_end");
    for name in names("workloads") {
        assert!(Workload::parse(&name).is_some(), "listed {name} exists");
    }
    for w in Workload::ALL {
        let outcome = run(w, 5, 0.01, false, &Scale::TINY);
        assert!(outcome.correct, "{}: {}", w.name(), outcome.to_json());
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted >= 16);
        assert_reports(&outcome, &end_to_end);
    }
}

#[test]
fn quality_repeats_bit_for_bit() {
    for w in [Workload::Feedback, Workload::Point] {
        let a = run(w, 9, 0.02, false, &Scale::TINY);
        let b = run(w, 9, 0.02, false, &Scale::TINY);
        for name in ["coverage", "mean_width"] {
            let pick = |o: &servebench::Outcome| {
                o.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .expect("reported")
                    .value
                    .to_bits()
            };
            assert_eq!(pick(&a), pick(&b), "{} {name}", w.name());
        }
    }
}

#[test]
fn traced_run_reports_every_layer_metric() {
    let per_layer = names("per_layer");
    let outcome = run(Workload::Point, 3, 0.01, true, &Scale::TINY);
    assert!(outcome.correct, "{}", outcome.to_json());
    let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    for name in &per_layer {
        assert!(got.contains(&name.as_str()), "metric {name} missing");
    }
    assert_eq!(
        got.len(),
        per_layer.len(),
        "exactly the listed metrics: {got:?}"
    );
}

#[test]
fn result_line_has_the_four_keys() {
    let outcome = run(Workload::Bulk, 2, 0.01, false, &Scale::TINY);
    let line = outcome.to_json();
    let value = serde_json::parse(&line).expect("the result line is JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(value.field(key).is_ok(), "{key} in {line}");
    }
}

#[test]
fn binary_combines_children_and_refuses_pinned_threads() {
    let exe = env!("CARGO_BIN_EXE_servebench");
    let args = [
        "--workload",
        "point",
        "--seed",
        "4",
        "--seconds",
        "0.5",
        "--trace",
        "0",
    ];
    let pinned = std::process::Command::new(exe)
        .args(args)
        .env("CE_PARALLEL_THREADS", "2")
        .output()
        .expect("run the benchmark");
    assert_eq!(pinned.status.code(), Some(3));
    assert!(
        pinned.stdout.is_empty(),
        "no numbers for a pinned thread count"
    );

    let out = std::process::Command::new(exe)
        .args(args)
        .env_remove("CE_PARALLEL_THREADS")
        .output()
        .expect("run the benchmark");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let outcome = servebench::Outcome::from_json(stdout.lines().last().expect("a result line"))
        .expect("the result line parses");
    assert!(outcome.correct, "{stdout}");
    let share = 0.5 / servebench::CHILDREN as f64;
    let per_child = servebench::workloads::request_count(Workload::Point, share) as u64;
    assert_eq!(outcome.attempted, per_child * servebench::CHILDREN as u64);
    assert_reports(&outcome, &names("end_to_end"));
}
