//! Runs every experiment end-to-end at smoke scale and asserts the
//! paper-shape invariants each one exists to demonstrate.

use std::path::PathBuf;

use ce_bench::experiments::run_experiment;
use ce_bench::{ExperimentRecord, Scale};

fn results_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("ce_bench_smoke_results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn run(id: &str) -> Vec<ExperimentRecord> {
    run_experiment(id, &Scale::smoke(), &results_dir())
}

fn extra(rec: &ExperimentRecord, name: &str) -> f64 {
    rec.extras
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing extra {name}"))
        .1
}

#[test]
fn fig1_all_methods_cover_reasonably() {
    let recs = run("fig1");
    assert_eq!(recs.len(), 1);
    let rows = &recs[0].rows;
    assert_eq!(rows.len(), 10, "3 models x methods");
    for r in rows {
        assert!(
            r.coverage >= 0.78,
            "{} on {} coverage {}",
            r.method,
            r.group,
            r.coverage
        );
        assert!(r.mean_width > 0.0 && r.mean_width <= 1.0);
    }
}

#[test]
fn fig2_covers_three_datasets() {
    let recs = run("fig2");
    let groups: std::collections::HashSet<_> =
        recs[0].rows.iter().map(|r| r.group.clone()).collect();
    assert_eq!(groups.len(), 3);
    for r in &recs[0].rows {
        assert!(r.coverage >= 0.75, "{}: {}", r.group, r.coverage);
    }
}

#[test]
fn fig3_and_fig4_join_workloads_cover() {
    for id in ["fig3", "fig4"] {
        let recs = run(id);
        assert_eq!(recs[0].rows.len(), 4);
        for r in &recs[0].rows {
            assert!(r.coverage >= 0.75, "{id} {} coverage {}", r.method, r.coverage);
        }
    }
}

#[test]
fn fig5_high_selectivity_keeps_coverage() {
    let recs = run("fig5");
    for r in &recs[0].rows {
        assert!(r.coverage >= 0.72, "{} coverage {}", r.method, r.coverage);
    }
    assert!(extra(&recs[0], "mean_test_selectivity") >= 0.1);
}

#[test]
fn fig6_q_error_scoring_tightens_median_width() {
    let recs = run("fig6");
    let med = |group: &str, method: &str| {
        recs[0]
            .rows
            .iter()
            .find(|r| r.group.contains(group) && r.method == method)
            .map(|r| r.median_width)
            .expect("row present")
    };
    assert!(
        med("q-error", "S-CP") < med("residual", "S-CP"),
        "q-error scoring should tighten S-CP"
    );
}

#[test]
fn fig7_relative_scoring_runs_and_covers() {
    let recs = run("fig7");
    for r in &recs[0].rows {
        assert!(r.coverage >= 0.75, "{} {}", r.group, r.coverage);
    }
}

#[test]
fn fig8_online_calibration_tightens() {
    let recs = run("fig8");
    let widths: Vec<f64> = recs[0]
        .extras
        .iter()
        .filter(|(n, _)| n.starts_with("mean_width_after"))
        .map(|&(_, v)| v)
        .collect();
    assert!(widths.len() >= 3);
    assert!(
        widths.last().unwrap() < widths.first().unwrap(),
        "online calibration should tighten: {widths:?}"
    );
    assert!(extra(&recs[0], "final_coverage") >= 0.8);
}

#[test]
fn fig9_width_grows_with_coverage_level() {
    let recs = run("fig9");
    let rows = &recs[0].rows;
    assert_eq!(rows.len(), 3);
    // coverage=0.90, 0.95, 0.99 in order; widths must be non-decreasing.
    assert!(rows[0].mean_width <= rows[1].mean_width * 1.05);
    assert!(rows[1].mean_width <= rows[2].mean_width * 1.05);
}

#[test]
fn fig10_exchangeable_covers_fig11_drifted_fails() {
    let good = run("fig10");
    for r in &good[0].rows {
        assert!(r.coverage >= 0.8, "exchangeable {} {}", r.method, r.coverage);
    }
    assert!(extra(&good[0], "martingale_detects_shift_at_1e4") == 0.0);

    let bad = run("fig11");
    let scp = bad[0].rows.iter().find(|r| r.method == "S-CP").unwrap();
    assert!(
        scp.coverage < 0.5,
        "drifted coverage should collapse, got {}",
        scp.coverage
    );
    assert!(extra(&bad[0], "martingale_detects_shift_at_1e4") == 1.0);
}

#[test]
fn fig12_larger_training_fraction_tightens() {
    let recs = run("fig12");
    let rows = &recs[0].rows;
    assert_eq!(rows.len(), 3);
    assert!(
        rows[2].mean_width < rows[0].mean_width,
        "75% training should beat 25%: {} vs {}",
        rows[2].mean_width,
        rows[0].mean_width
    );
}

#[test]
fn fig13_and_fig14_more_epochs_tighten() {
    for id in ["fig13", "fig14"] {
        let recs = run(id);
        let rows = &recs[0].rows;
        assert_eq!(rows.len(), 3);
        assert!(
            rows[2].mean_width <= rows[0].mean_width * 1.05,
            "{id}: full training {} vs half {}",
            rows[2].mean_width,
            rows[0].mean_width
        );
        for r in rows {
            assert!(r.coverage >= 0.8, "{id} {} coverage {}", r.group, r.coverage);
        }
    }
}

#[test]
fn tab1_pi_injection_improves_tail_and_cost() {
    let recs = run("tab1");
    let rec = &recs[0];
    assert!(
        extra(rec, "postgres_pi_qerr_p90") < extra(rec, "postgres_qerr_p90"),
        "PI should cut the P90 q-error tail"
    );
    assert!(
        extra(rec, "total_true_cost_with_pi")
            <= extra(rec, "total_true_cost_plain") * 1.01,
        "PI plans should not cost more"
    );
    assert!(extra(rec, "runtime_reduction_percent") > 0.0);
    // Perfect oracle lower-bounds both arms.
    assert!(
        extra(rec, "total_true_cost_perfect_oracle")
            <= extra(rec, "total_true_cost_with_pi") * 1.001
    );
}

#[test]
fn guide_reports_width_ratios() {
    let recs = run("guide");
    let rec = &recs[0];
    assert_eq!(rec.rows.len(), 4);
    let ratio = extra(rec, "width_ratio_vs_scp/JK-CV+");
    assert!(ratio > 0.4 && ratio < 1.3, "JK-CV+/S-CP ratio {ratio}");
    assert!((extra(rec, "width_ratio_vs_scp/S-CP") - 1.0).abs() < 1e-9);
}

#[test]
fn ablation_runs_all_four_studies() {
    let recs = run("ablation");
    let rec = &recs[0];
    assert!(rec.rows.iter().any(|r| r.group == "jk-variants" && r.method == "CV+"));
    assert!(rec.rows.iter().any(|r| r.group == "difficulty/ensemble"));
    assert!(rec.rows.iter().any(|r| r.group.starts_with("naru-samples")));
    assert!(extra(rec, "count_naive_scan_secs") > 0.0);
    assert!(extra(rec, "count_bitmap_index_secs") > 0.0);
    assert!(extra(rec, "count_star_join_secs") > 0.0);
    // More sampling budget should not worsen Naru's geo q-error much.
    let q8 = extra(rec, "naru_geo_qerror_samples_8");
    let q128 = extra(rec, "naru_geo_qerror_samples_128");
    assert!(q128 <= q8 * 1.1, "samples=128 {q128} vs samples=8 {q8}");
}

#[test]
fn ext_future_work_methods_cover_and_adapt() {
    let recs = run("ext");
    let rec = &recs[0];
    assert!(rec.rows.len() >= 5, "S-CP + 2 LCP + Mondrian + Asym");
    for r in &rec.rows {
        assert!(r.coverage >= 0.75, "{} coverage {}", r.method, r.coverage);
    }
    // LCP-200 with k near the calibration size recovers S-CP behaviour.
    let scp = rec.rows.iter().find(|r| r.method == "S-CP").unwrap();
    let lcp200 = rec.rows.iter().find(|r| r.method == "LCP-200").unwrap();
    assert!((lcp200.mean_width - scp.mean_width).abs() / scp.mean_width < 0.25);
    assert!(extra(rec, "mondrian_classes") >= 1.0);
}

#[test]
fn clt_undercovers_where_conformal_recovers() {
    let recs = run("clt");
    let rec = &recs[0];
    for group in ["sample=25", "sample=250"] {
        let clt = rec
            .rows
            .iter()
            .find(|r| r.group == group && r.method == "CLT")
            .unwrap_or_else(|| panic!("missing CLT row for {group}"));
        let scp = rec
            .rows
            .iter()
            .find(|r| r.group == group && r.method == "S-CP")
            .unwrap();
        assert!(
            scp.coverage > clt.coverage,
            "{group}: conformal {} must beat CLT {}",
            scp.coverage,
            clt.coverage
        );
        assert!(scp.coverage >= 0.8, "{group}: conformal coverage {}", scp.coverage);
    }
}

#[test]
fn zoo_width_tracks_accuracy() {
    let recs = run("zoo");
    let rec = &recs[0];
    assert!(rec.rows.len() >= 6);
    for r in &rec.rows {
        assert!(r.coverage >= 0.75, "{} coverage {}", r.group, r.coverage);
    }
    // The paper's claim: PI width tracks model accuracy. Check rank
    // correlation between geo q-error and S-CP width across the zoo.
    let mut pairs: Vec<(f64, f64)> = rec
        .rows
        .iter()
        .map(|r| (extra(rec, &format!("qerr_geo/{}", r.group)), r.mean_width))
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let n = pairs.len();
    let mut concordant = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            total += 1;
            if pairs[j].1 >= pairs[i].1 {
                concordant += 1;
            }
        }
    }
    assert!(
        concordant as f64 / total as f64 >= 0.6,
        "width should track accuracy: {concordant}/{total} concordant"
    );
}

#[test]
fn resil_serves_through_chaos_within_acceptance() {
    let recs = run("resil");
    let rec = &recs[0];
    // Completing the run at all is the zero-process-panic guarantee; the
    // experiment records it explicitly too.
    assert_eq!(extra(rec, "process_panics"), 0.0);
    assert!(extra(rec, "stream_len") >= 1000.0);
    // Chaos was really injected and really isolated.
    assert!(extra(rec, "chaos/panics_caught") > 0.0, "no panics were injected");
    assert!(extra(rec, "chaos/estimator_failures") > 0.0, "no NaNs were injected");
    assert!(extra(rec, "chaos/fallback_rate") > 0.1, "fallbacks never engaged");
    // Acceptance: >= 99% of queries answered, coverage within 5 points of
    // the fault-free chain.
    assert!(
        extra(rec, "chaos/answer_rate") >= 0.99,
        "answer rate {}",
        extra(rec, "chaos/answer_rate")
    );
    assert!(
        extra(rec, "coverage_gap").abs() <= 0.05,
        "coverage gap {}",
        extra(rec, "coverage_gap")
    );
    // Sanitization refused both malformed probes.
    assert_eq!(extra(rec, "rejected_probes"), 2.0);
    // The prequential regime may only get *more* conservative: NaN
    // observations become infinite scores, never lost coverage.
    let cov = |method: &str| {
        rec.rows
            .iter()
            .find(|r| r.method == method)
            .unwrap_or_else(|| panic!("missing row {method}"))
            .coverage
    };
    assert!(cov("chaos-online") >= cov("fault-free") - 0.05);
    for r in &rec.rows {
        assert!(r.coverage >= 0.8, "{} coverage {}", r.method, r.coverage);
    }
}
