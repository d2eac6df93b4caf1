//! `servebench`: the serving benchmark for cardest.
//!
//! Four workloads drive the program as shipped — `point`, `bulk`,
//! `feedback` and `routed-hot` (README.md says why each exists) — with a
//! fixed, seeded request sequence over one closed-loop connection, check
//! every served interval, and report end-to-end metrics. A traced run
//! (`--trace 1`) instead times each layer's public functions from outside
//! and reports the per-layer ladder.

pub mod alloc;
pub mod bodies;
pub mod fixture;
pub mod host;
pub mod ladder;
pub mod stats;
pub mod workloads;

use fixture::Scale;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-query truth-free HTTP predicts against `start_server`.
    Point,
    /// 256-query in-process `ServeEngine::predict_batch` calls.
    Bulk,
    /// Like `point`, with every fourth request carrying its truths.
    Feedback,
    /// 8-query predicts from a hot set through a router to a caching shard.
    RoutedHot,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Point,
        Workload::Bulk,
        Workload::Feedback,
        Workload::RoutedHot,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Bulk => "bulk",
            Workload::Feedback => "feedback",
            Workload::RoutedHot => "routed-hot",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// What one run found: the correctness verdict, request counts, metrics,
/// and the host's steal share in each timed window.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests (calls, for `bulk`) attempted in the timed window.
    pub attempted: u64,
    /// Attempted requests that failed or answered wrongly.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Host steal share of each timed window.
    pub steal_shares: Vec<f64>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// A non-finite value cannot travel as a JSON number; it is written as
    /// `null` and the run is marked incorrect.
    pub fn to_json(&self) -> String {
        let all_finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && all_finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a result line written by [`Outcome::to_json`] (steal shares
    /// are not part of it and come back empty).
    pub fn from_json(line: &str) -> Result<Outcome, String> {
        use serde_json::Value;
        let value = serde_json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let field = |name: &str| value.field(name).map_err(|e| e.to_string());
        let count = |name: &str| match field(name)? {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("{name} is not a count: {other:?}")),
        };
        let Value::Bool(correct) = field("correct")? else {
            return Err("correct is not a boolean".to_string());
        };
        let Value::Object(entries) = field("metrics")? else {
            return Err("metrics is not an object".to_string());
        };
        let mut out = Outcome {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            ..Outcome::default()
        };
        for (name, metric) in entries {
            let value = match metric.field("value").map_err(|e| e.to_string())? {
                Value::Num(v) => *v,
                Value::Null => f64::NAN,
                other => return Err(format!("{name}: value {other:?}")),
            };
            let Value::Str(unit) = metric.field("unit").map_err(|e| e.to_string())? else {
                return Err(format!("{name}: unit is not a string"));
            };
            out.push(name, value, unit);
        }
        Ok(out)
    }
}

/// Timed runs are split across this many child processes run one after
/// another, each measuring an equal share of `--seconds`. On a small shared
/// VM the host's speed shifts for seconds at a time; many short processes
/// spread over the run, each setting up anew, sample more host states and
/// more thread placements than one long process would.
pub const CHILDREN: usize = 9;

/// A child whose timed window lost at most this share of CPU time to the
/// hypervisor (steal) is calm. Steal is the host running other guests on
/// this guest's CPUs; a window that lost much of it measures the
/// neighbours, not the program.
pub const CALM_STEAL: f64 = 0.10;

/// Timing metrics always come from at least this many children: a
/// majority, so a slow program cannot hide behind a few lucky children.
pub const CALM_MIN: usize = 5;

/// The children [`combine`] takes timing metrics from: every calm child
/// (see [`CALM_STEAL`]) or, when fewer than [`CALM_MIN`] are calm, the
/// [`CALM_MIN`] with the lowest steal share, earlier children first among
/// equals. A child that reported no steal share counts as calm.
pub fn calm_children(children: &[Outcome]) -> Vec<usize> {
    let steal = |c: &Outcome| c.steal_shares.first().copied().unwrap_or(0.0);
    let mut order: Vec<usize> = (0..children.len()).collect();
    order.sort_by(|&a, &b| steal(&children[a]).total_cmp(&steal(&children[b])));
    let calm = order
        .iter()
        .filter(|&&k| steal(&children[k]) <= CALM_STEAL)
        .count();
    order.truncate(calm.max(CALM_MIN));
    order.sort_unstable();
    order
}

/// Combines the outcomes of a run's child processes: counts add up,
/// `coverage` and `mean_width` must agree bit for bit across all children
/// (every child serves the same fixed sequence), `ok_ratio` is recomputed
/// from the summed counts, `setup_s` is the median of all the children's
/// set-ups, and every other metric is the interquartile mean over the
/// [`calm_children`]. Children met in a fast and in a slow host state fall
/// into two clusters; the median of such a sample jumps from one cluster
/// to the other between runs, while the interquartile mean moves with the
/// share of each and still drops an outlier.
pub fn combine(children: &[Outcome]) -> Outcome {
    let mut out = Outcome {
        correct: !children.is_empty() && children.iter().all(|c| c.correct),
        attempted: children.iter().map(|c| c.attempted).sum(),
        failed: children.iter().map(|c| c.failed).sum(),
        metrics: Vec::new(),
        steal_shares: children
            .iter()
            .flat_map(|c| c.steal_shares.iter().copied())
            .collect(),
    };
    let Some(first) = children.first() else {
        return out;
    };
    let calm = calm_children(children);
    for (i, m) in first.metrics.iter().enumerate() {
        let values: Vec<f64> = children
            .iter()
            .map(|c| {
                c.metrics
                    .get(i)
                    .filter(|n| n.name == m.name)
                    .map_or(f64::NAN, |n| n.value)
            })
            .collect();
        let value = match m.name.as_str() {
            "coverage" | "mean_width" => {
                out.correct &= values.iter().all(|v| v.to_bits() == values[0].to_bits());
                values[0]
            }
            "ok_ratio" => (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
            _ if values.iter().any(|v| v.is_nan()) => f64::NAN,
            "setup_s" => stats::median(&values),
            _ => stats::interquartile_mean(&calm.iter().map(|&k| values[k]).collect::<Vec<_>>()),
        };
        out.push(&m.name, value, &m.unit);
    }
    out
}

/// Runs one workload, timed (`trace == false`) or traced.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Outcome {
    if trace {
        ladder::run(workload, seed, seconds, scale)
    } else {
        workloads::run(workload, seed, seconds, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(p50: f64, coverage: f64, failed: u64) -> Outcome {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed,
            ..Outcome::default()
        };
        o.push("p50_us", p50, "us");
        o.push("ok_ratio", 1.0, "ratio");
        o.push("coverage", coverage, "ratio");
        o
    }

    #[test]
    fn result_line_round_trips() {
        let o = outcome(12.5, 0.9, 1);
        let back = Outcome::from_json(&o.to_json()).unwrap();
        assert_eq!(back.to_json(), o.to_json());
        assert_eq!((back.attempted, back.failed), (10, 1));
        assert!(Outcome::from_json("{\"correct\": 1}").is_err());
    }

    #[test]
    fn combine_averages_the_middle_and_sums_counts() {
        let children: Vec<Outcome> = [10.0, 1000.0, 14.0, 11.0, 0.5]
            .iter()
            .map(|&p| {
                let mut o = outcome(p, 0.9, 0);
                o.push("setup_s", p, "s");
                o
            })
            .collect();
        let c = combine(&children);
        assert!(c.correct);
        assert_eq!(c.attempted, 50);
        assert_eq!(c.metrics[0].value, 35.0 / 3.0, "interquartile mean of five");
        assert_eq!(c.metrics[1].value, 1.0);
        assert_eq!(c.metrics[2].value, 0.9);
        assert_eq!(c.metrics[3].value, 11.0, "set-up is the median");
    }

    #[test]
    fn combine_times_the_calm_majority_and_checks_every_child() {
        // (p50, steal share): the four children that lost the most to
        // steal are slow, and only they are.
        let runs = [
            (20.0, 0.0),
            (90.0, 0.40),
            (21.0, 0.01),
            (95.0, 0.30),
            (19.0, 0.02),
            (80.0, 0.35),
            (22.0, 0.0),
            (85.0, 0.20),
            (18.0, 0.05),
        ];
        let mut children: Vec<Outcome> = runs
            .iter()
            .map(|&(p50, steal)| {
                let mut o = outcome(p50, 0.9, 0);
                o.push("setup_s", p50, "s");
                o.steal_shares = vec![steal];
                o
            })
            .collect();
        assert_eq!(calm_children(&children), vec![0, 2, 4, 6, 8]);
        let mut quiet = children.clone();
        for c in &mut quiet {
            c.steal_shares = vec![0.01];
        }
        quiet[5].steal_shares = vec![0.12];
        assert_eq!(calm_children(&quiet), vec![0, 1, 2, 3, 4, 6, 7, 8]);
        quiet[5].steal_shares.clear();
        assert_eq!(
            calm_children(&quiet).len(),
            9,
            "no steal figure counts as calm"
        );
        let c = combine(&children);
        assert!(c.correct);
        assert_eq!(
            c.metrics[0].value, 20.0,
            "interquartile mean of the calm five"
        );
        assert_eq!(c.metrics[3].value, 22.0, "set-up is the median of all nine");
        assert_eq!(c.steal_shares.len(), 9);
        children[1] = outcome(90.0, 0.91, 0);
        children[1].steal_shares = vec![0.4];
        assert!(
            !combine(&children).correct,
            "a stolen child is still checked"
        );
    }

    #[test]
    fn combine_flags_disagreeing_quality_and_failures() {
        let mut children: Vec<Outcome> = (0..5).map(|_| outcome(10.0, 0.9, 0)).collect();
        children[3] = outcome(10.0, 0.9000001, 0);
        assert!(
            !combine(&children).correct,
            "children serve the same sequence"
        );
        children[3] = outcome(10.0, 0.9, 5);
        let c = combine(&children);
        assert_eq!(c.failed, 5);
        assert_eq!(c.metrics[1].value, 45.0 / 50.0);
        assert!(!combine(&[]).correct);
    }
}
