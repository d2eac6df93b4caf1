//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. A
//! host stamp (core count, SIMD features, git revision, steal share of each
//! timed window) is printed on the line before it. Progress goes to
//! standard error.
//!
//! A timed run (`--trace 0`) measures in [`servebench::CHILDREN`] child
//! processes of this binary, one after another, each given `--single 1`
//! and an equal share of `--seconds`, and combines their results; a traced
//! run measures in this process.

use std::process::{Command, ExitCode, Stdio};

use servebench::fixture::Scale;
use servebench::{host, Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    single: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut single = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--single" => single = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        single,
    })
}

/// Runs the timed workload in [`servebench::CHILDREN`] child processes, one
/// at a time, and combines what they report.
fn run_children(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let share = args.seconds / servebench::CHILDREN as f64;
    let mut children = Vec::with_capacity(servebench::CHILDREN);
    for k in 0..servebench::CHILDREN {
        let output = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--seconds",
                &share.to_string(),
                "--trace",
                "0",
                "--single",
                "1",
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting child {k}: {e}"))?;
        if !output.status.success() {
            return Err(format!("child {k} failed: {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        let result = lines.next().ok_or(format!("child {k} printed nothing"))?;
        let mut child = Outcome::from_json(result)?;
        child.steal_shares = lines.next().map(steal_shares).unwrap_or_default();
        eprintln!(
            "  child {k}: steal share {:?}; {result}",
            child.steal_shares
        );
        children.push(child);
    }
    eprintln!(
        "  timing metrics from children {:?} (steal share at most {}, or the {} lowest)",
        servebench::calm_children(&children),
        servebench::CALM_STEAL,
        servebench::CALM_MIN
    );
    Ok(servebench::combine(&children))
}

/// The steal shares listed in a host-stamp line.
fn steal_shares(stamp: &str) -> Vec<f64> {
    let Ok(value) = serde_json::parse(stamp) else {
        return Vec::new();
    };
    match value.field("host").and_then(|h| h.field("steal_share")) {
        Ok(serde_json::Value::Array(shares)) => shares
            .iter()
            .filter_map(|v| {
                if let serde_json::Value::Num(n) = v {
                    Some(*n)
                } else {
                    None
                }
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <point|bulk|feedback|routed-hot> --seed <n> \
                 --seconds <s> --trace <0|1> [--single 1]"
            );
            return ExitCode::from(2);
        }
    };
    // A pinned thread count measures a different program: the default path
    // resolves the count on every parallel call, and that cost is part of
    // what is measured.
    if let Some(v) = std::env::var_os("CE_PARALLEL_THREADS") {
        eprintln!(
            "servebench: CE_PARALLEL_THREADS is set ({}); refusing to report numbers for a \
             pinned thread count",
            v.to_string_lossy()
        );
        return ExitCode::from(3);
    }
    eprintln!(
        "servebench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace || args.single {
        servebench::run(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &Scale::STANDARD,
        )
    } else {
        match run_children(&args) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("servebench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let steal: Vec<String> = outcome
        .steal_shares
        .iter()
        .map(|s| format!("{s}"))
        .collect();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"simd\": [{}], \"git_rev\": \"{}\", \
         \"ce_parallel_threads_env\": false, \"steal_share\": [{}]}}}}",
        host::nproc(),
        host::simd_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        host::git_rev(std::path::Path::new(".")),
        steal.join(", ")
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
