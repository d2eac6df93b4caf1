//! `cardest-cli` — an interactive demo of prediction intervals over learned
//! cardinality estimation.
//!
//! ```text
//! cargo run --release --bin cardest-cli -- --dataset dmv --rows 20000 --model mscn
//! ```
//!
//! Builds the dataset, trains the chosen model, calibrates split conformal
//! and locally weighted conformal wrappers, then reads textual queries from
//! stdin (`make = 3 AND unladen_weight in 10..40`) and answers each with the
//! exact count, the model estimate, and both prediction intervals.
//!
//! The `stats` subcommand instead serves a fault-injected stream through a
//! [`ResilientService`] fallback chain with telemetry enabled, then dumps
//! resilience counters, per-position breaker states, the bounded
//! `last_errors` ring buffer, the self-healing layer's remediation history
//! (last alarm, last recalibration outcome, rollback count), and the metrics
//! registry:
//!
//! ```text
//! cargo run --release --bin cardest-cli -- stats --format text
//! cargo run --release --bin cardest-cli -- stats --format prom
//! ```
//!
//! The `serve` subcommand runs the [`SelfHealingService`] as an HTTP server
//! (`--listen`, default `127.0.0.1:8080`) with periodic durable checkpoints.
//! `SIGTERM` / `SIGINT` drain it gracefully (final checkpoint, then summary),
//! and `--resume` restores from the checkpoint file so a killed server picks
//! up bit-for-bit where it left off:
//!
//! ```text
//! cargo run --release --bin cardest-cli -- serve --listen 127.0.0.1:8080 --checkpoint-every 200
//! cargo run --release --bin cardest-cli -- serve --listen 127.0.0.1:8080 --resume
//! ```
//!
//! `route` fronts a fleet of `serve` shards with a consistent-hash router and
//! `trace` pretty-prints a running server's flight recorder. Each command's
//! flags live in one table ([`Command`]) that drives both the parser and the
//! `--help` synopsis.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cardest::conformal::{
    install_quiet_chaos_hook, read_checkpoint, write_checkpoint, AbsoluteResidual, BreakerState,
    ChaosConfig, ChaosRegressor, HealConfig, HealEvent, HealState, OnlineConformal, PiEstimator,
    PiServiceConfig, PredictionInterval, Regressor, ResilientService, ScoreFunction,
    SelfHealingService,
};
use cardest::estimators::{AviModel, SamplingEstimator};
use cardest::pipeline::{
    run_locally_weighted, run_split_conformal, train_lwnn, train_mscn, train_naru,
    ScoreKind, SingleTableBench, SplitSpec,
};
use cardest::query::{parse_query, GeneratorConfig};
use cardest::serve::{HttpServeConfig, ServeEngine};
use ce_telemetry::{trace::TRANSPORT_STAGES, MetricValue};

/// One command-line flag: its name, the placeholder for its value (`None`
/// for a switch, which takes no value) and how the value lands in the
/// options struct. An `Err` from `set` reads after the flag's name.
struct Flag<T> {
    name: &'static str,
    metavar: Option<&'static str>,
    set: fn(&mut T, &str) -> Result<(), String>,
}

impl<T> Flag<T> {
    /// A flag followed by a value, shown as `METAVAR` in the synopsis.
    const fn valued(
        name: &'static str,
        metavar: &'static str,
        set: fn(&mut T, &str) -> Result<(), String>,
    ) -> Self {
        Flag { name, metavar: Some(metavar), set }
    }

    /// A switch: `set` sees an empty value.
    const fn switch(name: &'static str, set: fn(&mut T, &str) -> Result<(), String>) -> Self {
        Flag { name, metavar: None, set }
    }
}

/// The `--dataset` metavar of every command that builds a table.
const DATASETS: &str = "dmv|census|forest|power";

/// A command: its word after `cardest-cli` (empty for the interactive
/// mode), its flag table, the prose of its `--help`, and the checks that
/// span several flags. The parser and the usage text both read the table,
/// so the flag list lives in one place.
struct Command<T: 'static> {
    name: &'static str,
    flags: &'static [Flag<T>],
    about: &'static str,
    check: fn(&T) -> Result<(), String>,
}

/// What a command line asks for: print the usage, or run.
#[derive(Debug)]
enum Args<T> {
    Help,
    Run(T),
}

/// Parses a flag value; the error message reads after the flag's name.
fn value<V: std::str::FromStr>(raw: &str) -> Result<V, String> {
    raw.parse().map_err(|_| format!("takes a number, got `{raw}`"))
}

impl<T: Default> Command<T> {
    /// The one argument parser. Every problem (unknown flag, missing or
    /// malformed value, failed check) is an `Err`, never a
    /// warning-and-continue, so a typo cannot silently drop an option.
    /// `--help`/`-h` stops parsing where it appears.
    fn parse(&self, args: &[String]) -> Result<Args<T>, String> {
        let mut opts = T::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(Args::Help);
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown flag {arg}"));
            };
            let raw = match flag.metavar {
                Some(_) => args.next().ok_or_else(|| format!("missing value for {arg}"))?,
                None => "",
            };
            (flag.set)(&mut opts, raw).map_err(|e| format!("{arg} {e}"))?;
        }
        (self.check)(&opts)?;
        Ok(Args::Run(opts))
    }

    /// `cardest-cli` followed by the command word, if any.
    fn invocation(&self) -> String {
        if self.name.is_empty() {
            "cardest-cli".to_string()
        } else {
            format!("cardest-cli {}", self.name)
        }
    }

    /// `cardest-cli NAME [--flag METAVAR] …`, rendered from the flag table.
    fn synopsis(&self) -> String {
        let mut line = self.invocation();
        for flag in self.flags {
            match flag.metavar {
                Some(metavar) => line.push_str(&format!(" [{} {metavar}]", flag.name)),
                None => line.push_str(&format!(" [{}]", flag.name)),
            }
        }
        line
    }

    /// The `--help` text. The interactive mode's is the program's help, so
    /// it lists every command line.
    fn usage(&self) -> String {
        let mut lines = vec![self.synopsis()];
        if self.name.is_empty() {
            lines.extend([STATS.synopsis(), SERVE.synopsis(), ROUTE.synopsis(), TRACE.synopsis()]);
        }
        format!("usage: {}\n\n{}", lines.join("\n       "), self.about)
    }

    /// Parses `args` or ends the process: `--help` prints the usage and
    /// exits 0, any error exits 2.
    fn options(&self, args: &[String]) -> T {
        match self.parse(args) {
            Ok(Args::Run(opts)) => opts,
            Ok(Args::Help) => {
                println!("{}", self.usage());
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("{msg} (try `{} --help`)", self.invocation());
                std::process::exit(2);
            }
        }
    }
}

/// Options for the interactive mode.
#[derive(Debug)]
struct Options {
    dataset: String,
    rows: usize,
    model: String,
    alpha: f64,
    queries: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            dataset: "dmv".into(),
            rows: 20_000,
            model: "mscn".into(),
            alpha: 0.1,
            queries: 2_000,
        }
    }
}

static INTERACTIVE: Command<Options> = Command {
    name: "",
    flags: &[
        Flag::valued("--dataset", DATASETS, |o, v| value(v).map(|v| o.dataset = v)),
        Flag::valued("--rows", "N", |o, v| value(v).map(|v| o.rows = v)),
        Flag::valued("--model", "mscn|lwnn|naru", |o, v| value(v).map(|v| o.model = v)),
        Flag::valued("--alpha", "A", |o, v| value(v).map(|v| o.alpha = v)),
        Flag::valued("--queries", "N", |o, v| value(v).map(|v| o.queries = v)),
    ],
    about: "Without a subcommand: trains the model, calibrates split and locally \
weighted conformal intervals, then answers queries read from stdin \
(`make = 3 AND unladen_weight in 10..40`) with the exact count, the estimate \
and the interval. `cardest-cli COMMAND --help` describes each subcommand.",
    check: |_| Ok(()),
};

/// Options for the `stats` subcommand.
#[derive(Debug)]
struct StatsOptions {
    dataset: String,
    rows: usize,
    queries: usize,
    stream: usize,
    format: String,
}

impl Default for StatsOptions {
    fn default() -> Self {
        Self {
            dataset: "dmv".into(),
            rows: 10_000,
            queries: 800,
            stream: 600,
            format: "text".into(),
        }
    }
}

static STATS: Command<StatsOptions> = Command {
    name: "stats",
    flags: &[
        Flag::valued("--dataset", DATASETS, |o, v| value(v).map(|v| o.dataset = v)),
        Flag::valued("--rows", "N", |o, v| value(v).map(|v| o.rows = v)),
        Flag::valued("--queries", "N", |o, v| value(v).map(|v| o.queries = v)),
        Flag::valued("--stream", "N", |o, v| value(v).map(|v| o.stream = v)),
        Flag::valued("--format", "text|json|prom", |o, v| value(v).map(|v| o.format = v)),
    ],
    about: "Serves a chaos-injected query stream (20% NaN, 5% panic primary) \
through the resilient fallback chain with telemetry enabled, then prints \
resilience stats, breaker states, recent errors, the self-healing remediation \
history and the metrics registry in the chosen format.",
    check: |o| match o.format.as_str() {
        "text" | "json" | "prom" => Ok(()),
        other => Err(format!("unknown --format `{other}` (text|json|prom)")),
    },
};

/// `cardest-cli stats`: build the MSCN→AVI→sampling fallback chain with a
/// chaos-wrapped primary, serve a prequential stream with telemetry on, and
/// dump the observability surface (resilience counters, breaker states,
/// bounded error ring, metrics registry).
fn run_stats(opts: StatsOptions) {
    let seed = 42;
    let alpha = 0.1;
    let Some(table) = cardest::datagen::by_name(&opts.dataset, opts.rows, seed) else {
        eprintln!("unknown dataset `{}` (dmv|census|forest|power)", opts.dataset);
        std::process::exit(2);
    };
    eprintln!(
        "stats: dataset {} ({} rows), {} labeled queries, stream {}",
        opts.dataset,
        table.n_rows(),
        opts.queries,
        opts.stream
    );
    let bench = SingleTableBench::prepare(
        table,
        opts.queries,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        seed,
    );
    let floor = 1.0 / bench.table.n_rows() as f64;

    eprintln!("training chain: chaos(mscn) -> avi -> sampling ...");
    install_quiet_chaos_hook();
    let mscn = train_mscn(&bench.feat, &bench.train, 10, seed);
    let heal_model = mscn.clone();
    let chaos = ChaosConfig {
        nan_rate: 0.2,
        panic_rate: 0.05,
        warmup_calls: bench.calib.len() as u64,
        seed,
        ..Default::default()
    };
    let primary: Box<dyn PiEstimator> = Box::new(OnlineConformal::new(
        ChaosRegressor::new(mscn, chaos),
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        alpha,
    ));
    let avi = AviModel::build(&bench.table, floor);
    let sampling =
        SamplingEstimator::build(&bench.table, (opts.rows / 100).max(50), seed + 7, floor);
    let mut service = ResilientService::new(primary)
        .with_fallback(Box::new(OnlineConformal::new(
            avi,
            AbsoluteResidual,
            &bench.calib.x,
            &bench.calib.y,
            alpha,
        )))
        .with_fallback(Box::new(OnlineConformal::new(
            sampling,
            AbsoluteResidual,
            &bench.calib.x,
            &bench.calib.y,
            alpha,
        )))
        .with_expected_dims(bench.test.x[0].len());

    ce_telemetry::set_enabled(true);
    eprintln!("serving {} queries prequentially under chaos ...", opts.stream);
    for qi in 0..opts.stream {
        let i = qi % bench.test.len();
        let x = &bench.test.x[i];
        let _iv = service
            .interval(x)
            .unwrap_or_else(|_| PredictionInterval::new(f64::NEG_INFINITY, f64::INFINITY));
        service.observe(x, bench.test.y[i]);
    }
    // Mirror the counters into the registry so every export format sees them.
    service.publish_telemetry();

    // Self-healing remediation demo: a calm warm-up, then a drifted phase
    // whose alarm drives the recalibration state machine. With telemetry
    // enabled the heal.* counters land in the registry, so the json/prom
    // exports carry the remediation surface too.
    eprintln!("streaming drift through the self-healing layer ...");
    let mut healing = SelfHealingService::new(
        heal_model,
        AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        PiServiceConfig { alpha, ..Default::default() },
        HealConfig { min_history: 60, cooldown_base: 100, ..Default::default() },
    );
    for qi in 0..opts.stream {
        let i = qi % bench.test.len();
        let drift = if qi >= opts.stream / 2 { 0.5 } else { 0.0 };
        healing.observe(&bench.test.x[i], bench.test.y[i] + drift);
    }

    match opts.format.as_str() {
        "json" => println!("{}", ce_telemetry::global().to_json()),
        "prom" => print!("{}", ce_telemetry::global().to_prometheus()),
        _ => {
            print_stats_text(&service);
            print_remediation_text(&healing);
        }
    }
    ce_telemetry::set_enabled(false);
}

/// Human-readable dump of the self-healing layer's remediation history.
fn print_remediation_text<M, S>(svc: &SelfHealingService<M, S>)
where
    M: Regressor,
    S: ScoreFunction,
{
    let state = match svc.state() {
        HealState::Healthy => "healthy",
        HealState::Recalibrating => "recalibrating",
        HealState::RolledBack => "rolled-back (cooldown)",
    };
    println!("\nself-healing remediation ({} observations)", svc.observations());
    println!("  state ............... {state}");
    println!("  promotions .......... {}", svc.promotion_count());
    println!("  rollbacks ........... {}", svc.rollback_count());
    match svc.last_alarm() {
        Some(HealEvent::AlarmReceived { at, coverage }) => {
            println!("  last alarm .......... obs {at} (rolling coverage {coverage:.3})");
        }
        _ => println!("  last alarm .......... none"),
    }
    match svc.last_outcome() {
        Some(HealEvent::Promoted { at, shadow_coverage, candidate_delta }) => println!(
            "  last outcome ........ promoted at obs {at} \
             (shadow coverage {shadow_coverage:.3}, delta {candidate_delta:.5})"
        ),
        Some(HealEvent::RolledBack { at, reason, shadow_coverage, cooldown_until }) => println!(
            "  last outcome ........ rolled back at obs {at} ({reason}, \
             shadow coverage {shadow_coverage:.3}, cooldown until obs {cooldown_until})"
        ),
        _ => println!("  last outcome ........ none"),
    }
    println!("  history ({} events, oldest first):", svc.history().len());
    for event in svc.history() {
        match event {
            HealEvent::AlarmReceived { at, coverage } => {
                println!("    obs {at}: alarm (coverage {coverage:.3})");
            }
            HealEvent::Promoted { at, shadow_coverage, .. } => {
                println!("    obs {at}: promoted (shadow coverage {shadow_coverage:.3})");
            }
            HealEvent::RolledBack { at, reason, .. } => {
                println!("    obs {at}: rolled back ({reason})");
            }
        }
    }
}

/// Options for the `serve` subcommand.
#[derive(Debug)]
struct ServeOptions {
    dataset: String,
    rows: usize,
    queries: usize,
    checkpoint: PathBuf,
    every: usize,
    resume: bool,
    listen: String,
    workers: usize,
    queue: usize,
    max_batch: usize,
    /// Couple CoverageMonitor alarms to the Drifted-mode switch.
    alarm_coupled: bool,
    /// Trace head-sampling rate: trace one request in N. 0 disables
    /// tracing, 1 traces everything; anomalies trace everything for a
    /// window regardless.
    trace_sample: u64,
    /// Additional model names to register besides `default`. Each gets its
    /// own self-healing engine over the shared trained model and its own
    /// checkpoint file at `{checkpoint}.{name}`.
    models: Vec<String>,
    /// Per-tenant token-bucket refill rate in requests/second. Unset
    /// disables rate limiting.
    tenant_rate: Option<f64>,
    /// Token-bucket burst capacity (only meaningful with --tenant-rate).
    tenant_burst: f64,
    /// Interval-cache capacity in entries; 0 disables caching.
    cache_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let batcher = cardest::server::BatcherConfig::default();
        Self {
            dataset: "dmv".into(),
            rows: 10_000,
            queries: 800,
            checkpoint: PathBuf::from("cardest-serve.ckpt"),
            every: 200,
            resume: false,
            listen: "127.0.0.1:8080".into(),
            workers: 4,
            queue: batcher.queue_cap,
            max_batch: batcher.max_batch,
            alarm_coupled: false,
            trace_sample: ce_telemetry::trace::DEFAULT_SAMPLE_RATE,
            models: Vec::new(),
            tenant_rate: None,
            tenant_burst: 8.0,
            cache_cap: 0,
        }
    }
}

/// `--models a,b,...`: names are trimmed and deduplicated, and each must be
/// usable as a URL path segment.
fn set_models(opts: &mut ServeOptions, raw: &str) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    for name in raw.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return Err("names must be non-empty".to_string());
        }
        if name.contains('/') || name.contains(char::is_whitespace) {
            return Err(format!(
                "name `{name}` must not contain `/` or whitespace \
                 (it becomes a URL path segment)"
            ));
        }
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    opts.models = names;
    Ok(())
}

static SERVE: Command<ServeOptions> = Command {
    name: "serve",
    flags: &[
        Flag::valued("--dataset", DATASETS, |o, v| value(v).map(|v| o.dataset = v)),
        Flag::valued("--rows", "N", |o, v| value(v).map(|v| o.rows = v)),
        Flag::valued("--queries", "N", |o, v| value(v).map(|v| o.queries = v)),
        Flag::valued("--checkpoint", "PATH", |o, v| value(v).map(|v| o.checkpoint = v)),
        Flag::valued("--checkpoint-every", "N", |o, v| value(v).map(|v| o.every = v)),
        Flag::switch("--resume", |o, _| {
            o.resume = true;
            Ok(())
        }),
        Flag::valued("--listen", "ADDR", |o, v| value(v).map(|v| o.listen = v)),
        Flag::valued("--workers", "N", |o, v| value(v).map(|v| o.workers = v)),
        Flag::valued("--queue", "N", |o, v| value(v).map(|v| o.queue = v)),
        Flag::valued("--max-batch", "N", |o, v| value(v).map(|v| o.max_batch = v)),
        Flag::valued("--trace-sample", "N", |o, v| value(v).map(|v| o.trace_sample = v)),
        Flag::switch("--alarm-coupled", |o, _| {
            o.alarm_coupled = true;
            Ok(())
        }),
        Flag::valued("--models", "a,b,...", set_models),
        Flag::valued("--tenant-rate", "R", |o, v| value(v).map(|v| o.tenant_rate = Some(v))),
        Flag::valued("--tenant-burst", "B", |o, v| value(v).map(|v| o.tenant_burst = v)),
        Flag::valued("--cache-cap", "N", |o, v| value(v).map(|v| o.cache_cap = v)),
    ],
    about: "Runs the self-healing PI service as an HTTP server on --listen \
(default 127.0.0.1:8080; port 0 picks a free one) with periodic durable \
checkpoints: POST /v1/predict[/{model}], POST /v1/observe[/{model}], \
POST /v1/admin/models/{model} (hot reload from a posted checkpoint, \
shadow-validated with rollback), GET /metrics, /debug/trace, /healthz and \
/readyz, with micro-batched admission-controlled serving through the full \
resilient fallback chain. --models registers extra named engines (each \
checkpointing to {checkpoint}.{name}); --tenant-rate/--tenant-burst \
rate-limit per x-ce-tenant header; --cache-cap enables the generation-keyed \
interval cache. SIGTERM/SIGINT checkpoint and exit gracefully; --resume \
restores (chain breakers included) and continues bit-for-bit.",
    check: |o| {
        if o.every == 0 {
            return Err("--checkpoint-every must be at least 1".to_string());
        }
        if o.workers == 0 {
            return Err("--workers must be at least 1".to_string());
        }
        if o.max_batch == 0 {
            return Err("--max-batch must be at least 1".to_string());
        }
        if let Some(rate) = o.tenant_rate {
            if !rate.is_finite() || rate <= 0.0 {
                return Err("--tenant-rate must be a positive number".to_string());
            }
        }
        if !o.tenant_burst.is_finite() || o.tenant_burst < 1.0 {
            return Err("--tenant-burst must be at least 1".to_string());
        }
        Ok(())
    },
};

/// Set by the signal handler; the serve and route loops poll it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

fn install_signal_handlers() {
    // Minimal libc-free signal hookup: `signal(2)` is in every unix libc the
    // binary already links against. The handler only touches an atomic,
    // which is async-signal-safe.
    extern "C" fn request_shutdown(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` takes a plain signal number and an `extern "C"`
    // handler that lives for the whole program.
    unsafe {
        signal(SIGINT, request_shutdown);
        signal(SIGTERM, request_shutdown);
    }
}

/// `cardest-cli serve`: a multi-tenant
/// [`ModelRegistry`](cardest::tenant::ModelRegistry) (DESIGN.md §15) over
/// HTTP. Every model, `default` plus one per `--models` name, is a
/// self-healing service behind a resilient AVI/sampling fallback chain with
/// its own checkpoint file. Serves `POST /v1/predict[/{model}]`,
/// `POST /v1/observe[/{model}]`, the hot reload admin route, and
/// `GET /metrics` until SIGTERM/SIGINT, checkpointing every model's full
/// chain every `--checkpoint-every` observations and once more on drain.
fn run_serve(opts: ServeOptions) {
    use cardest::tenant::{start_registry_server, ModelRegistry, RegistryTuning, DEFAULT_MODEL};

    let seed = 42;
    let alpha = 0.1;
    install_signal_handlers();
    let Some(table) = cardest::datagen::by_name(&opts.dataset, opts.rows, seed) else {
        eprintln!("unknown dataset `{}` (dmv|census|forest|power)", opts.dataset);
        std::process::exit(2);
    };
    eprintln!(
        "serve: dataset {} ({} rows), checkpoint {} every {} obs",
        opts.dataset,
        table.n_rows(),
        opts.checkpoint.display(),
        opts.every,
    );
    let bench = SingleTableBench::prepare(
        table,
        opts.queries,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        seed,
    );
    // The model is retrained deterministically from the same seed on every
    // start; only the (cheap, mutable) calibration state lives in the
    // checkpoint file.
    eprintln!("training mscn ...");
    let model = train_mscn(&bench.feat, &bench.train, 10, seed);

    let floor = 1.0 / bench.table.n_rows() as f64;
    let dims = bench.calib.x.first().map(Vec::len).unwrap_or(0);
    eprintln!("building fallback chain: self-healing -> avi -> sampling ...");
    let avi = AviModel::build(&bench.table, floor);
    let sampling =
        SamplingEstimator::build(&bench.table, (opts.rows / 100).max(50), seed + 7, floor);
    // The fallback chain is rebuilt per engine (every model, hot reloads):
    // the heavy parts (AVI histograms, the row sample) are built once above
    // and cloned; only the cheap conformal wrappers are fresh each time.
    let make_fallbacks: Arc<dyn Fn() -> Vec<Box<dyn PiEstimator>> + Send + Sync> = {
        let (calib_x, calib_y) = (bench.calib.x.clone(), bench.calib.y.clone());
        Arc::new(move || {
            vec![
                Box::new(OnlineConformal::new(
                    avi.clone(),
                    AbsoluteResidual,
                    &calib_x,
                    &calib_y,
                    alpha,
                )) as Box<dyn PiEstimator>,
                Box::new(OnlineConformal::new(
                    sampling.clone(),
                    AbsoluteResidual,
                    &calib_x,
                    &calib_y,
                    alpha,
                )),
            ]
        })
    };
    // One recipe for every model, `default` included: with --resume, restore
    // the checkpoint at `path` (chain breakers too); without it, or when the
    // file is missing or unusable, cold-start.
    let load_engine = |name: &str, path: &Path| {
        let restored = if !opts.resume {
            None
        } else if !path.exists() {
            eprintln!("model {name}: no checkpoint at {}; cold-starting", path.display());
            None
        } else {
            let restored = read_checkpoint(path).and_then(|ckpt| {
                let breakers = ckpt.breakers.clone();
                SelfHealingService::restore(model.clone(), AbsoluteResidual, ckpt)
                    .map(|svc| (svc, breakers))
            });
            match restored {
                Ok(restored) => Some(restored),
                Err(e) => {
                    eprintln!("model {name}: checkpoint unusable ({e}); cold-starting");
                    None
                }
            }
        };
        let Some((svc, breakers)) = restored else {
            let svc = SelfHealingService::new(
                model.clone(),
                AbsoluteResidual,
                &bench.calib.x,
                &bench.calib.y,
                PiServiceConfig {
                    alpha,
                    couple_coverage_alarm: opts.alarm_coupled,
                    ..Default::default()
                },
                HealConfig { min_history: 60, cooldown_base: 100, ..Default::default() },
            );
            return ServeEngine::new(svc, make_fallbacks(), dims);
        };
        eprintln!(
            "model {name}: resumed from {} at observation {}",
            path.display(),
            svc.observations()
        );
        let engine = ServeEngine::new(svc, make_fallbacks(), dims);
        if !breakers.is_empty() {
            match engine.restore_breakers(&breakers) {
                Ok(()) => eprintln!("model {name}: restored {} breaker snapshots", breakers.len()),
                Err(e) => {
                    eprintln!("model {name}: breaker snapshots not restored ({e}); starting closed")
                }
            }
        }
        engine
    };

    ce_telemetry::set_enabled(true);
    ce_telemetry::trace::set_sample_rate(opts.trace_sample);
    let http_config = HttpServeConfig {
        workers: opts.workers,
        queue_cap: opts.queue,
        max_batch: opts.max_batch,
        ..HttpServeConfig::default()
    };
    let mut tuning = RegistryTuning::from_http(&http_config);
    tuning.cache_entries = opts.cache_cap;
    // The reload factory marries a posted checkpoint to the shared trained
    // model and a fresh fallback chain — the same recipe --resume uses.
    let mut registry = ModelRegistry::new(tuning).with_factory(Box::new({
        let model = model.clone();
        let make_fallbacks = Arc::clone(&make_fallbacks);
        move |ckpt: cardest::conformal::Checkpoint| {
            let breakers = ckpt.breakers.clone();
            let svc = SelfHealingService::restore(model.clone(), AbsoluteResidual, ckpt)?;
            let engine = ServeEngine::new(svc, make_fallbacks(), dims);
            engine.restore_breakers(&breakers)?;
            Ok(engine)
        }
    }));
    if let Some(rate) = opts.tenant_rate {
        let Some(limit) = cardest::server::RateLimit::new(rate, opts.tenant_burst) else {
            eprintln!("invalid --tenant-rate/--tenant-burst ({rate}/{})", opts.tenant_burst);
            std::process::exit(2);
        };
        registry = registry.with_limiter(limit);
        eprintln!("tenant rate limiting: {rate}/s per tenant, burst {}", opts.tenant_burst);
    }
    if opts.cache_cap > 0 {
        eprintln!("interval cache: {} entries (generation-keyed)", opts.cache_cap);
    }
    let registry = Arc::new(registry);
    // Checkpointing goes through the registry entries, not the engines
    // built here: after a hot reload the entry points at the new engine,
    // and that is the state worth persisting.
    let names = std::iter::once(DEFAULT_MODEL)
        .chain(opts.models.iter().map(String::as_str).filter(|&n| n != DEFAULT_MODEL));
    let entries: Vec<_> = names
        .map(|name| {
            let path = if name == DEFAULT_MODEL {
                opts.checkpoint.clone()
            } else {
                PathBuf::from(format!("{}.{name}", opts.checkpoint.display()))
            };
            let entry = registry.register(name, load_engine(name, &path));
            (path, entry)
        })
        .collect();
    let handle = match start_registry_server(Arc::clone(&registry), &opts.listen, http_config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", opts.listen);
            std::process::exit(1);
        }
    };
    eprintln!(
        "listening on http://{} (workers {}, queue {}, max-batch {}, models: {})",
        handle.local_addr(),
        opts.workers,
        opts.queue,
        opts.max_batch,
        registry.names().join(", "),
    );
    eprintln!(
        "endpoints: POST /v1/predict[/{{model}}], POST /v1/observe[/{{model}}], \
         POST /v1/admin/models/{{model}}, GET /metrics, GET /debug/trace, \
         GET /healthz, GET /readyz (trace sampling 1 in {})",
        opts.trace_sample,
    );

    let mut last_obs: Vec<u64> =
        entries.iter().map(|(_, entry)| entry.engine().observations()).collect();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(200));
        for ((path, entry), last) in entries.iter().zip(last_obs.iter_mut()) {
            let current = entry.engine();
            let obs = current.observations();
            if obs >= *last + opts.every as u64 {
                write_engine_checkpoint(&current, path, "periodic");
                *last = obs;
            }
        }
    }
    eprintln!("shutdown signal received; draining ...");
    handle.drain();
    for (path, entry) in &entries {
        write_engine_checkpoint(&entry.engine(), path, "final");
    }
    let server = handle.server_stats();
    let batcher = handle.batcher_stats();
    println!(
        "served {} requests over {} connections ({} shed at accept, {} parse errors)",
        server.requests, server.accepted, server.conn_shed, server.parse_errors
    );
    println!(
        "micro-batcher: {} queries admitted, {} shed, {} batches (largest {})",
        batcher.admitted, batcher.shed, batcher.batches, batcher.max_batch_seen
    );
    ce_telemetry::set_enabled(false);
}

/// Writes the engine's full-chain checkpoint (healing state + breaker
/// snapshots); failures are reported but never kill the server.
fn write_engine_checkpoint<M>(engine: &ServeEngine<M, AbsoluteResidual>, path: &Path, kind: &str)
where
    M: Regressor + Send + Sync + 'static,
{
    let ckpt = engine.checkpoint();
    match write_checkpoint(path, &ckpt) {
        Ok(()) => eprintln!(
            "[obs {}] {kind} checkpoint -> {} ({} breaker snapshots)",
            engine.observations(),
            path.display(),
            ckpt.breakers.len(),
        ),
        Err(e) => eprintln!("[obs {}] {kind} checkpoint FAILED: {e}", engine.observations()),
    }
}

/// Human-readable dump of the service's observability surface.
fn print_stats_text(service: &ResilientService) {
    let stats = service.stats();
    println!("resilience stats ({} queries served)", stats.queries);
    println!("  answered ............ {} (rate {:.3})", stats.answered, stats.answer_rate());
    println!("  fallback rate ....... {:.3}", stats.fallback_rate());
    println!("  floor served ........ {}", stats.floor_served);
    println!("  rejected inputs ..... {}", stats.rejected_inputs);
    println!("  panics caught ....... {}", stats.panics_caught);
    println!("  estimator failures .. {}", stats.estimator_failures);
    println!("  breaker trips ....... {}", stats.breaker_trips);
    println!("fallback chain:");
    for (pos, name) in service.chain_names().iter().enumerate() {
        let state = match service.breaker_state(pos) {
            Some(BreakerState::Closed) => "closed",
            Some(BreakerState::HalfOpen) => "half-open",
            Some(BreakerState::Open) => "OPEN",
            None => "?",
        };
        let served = stats.served_by.get(pos).copied().unwrap_or(0);
        println!("  [{pos}] {name}: breaker {state}, served {served}");
    }
    let errors = service.last_errors();
    println!(
        "last errors ({} buffered, cap {}, oldest first):",
        errors.len(),
        ResilientService::LAST_ERRORS_CAP
    );
    for (who, err) in errors.iter().rev().take(10).rev() {
        println!("  {who}: {err}");
    }
    if errors.len() > 10 {
        println!("  ... ({} older entries omitted)", errors.len() - 10);
    }
    println!("\nmetrics registry (use --format json|prom for machine-readable export):");
    for (name, value) in ce_telemetry::global().snapshot() {
        match value {
            _ if !name.starts_with("resilient.") => {}
            MetricValue::Counter(v) => println!("  {name} {v}"),
            MetricValue::Gauge(v) => println!("  {name} {v}"),
            MetricValue::Histogram(h) => println!("  {name} count {} max {}", h.count, h.max),
        }
    }
}


/// Options for `cardest-cli route` — the cluster router process.
#[derive(Debug)]
struct RouteOptions {
    listen: String,
    /// `(name, addr)` pairs from repeated `--shard NAME=ADDR` flags.
    shards: Vec<(String, std::net::SocketAddr)>,
    vnodes: usize,
    workers: usize,
    retry_budget: usize,
    deadline_ms: u64,
    probe_interval_ms: u64,
    fail_threshold: u32,
    recover_threshold: u32,
    /// Trace head-sampling rate: trace one routed request in N (0 off,
    /// 1 everything).
    trace_sample: u64,
    /// Replica set size per signature (1 = single-owner).
    replicas: usize,
    /// Fixed hedge delay in ms; `None` leaves hedging off.
    hedge_ms: Option<u64>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:8600".to_string(),
            shards: Vec::new(),
            vnodes: 64,
            workers: 4,
            retry_budget: 2,
            deadline_ms: 2_000,
            probe_interval_ms: 50,
            fail_threshold: 3,
            recover_threshold: 2,
            trace_sample: ce_telemetry::trace::DEFAULT_SAMPLE_RATE,
            replicas: 1,
            hedge_ms: None,
        }
    }
}

/// One `--shard NAME=ADDR`: a non-empty name not seen before and a socket
/// address.
fn add_shard(opts: &mut RouteOptions, raw: &str) -> Result<(), String> {
    let (name, addr) =
        raw.split_once('=').ok_or_else(|| format!("takes NAME=ADDR, got `{raw}`"))?;
    if name.is_empty() {
        return Err(format!("needs a non-empty name in `{raw}`"));
    }
    let addr = addr.parse().map_err(|_| format!("`{name}` has a malformed address `{addr}`"))?;
    if opts.shards.iter().any(|(n, _)| n == name) {
        return Err(format!("`{name}` is a duplicate shard name"));
    }
    opts.shards.push((name.to_string(), addr));
    Ok(())
}

static ROUTE: Command<RouteOptions> = Command {
    name: "route",
    flags: &[
        Flag::valued("--shard", "NAME=ADDR", add_shard),
        Flag::valued("--listen", "ADDR", |o, v| value(v).map(|v| o.listen = v)),
        Flag::valued("--vnodes", "N", |o, v| value(v).map(|v| o.vnodes = v)),
        Flag::valued("--workers", "N", |o, v| value(v).map(|v| o.workers = v)),
        Flag::valued("--retry-budget", "N", |o, v| value(v).map(|v| o.retry_budget = v)),
        Flag::valued("--deadline-ms", "N", |o, v| value(v).map(|v| o.deadline_ms = v)),
        Flag::valued("--probe-interval-ms", "N", |o, v| value(v).map(|v| o.probe_interval_ms = v)),
        Flag::valued("--fail-threshold", "N", |o, v| value(v).map(|v| o.fail_threshold = v)),
        Flag::valued("--recover-threshold", "N", |o, v| value(v).map(|v| o.recover_threshold = v)),
        Flag::valued("--trace-sample", "N", |o, v| value(v).map(|v| o.trace_sample = v)),
        Flag::valued("--replicas", "N", |o, v| value(v).map(|v| o.replicas = v)),
        Flag::valued("--hedge-ms", "MS", |o, v| value(v).map(|v| o.hedge_ms = Some(v))),
    ],
    about: "Fronts a fleet of shared-nothing `serve` shards with a \
consistent-hash router; --shard is required and repeats once per shard. Each \
predict request's body hashes to a signature that pins it to one shard, a \
background prober ejects shards after consecutive /readyz failures and \
readmits them after consecutive successes, and refused/failed legs fail over \
to the next ring candidate within a bounded retry budget and deadline. Shards \
are keyed by NAME — restart a shard anywhere (e.g. `serve --resume --listen \
127.0.0.1:0`) and point the same name at the new address without moving any \
keys.\n\n\
--replicas N (default 1) keeps each signature's calibration truths on its \
first N distinct ring candidates: predictions go to the primary (failover \
prefers the backups), truth-carrying bodies fan out to the rest of the \
replica set as idempotent /v1/observe posts, so a promoted backup serves \
from warm state. --hedge-ms MS fires a second request at the first backup \
when the primary has not answered within MS milliseconds (first response \
wins); omit it to leave hedging off.",
    check: |o| {
        if o.shards.is_empty() {
            return Err("route needs at least one --shard NAME=ADDR".to_string());
        }
        if o.replicas == 0 {
            return Err("--replicas must be at least 1 (1 = single-owner)".to_string());
        }
        if o.hedge_ms == Some(0) {
            return Err("--hedge-ms must be at least 1 millisecond".to_string());
        }
        if o.vnodes == 0 {
            return Err("--vnodes must be at least 1".to_string());
        }
        if o.workers == 0 {
            return Err("--workers must be at least 1".to_string());
        }
        if o.fail_threshold == 0 || o.recover_threshold == 0 {
            return Err("hysteresis thresholds must be at least 1".to_string());
        }
        Ok(())
    },
};

/// `cardest-cli route`: runs the cluster router until SIGTERM/SIGINT, then
/// drains and prints forwarding + fleet counters.
fn run_route(opts: RouteOptions) {
    install_signal_handlers();
    ce_telemetry::set_enabled(true);
    ce_telemetry::trace::set_sample_rate(opts.trace_sample);
    let config = cardest::router::ClusterRouterConfig {
        workers: opts.workers,
        vnodes: opts.vnodes,
        router: cardest::server::RouterConfig {
            retry_budget: opts.retry_budget,
            deadline: std::time::Duration::from_millis(opts.deadline_ms),
            replicas: opts.replicas,
            hedge: match opts.hedge_ms {
                Some(ms) => cardest::server::HedgePolicy::Fixed(
                    std::time::Duration::from_millis(ms),
                ),
                None => cardest::server::HedgePolicy::Off,
            },
            ..cardest::server::RouterConfig::default()
        },
        health: cardest::server::HealthConfig {
            probe_interval: std::time::Duration::from_millis(opts.probe_interval_ms),
            fail_threshold: opts.fail_threshold,
            recover_threshold: opts.recover_threshold,
            ..cardest::server::HealthConfig::default()
        },
    };
    let handle = match cardest::router::start_cluster_router(&opts.shards, &opts.listen, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", opts.listen);
            std::process::exit(1);
        }
    };
    let hedge_text = match opts.hedge_ms {
        Some(ms) => format!("hedge {ms}ms"),
        None => "hedge off".to_string(),
    };
    eprintln!(
        "routing on http://{} over {} shards (vnodes {}, retry budget {}, deadline {}ms, \
replicas {}, {hedge_text})",
        handle.local_addr(),
        opts.shards.len(),
        opts.vnodes,
        opts.retry_budget,
        opts.deadline_ms,
        opts.replicas,
    );
    for (name, addr) in &opts.shards {
        eprintln!("  shard {name} -> {addr}");
    }
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("shutdown signal received; draining ...");
    handle.drain();
    let stats = handle.router_stats();
    let fleet = handle.fleet_stats();
    println!(
        "routed {} requests ({} primary, {} failover), {} leg errors, {} sheds, \
{} exhausted, {} deadline-exceeded",
        stats.requests,
        stats.served_primary,
        stats.served_failover,
        stats.leg_errors,
        stats.leg_sheds,
        stats.exhausted,
        stats.deadline_exceeded,
    );
    println!(
        "hedging: {} fired ({} wins, {} cancelled); truths: {} fan-outs, {} replica posts",
        stats.hedges_fired,
        stats.hedge_wins,
        stats.hedge_cancelled,
        stats.truth_fanouts,
        stats.truth_replicated,
    );
    println!(
        "fleet: {} probe rounds ({} ok, {} failed), {} ejections, {} readmissions, {} live at exit",
        fleet.probe_rounds,
        fleet.probe_ok,
        fleet.probe_failed,
        fleet.ejections,
        fleet.readmissions,
        handle.fleet().live_count(),
    );
    ce_telemetry::set_enabled(false);
}

/// Options for the `trace` subcommand.
#[derive(Debug)]
struct TraceOptions {
    addr: String,
    json: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self { addr: "127.0.0.1:8600".to_string(), json: false }
    }
}

static TRACE: Command<TraceOptions> = Command {
    name: "trace",
    flags: &[
        Flag::valued("--addr", "HOST:PORT", |o, v| value(v).map(|v| o.addr = v)),
        Flag::switch("--json", |o, _| {
            o.json = true;
            Ok(())
        }),
    ],
    about: "Fetches GET /debug/trace from a running `serve` shard or `route` \
router and pretty-prints the flight recorder: the last traced requests with \
per-stage latency attribution (park, dispatch, queue, window, infer, write, \
route, network ...) and the structured event log (breaker transitions, \
coverage alarms, shard ejections, sheds). --json dumps the raw snapshot \
instead.",
    check: |_| Ok(()),
};

/// Renders nanoseconds as a human-scaled duration.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// The `GET /debug/trace` body, as `ce_telemetry::trace::snapshot_json`
/// writes it.
#[derive(serde::Deserialize)]
struct TraceSnapshot {
    sample_rate: u64,
    traces: Vec<TraceView>,
    events: Vec<EventView>,
}

#[derive(serde::Deserialize)]
struct TraceView {
    trace: String,
    total_ns: f64,
    stages: Vec<StageView>,
}

#[derive(serde::Deserialize)]
struct StageView {
    stage: String,
    ns: f64,
}

#[derive(serde::Deserialize)]
struct EventView {
    at_ns: f64,
    kind: String,
    anomaly: bool,
    detail: String,
}

/// Renders one `/debug/trace` snapshot for the terminal; an error when the
/// body is not the expected shape (e.g. a future schema).
fn render_trace_snapshot(text: &str) -> Result<String, serde_json::Error> {
    use std::fmt::Write as _;
    let snapshot: TraceSnapshot = serde_json::from_str(text)?;
    let mut out = match snapshot.sample_rate {
        0 => "flight recorder (tracing off; anomalies still sample)\n".to_string(),
        1 => "flight recorder (tracing every request)\n".to_string(),
        n => format!("flight recorder (sampling 1 in {n})\n"),
    };
    let _ = writeln!(out, "traces ({}, oldest first):", snapshot.traces.len());
    for t in &snapshot.traces {
        // Sum only the transport stages: span-joined stages (pi_batch, …)
        // nest inside `infer` and would double-count the wall clock.
        let transport = |s: &&StageView| TRANSPORT_STAGES.contains(&s.stage.as_str());
        let accounted = t.stages.iter().filter(transport).fold(0.0, |sum, s| sum + s.ns);
        let parts: Vec<String> =
            t.stages.iter().map(|s| format!("{} {}", s.stage, fmt_ns(s.ns))).collect();
        let _ = writeln!(
            out,
            "  {}  total {} ({} attributed): {}",
            t.trace,
            fmt_ns(t.total_ns),
            fmt_ns(accounted),
            if parts.is_empty() { "-".to_string() } else { parts.join(", ") },
        );
    }
    let _ = writeln!(out, "events ({}, oldest first):", snapshot.events.len());
    for e in &snapshot.events {
        let _ = writeln!(
            out,
            "  [+{:.3}s] {}{}{}{}",
            e.at_ns / 1e9,
            e.kind,
            if e.anomaly { " (ANOMALY)" } else { "" },
            if e.detail.is_empty() { "" } else { ": " },
            e.detail,
        );
    }
    Ok(out)
}

/// `cardest-cli trace`: fetch and render a running server's flight recorder.
fn run_trace(opts: TraceOptions) {
    let addr: std::net::SocketAddr = match opts.addr.parse() {
        Ok(addr) => addr,
        Err(_) => {
            eprintln!("--addr must be HOST:PORT, got `{}`", opts.addr);
            std::process::exit(2);
        }
    };
    let mut client = match cardest::server::HttpClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let resp = match client.get("/debug/trace") {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("GET /debug/trace failed: {e}");
            std::process::exit(1);
        }
    };
    if resp.status != 200 {
        eprintln!("GET /debug/trace answered {}", resp.status);
        std::process::exit(1);
    }
    let text = String::from_utf8_lossy(&resp.body);
    if opts.json {
        println!("{text}");
        return;
    }
    match render_trace_snapshot(&text) {
        Ok(rendered) => print!("{rendered}"),
        Err(e) => {
            eprintln!("unexpected snapshot shape ({e}); raw body:");
            println!("{text}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("stats") => run_stats(STATS.options(rest)),
        Some("serve") => run_serve(SERVE.options(rest)),
        Some("route") => run_route(ROUTE.options(rest)),
        Some("trace") => run_trace(TRACE.options(rest)),
        _ => run_interactive(INTERACTIVE.options(&args)),
    }
}

/// The interactive mode: train, calibrate, then answer queries from stdin.
fn run_interactive(opts: Options) {
    let seed = 42;
    let Some(table) = cardest::datagen::by_name(&opts.dataset, opts.rows, seed) else {
        eprintln!("unknown dataset `{}` (dmv|census|forest|power)", opts.dataset);
        std::process::exit(2);
    };
    eprintln!(
        "dataset {}: {} rows x {} columns; generating {} labeled queries...",
        opts.dataset,
        table.n_rows(),
        table.schema().arity(),
        opts.queries
    );
    let bench = SingleTableBench::prepare(
        table,
        opts.queries,
        &GeneratorConfig::low_selectivity(),
        SplitSpec::default(),
        seed,
    );

    eprintln!("training {}...", opts.model);
    let model: Box<dyn Regressor + Sync> = match opts.model.as_str() {
        "mscn" => Box::new(train_mscn(&bench.feat, &bench.train, 40, seed)),
        "lwnn" => Box::new(train_lwnn(&bench.table, &bench.train, 20, seed)),
        "naru" => Box::new(train_naru(&bench.table, 3, 64, seed)),
        other => {
            eprintln!("unknown model `{other}` (mscn|lwnn|naru)");
            std::process::exit(2);
        }
    };
    let model = &*model;
    let adapter = |f: &[f32]| model.predict(f);

    eprintln!("calibrating prediction intervals (alpha = {})...", opts.alpha);
    let floor = 1.0 / bench.table.n_rows() as f64;
    let scp = run_split_conformal(
        adapter,
        ScoreKind::Residual,
        &bench.calib,
        &bench.test,
        opts.alpha,
        floor,
    );
    let lw = run_locally_weighted(
        adapter,
        ScoreKind::Residual,
        &bench.train,
        &bench.calib,
        &bench.test,
        opts.alpha,
        floor,
        seed,
    );
    eprintln!(
        "held-out sanity: S-CP coverage {:.3} (width {:.5}), LW-S-CP coverage {:.3} (width {:.5})",
        scp.report.coverage, scp.report.mean_width, lw.report.coverage, lw.report.mean_width,
    );
    // Recalibrate interval closures for ad-hoc queries.
    let scp = cardest::conformal::SplitConformal::calibrate(
        adapter,
        cardest::conformal::AbsoluteResidual,
        &bench.calib.x,
        &bench.calib.y,
        opts.alpha,
    );

    let columns: Vec<String> = bench
        .table
        .schema()
        .columns()
        .iter()
        .map(|c| format!("{}(0..{})", c.name, c.domain))
        .collect();
    eprintln!("\ncolumns: {}", columns.join(", "));
    eprintln!("enter queries like `{} = 1 AND {} in 2..5` (empty line quits):",
        bench.table.schema().column(0).name,
        bench.table.schema().column(1).name,
    );

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let n = bench.table.n_rows() as f64;
    loop {
        print!("> ");
        let _ = stdout.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() || line == "quit" || line == "exit" {
            break;
        }
        match parse_query(bench.table.schema(), line) {
            Err(e) => println!("  error: {e}"),
            Ok(q) => {
                let truth = bench.table.count(&q);
                let features = bench.feat.encode(&q);
                let est = adapter.predict(&features);
                let iv = scp.interval(&features).clip(0.0, 1.0);
                println!(
                    "  true count {truth} | estimate {:.0} (sel {:.5}) | {:.0}% PI [{:.0}, {:.0}] {}",
                    est * n,
                    est,
                    (1.0 - scp.alpha()) * 100.0,
                    iv.lo * n,
                    iv.hi * n,
                    if iv.contains(truth as f64 / n) { "(covers)" } else { "(MISS)" },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    type ServeArgs = Args<ServeOptions>;
    type RouteArgs = Args<RouteOptions>;
    type TraceArgs = Args<TraceOptions>;

    fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
        SERVE.parse(args)
    }

    fn parse_route_args(args: &[String]) -> Result<RouteArgs, String> {
        ROUTE.parse(args)
    }

    fn parse_trace_args(args: &[String]) -> Result<TraceArgs, String> {
        TRACE.parse(args)
    }

    #[test]
    fn serve_args_defaults() {
        let ServeArgs::Run(opts) = parse_serve_args(&[]).unwrap() else {
            panic!("no flags should run with defaults");
        };
        assert_eq!(opts.dataset, "dmv");
        assert_eq!(opts.every, 200);
        assert_eq!(opts.listen, "127.0.0.1:8080");
        assert!(!opts.resume);
        assert!(!opts.alarm_coupled);
    }

    #[test]
    fn serve_args_unknown_flag_is_an_error() {
        let err = parse_serve_args(&argv(&["--nonsense"])).unwrap_err();
        assert!(err.contains("--nonsense"), "error names the flag: {err}");
        // A typo'd flag before valid ones must also fail, not be skipped.
        assert!(parse_serve_args(&argv(&["--steam", "500"])).is_err());
        // Removed flags are rejected like any other unknown flag.
        for removed in [
            ["--read-tick-ms", "5"],
            ["--pollers", "1"],
            ["--stream", "2000"],
            ["--drift-at", "100"],
        ] {
            let err = parse_serve_args(&argv(&removed)).unwrap_err();
            assert!(err.contains(removed[0]), "error names the flag: {err}");
        }
    }

    #[test]
    fn serve_args_missing_value_is_an_error() {
        let err = parse_serve_args(&argv(&["--rows"])).unwrap_err();
        assert!(err.contains("--rows"), "{err}");
        assert!(parse_serve_args(&argv(&["--listen"])).is_err());
    }

    #[test]
    fn serve_args_malformed_number_is_an_error() {
        let err = parse_serve_args(&argv(&["--rows", "many"])).unwrap_err();
        assert!(err.contains("--rows") && err.contains("many"), "{err}");
    }

    #[test]
    fn serve_args_zero_guards() {
        assert!(parse_serve_args(&argv(&["--checkpoint-every", "0"])).is_err());
        assert!(parse_serve_args(&argv(&["--workers", "0"])).is_err());
        assert!(parse_serve_args(&argv(&["--max-batch", "0"])).is_err());
    }


    #[test]
    fn route_args_require_a_shard() {
        let err = parse_route_args(&[]).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
    }

    #[test]
    fn route_args_parse_shards_and_tuning() {
        let args = argv(&[
            "--listen",
            "127.0.0.1:0",
            "--shard",
            "a=127.0.0.1:9101",
            "--shard",
            "b=127.0.0.1:9102",
            "--vnodes",
            "32",
            "--retry-budget",
            "3",
            "--deadline-ms",
            "750",
            "--probe-interval-ms",
            "25",
            "--fail-threshold",
            "2",
            "--recover-threshold",
            "4",
        ]);
        let RouteArgs::Run(opts) = parse_route_args(&args).unwrap() else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.shards.len(), 2);
        assert_eq!(opts.shards[0].0, "a");
        assert_eq!(opts.shards[1].1, "127.0.0.1:9102".parse().unwrap());
        assert_eq!(opts.vnodes, 32);
        assert_eq!(opts.retry_budget, 3);
        assert_eq!(opts.deadline_ms, 750);
        assert_eq!(opts.probe_interval_ms, 25);
        assert_eq!(opts.fail_threshold, 2);
        assert_eq!(opts.recover_threshold, 4);
    }

    #[test]
    fn route_args_reject_malformed_and_duplicate_shards() {
        let base = |spec: &str| parse_route_args(&argv(&["--shard", spec]));
        assert!(base("no-equals").is_err(), "NAME=ADDR required");
        assert!(base("=127.0.0.1:9101").is_err(), "empty name rejected");
        assert!(base("a=not-an-addr").is_err(), "address must parse");
        let dup = argv(&["--shard", "a=127.0.0.1:9101", "--shard", "a=127.0.0.1:9102"]);
        let err = parse_route_args(&dup).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn route_args_zero_guards_and_unknown_flags() {
        let with = |extra: &[&str]| {
            let mut v = vec!["--shard", "a=127.0.0.1:9101"];
            v.extend_from_slice(extra);
            parse_route_args(&argv(&v))
        };
        assert!(with(&["--vnodes", "0"]).is_err());
        assert!(with(&["--workers", "0"]).is_err());
        assert!(with(&["--fail-threshold", "0"]).is_err());
        assert!(with(&["--recover-threshold", "0"]).is_err());
        assert!(with(&["--bogus"]).is_err());
        assert!(matches!(parse_route_args(&argv(&["--help"])), Ok(RouteArgs::Help)));
    }

    #[test]
    fn route_args_replication_and_hedging_flags() {
        let with = |extra: &[&str]| {
            let mut v = vec!["--shard", "a=127.0.0.1:9101"];
            v.extend_from_slice(extra);
            parse_route_args(&argv(&v))
        };
        // Defaults: single-owner, hedging off — byte-identical to PR 6.
        let RouteArgs::Run(opts) = with(&[]).unwrap() else { panic!("should run") };
        assert_eq!(opts.replicas, 1);
        assert_eq!(opts.hedge_ms, None);
        let RouteArgs::Run(opts) = with(&["--replicas", "2", "--hedge-ms", "15"]).unwrap()
        else {
            panic!("should run")
        };
        assert_eq!(opts.replicas, 2);
        assert_eq!(opts.hedge_ms, Some(15));
        // Zero guards and malformed numbers are errors, not warnings.
        let err = with(&["--replicas", "0"]).unwrap_err();
        assert!(err.contains("--replicas"), "{err}");
        let err = with(&["--hedge-ms", "0"]).unwrap_err();
        assert!(err.contains("--hedge-ms"), "{err}");
        assert!(with(&["--replicas", "two"]).is_err());
        assert!(with(&["--hedge-ms", "99999999999999999999999"]).is_err(), "overflow");
        assert!(with(&["--replicas"]).is_err(), "missing value");
    }

    #[test]
    fn serve_args_http_flags_parse() {
        let args = argv(&[
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "8",
            "--queue",
            "256",
            "--max-batch",
            "32",
            "--alarm-coupled",
            "--resume",
        ]);
        let ServeArgs::Run(opts) = parse_serve_args(&args).unwrap() else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.listen, "127.0.0.1:0");
        assert_eq!(opts.workers, 8);
        assert_eq!(opts.queue, 256);
        assert_eq!(opts.max_batch, 32);
        assert!(opts.alarm_coupled);
        assert!(opts.resume);
    }

    #[test]
    fn serve_args_tenant_flags_parse_with_defaults() {
        // Defaults: single default model, no limiter, cache off — the PR 9
        // single-engine surface byte for byte.
        let ServeArgs::Run(opts) = parse_serve_args(&[]).unwrap() else { panic!() };
        assert!(opts.models.is_empty());
        assert_eq!(opts.tenant_rate, None);
        assert_eq!(opts.cache_cap, 0);
        let args = argv(&[
            "--models",
            "mscn, lwnn,mscn",
            "--tenant-rate",
            "50.5",
            "--tenant-burst",
            "20",
            "--cache-cap",
            "4096",
        ]);
        let ServeArgs::Run(opts) = parse_serve_args(&args).unwrap() else {
            panic!("flags should parse to a run");
        };
        assert_eq!(
            opts.models,
            vec!["mscn".to_string(), "lwnn".to_string()],
            "names are trimmed and deduplicated"
        );
        assert_eq!(opts.tenant_rate, Some(50.5));
        assert_eq!(opts.tenant_burst, 20.0);
        assert_eq!(opts.cache_cap, 4096);
    }

    #[test]
    fn serve_args_tenant_flags_reject_bad_values() {
        assert!(parse_serve_args(&argv(&["--models", "a,,b"])).is_err(), "empty name");
        assert!(parse_serve_args(&argv(&["--models", "a/b"])).is_err(), "slash in name");
        assert!(parse_serve_args(&argv(&["--models", "a b"])).is_err(), "whitespace");
        assert!(parse_serve_args(&argv(&["--tenant-rate", "0"])).is_err());
        assert!(parse_serve_args(&argv(&["--tenant-rate", "-2"])).is_err());
        assert!(parse_serve_args(&argv(&["--tenant-rate", "inf"])).is_err());
        assert!(parse_serve_args(&argv(&["--tenant-burst", "0.5"])).is_err());
        assert!(parse_serve_args(&argv(&["--cache-cap", "many"])).is_err());
    }

    #[test]
    fn trace_args_parse_and_reject() {
        let TraceArgs::Run(opts) = parse_trace_args(&[]).unwrap() else {
            panic!("no flags should run with defaults");
        };
        assert_eq!(opts.addr, "127.0.0.1:8600");
        assert!(!opts.json);
        let TraceArgs::Run(opts) =
            parse_trace_args(&argv(&["--addr", "127.0.0.1:9000", "--json"])).unwrap()
        else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.addr, "127.0.0.1:9000");
        assert!(opts.json);
        assert!(parse_trace_args(&argv(&["--addr"])).is_err(), "missing value");
        assert!(parse_trace_args(&argv(&["--bogus"])).is_err());
        assert!(matches!(parse_trace_args(&argv(&["--help"])), Ok(TraceArgs::Help)));
    }

    #[test]
    fn trace_sample_flags_parse() {
        let ServeArgs::Run(opts) = parse_serve_args(&argv(&["--trace-sample", "8"])).unwrap()
        else {
            panic!("flags should parse to a run");
        };
        assert_eq!(opts.trace_sample, 8);
        let ServeArgs::Run(opts) = parse_serve_args(&[]).unwrap() else { panic!() };
        assert_eq!(opts.trace_sample, ce_telemetry::trace::DEFAULT_SAMPLE_RATE);
        let args = argv(&["--shard", "a=127.0.0.1:9101", "--trace-sample", "0"]);
        let RouteArgs::Run(opts) = parse_route_args(&args).unwrap() else { panic!() };
        assert_eq!(opts.trace_sample, 0, "0 turns routed tracing off");
    }

    /// One recorded `/debug/trace` body, its rendering pinned line for line:
    /// a non-transport stage is listed but not attributed, an empty stage
    /// list prints `-`, and an event without detail prints no colon.
    #[test]
    fn trace_snapshot_pretty_printer_accepts_the_wire_shape() {
        let text = r#"{
"sample_rate": 8,
"traces": [{"trace": "0000000000000000000000000000abcd", "at_ns": 1200, "total_ns": 1543000, "stages": [{"stage": "park", "ns": 800}, {"stage": "queue", "ns": 12500}, {"stage": "infer", "ns": 1400000}, {"stage": "pi_batch", "ns": 1300000}, {"stage": "write", "ns": 2100}]}, {"trace": "00000000000000000000000000000abc", "at_ns": 5000, "total_ns": 999, "stages": []}],
"events": [{"at_ns": 2500000000, "kind": "breaker_open", "anomaly": true, "detail": "primary: \"mscn\" failed"}, {"at_ns": 3000000000, "kind": "drain", "anomaly": false, "detail": ""}]
}"#;
        assert_eq!(
            render_trace_snapshot(text).expect("wire shape must render"),
            "flight recorder (sampling 1 in 8)
traces (2, oldest first):
  0000000000000000000000000000abcd  total 1.54ms (1.42ms attributed): park 800ns, queue 12.5us, infer 1.40ms, pi_batch 1.30ms, write 2.1us
  00000000000000000000000000000abc  total 999ns (0ns attributed): -
events (2, oldest first):
  [+2.500s] breaker_open (ANOMALY): primary: \"mscn\" failed
  [+3.000s] drain
"
        );
        assert!(render_trace_snapshot("[]").is_err(), "non-object rejected");
        assert!(render_trace_snapshot("{}").is_err(), "missing fields rejected");
    }

    #[test]
    fn serve_args_help_short_circuits() {
        assert!(matches!(parse_serve_args(&argv(&["--help"])), Ok(ServeArgs::Help)));
        assert!(matches!(
            parse_serve_args(&argv(&["-h", "--nonsense"])),
            Ok(ServeArgs::Help)
        ));
    }
}
