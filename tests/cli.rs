//! End-to-end tests of the `cardest-cli` binary: the flag parser's error
//! contract and help text, and the serve → SIGTERM → `--resume` cycle over
//! HTTP.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cardest::server::HttpClient;

const CLI: &str = env!("CARGO_BIN_EXE_cardest-cli");

fn run(args: &[&str]) -> Output {
    Command::new(CLI).args(args).output().expect("run cardest-cli")
}

/// Every flag each command accepts, by command word (empty for the
/// interactive mode).
const FLAGS: &[(&str, &[&str])] = &[
    ("", &["--dataset", "--rows", "--model", "--alpha", "--queries"]),
    ("stats", &["--dataset", "--rows", "--queries", "--stream", "--format"]),
    (
        "serve",
        &[
            "--dataset",
            "--rows",
            "--queries",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
            "--listen",
            "--workers",
            "--queue",
            "--max-batch",
            "--trace-sample",
            "--alarm-coupled",
            "--models",
            "--tenant-rate",
            "--tenant-burst",
            "--cache-cap",
        ],
    ),
    (
        "route",
        &[
            "--shard",
            "--listen",
            "--vnodes",
            "--workers",
            "--retry-budget",
            "--deadline-ms",
            "--probe-interval-ms",
            "--fail-threshold",
            "--recover-threshold",
            "--trace-sample",
            "--replicas",
            "--hedge-ms",
        ],
    ),
    ("trace", &["--addr", "--json"]),
];

/// `args` with the command word in front, unless it is the interactive mode.
fn command_line<'a>(word: &'a str, args: &[&'a str]) -> Vec<&'a str> {
    let mut line: Vec<&str> = if word.is_empty() { Vec::new() } else { vec![word] };
    line.extend_from_slice(args);
    line
}

#[test]
fn malformed_numbers_exit_2_with_a_message_naming_the_flag() {
    let cases: [&[&str]; 3] =
        [&["--rows", "many"], &["stats", "--rows", "many"], &["serve", "--rows", "many"]];
    for args in cases {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--rows"), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_flags_and_missing_values_exit_2_in_every_command() {
    for (word, flags) in FLAGS {
        let out = run(&command_line(word, &["--bogus"]));
        assert_eq!(out.status.code(), Some(2), "`{word} --bogus`: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"), "{out:?}");
        // The first flag of every table takes a value.
        let out = run(&command_line(word, &[flags[0]]));
        assert_eq!(out.status.code(), Some(2), "`{word} {}`: {out:?}", flags[0]);
        assert!(String::from_utf8_lossy(&out.stderr).contains(flags[0]), "{out:?}");
    }
}

#[test]
fn top_level_help_names_every_command_line() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
    assert!(lines.iter().any(|l| l.starts_with("usage: cardest-cli [--")), "{text}");
    for word in ["stats", "serve", "route", "trace"] {
        let prefix = format!("cardest-cli {word} [--");
        assert!(lines.iter().any(|l| l.starts_with(&prefix)), "no `{word}` line in:\n{text}");
    }
}

#[test]
fn every_help_lists_every_flag_its_command_accepts() {
    for (word, flags) in FLAGS {
        let out = run(&command_line(word, &["--help"]));
        assert_eq!(out.status.code(), Some(0), "`{word} --help`: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let synopsis = text.lines().next().unwrap_or_default();
        for flag in *flags {
            let listed = |form: String| synopsis.contains(&form);
            let listed = listed(format!("[{flag} ")) || listed(format!("[{flag}]"));
            assert!(listed, "`{word} --help` does not list {flag}:\n{synopsis}");
        }
        // And every flag the synopsis lists parses: `--help` after it
        // still prints the usage instead of failing on the flag.
        for item in synopsis.split('[').skip(1) {
            let item = item.split(']').next().unwrap_or_default();
            let mut parts = item.split(' ');
            let flag = parts.next().unwrap_or_default();
            let mut args = vec![flag];
            match parts.next() {
                Some("NAME=ADDR") => args.push("a=127.0.0.1:1"),
                Some(_) => args.push("1"),
                None => {}
            }
            args.push("--help");
            let out = run(&command_line(word, &args));
            assert_eq!(out.status.code(), Some(0), "`{word} {args:?}`: {out:?}");
        }
    }
}

/// Kills a `serve` process that is still running when a test fails, so no
/// server outlives the test binary.
struct Serve {
    child: Child,
    addr: SocketAddr,
    log: Option<JoinHandle<String>>,
}

impl Serve {
    fn start(checkpoint: &Path, resume: bool) -> Serve {
        let mut cmd = Command::new(CLI);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--rows", "2000", "--queries", "200"])
            .arg("--checkpoint")
            .arg(checkpoint);
        if resume {
            cmd.arg("--resume");
        }
        let mut child =
            cmd.stdout(Stdio::null()).stderr(Stdio::piped()).spawn().expect("spawn serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the whole run (a full pipe would block the
        // server) and reports the bound address once it is printed.
        let log = std::thread::spawn(move || {
            let mut log = String::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("listening on http://") {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        let mut serve = Serve { child, addr: "0.0.0.0:0".parse().unwrap(), log: Some(log) };
        let addr = rx.recv_timeout(Duration::from_secs(300)).expect("serve never listened");
        serve.addr = addr.parse().expect("bound address");
        serve
    }

    /// Sends SIGTERM (through `kill(2)`, which every unix libc the binary
    /// links against provides) and waits for the graceful exit.
    fn terminate(mut self) -> (ExitStatus, String) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `kill` takes two integers; the pid is our own child,
        // not yet reaped, so it names no other process.
        let rc = unsafe { kill(self.child.id() as i32, SIGTERM) };
        assert_eq!(rc, 0, "kill(SIGTERM) failed");
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("wait for serve") {
                break status;
            }
            assert!(Instant::now() < deadline, "serve did not exit after SIGTERM");
            std::thread::sleep(Duration::from_millis(20));
        };
        let log = self.log.take().expect("log thread").join().expect("stderr reader");
        (status, log)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn predict(client: &mut HttpClient, body: &str) -> Vec<u8> {
    let resp = client.post("/v1/predict", body.as_bytes()).expect("predict");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    resp.body.to_vec()
}

fn scratch_checkpoint() -> PathBuf {
    let path = std::env::temp_dir().join(format!("cardest-cli-resume-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn serve_resumes_bit_for_bit_after_sigterm() {
    let checkpoint = scratch_checkpoint();
    // One fixed row of the dmv featurization's 44 dimensions.
    let row: Vec<String> = (0..44).map(|i| format!("{}", i as f64 * 0.01)).collect();
    let row = row.join(",");
    let probe = format!("{{\"features\":[[{row}]]}}");

    let serve = Serve::start(&checkpoint, false);
    let mut client = HttpClient::connect(serve.addr).expect("connect");
    for i in 0..30 {
        let body = format!("{{\"features\":[[{row}]],\"truths\":[{}]}}", i as f64 / 1000.0);
        predict(&mut client, &body);
    }
    let before = predict(&mut client, &probe);
    assert!(String::from_utf8_lossy(&before).contains("\"lo\""), "not an interval: {before:?}");
    drop(client);
    let (status, log) = serve.terminate();
    assert_eq!(status.code(), Some(0), "{log}");
    assert!(checkpoint.exists(), "no final checkpoint:\n{log}");

    let serve = Serve::start(&checkpoint, true);
    let mut client = HttpClient::connect(serve.addr).expect("connect");
    let after = predict(&mut client, &probe);
    drop(client);
    let (status, log) = serve.terminate();
    assert_eq!(status.code(), Some(0), "{log}");
    assert!(log.contains("observation 30"), "resume did not report the count:\n{log}");
    assert_eq!(
        String::from_utf8_lossy(&after),
        String::from_utf8_lossy(&before),
        "the resumed server must answer byte for byte"
    );
    let _ = std::fs::remove_file(&checkpoint);
}
