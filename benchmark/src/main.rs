//! Command line of the benchmark (normally reached through `run.sh`).
//!
//! ```text
//! run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     every workload, untraced then traced, each run in its own process;
//!     prints every metric and writes benchmark/out/result.json
//! run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last line of output is the driver's JSON
//! run.sh compare A.json B.json
//!     judges result set B against A; exits 1 on any `worse` or more failures
//! ```

use blockstm_benchmark::report::{self, ResultSet, WorkloadRows};
use blockstm_benchmark::run::{self, RunOptions};
use blockstm_benchmark::workloads::{self, Scale};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed of a run that names none. README.md names the hold-out seed.
const DEFAULT_SEED: u64 = 1;
/// Timed seconds per run; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;
/// Trace files and `result.json`, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";
/// Prefix of the line a single run prints before the driver's line, carrying
/// the spread over its repetitions for the full run to collect.
const DETAIL_PREFIX: &str = "# detail: ";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = Some(value()?.parse().map_err(|_| "--seed: not a whole number")?)
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds: out of range".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn scale_of(args: &Args) -> Scale {
    if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    }
}

fn seconds_of(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    })
}

/// One run of one workload, in this process.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let scale = scale_of(args);
    let workload =
        workloads::find(scale, name).ok_or_else(|| format!("unknown workload {name}"))?;
    let options = RunOptions {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds_of(args),
        trace: args.trace,
        scale,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let result = run::run(&workload, &options)?;
    for note in &result.notes {
        eprintln!("{name}: {note}");
    }
    for metric in &result.metrics {
        println!(
            "{:<42} {:>16.4} {}",
            metric.def.name, metric.spread.median, metric.def.unit
        );
    }
    let detail =
        serde_json::to_string(&WorkloadRows::from_run(&result)).map_err(|err| err.to_string())?;
    println!("{DETAIL_PREFIX}{detail}");
    println!("{}", report::contract_line(&result));
    Ok(result.correct)
}

/// The commit a result set was taken at (`-dirty` with uncommitted changes);
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |commit| commit.trim().to_string())
}

/// Runs one pass of one workload in a child process (so its peak memory is
/// its own) and collects the detail line.
fn run_child(name: &str, trace: bool, args: &Args) -> Result<WorkloadRows, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
        .args(["--seconds", &seconds_of(args).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|err| err.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{name} (trace {}): no result ({})",
                trace as u8, output.status
            )
        })?;
    serde_json::from_str(detail).map_err(|err| err.to_string())
}

/// Every workload, untraced then traced; prints the table, writes the file.
fn run_all(args: &Args) -> Result<bool, String> {
    let (threads, threads_node) = run::thread_counts();
    let mut set = ResultSet {
        version: report::VERSION.to_string(),
        commit: git_commit(),
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds_of(args),
        scale: if args.smoke { "smoke" } else { "full" }.to_string(),
        threads: threads as u64,
        threads_node: threads_node as u64,
        workloads: Vec::new(),
    };
    for workload in workloads::all(scale_of(args)) {
        eprintln!("running {} ...", workload.name);
        let mut rows = run_child(workload.name, false, args)?;
        rows.absorb(run_child(workload.name, true, args)?);
        set.workloads.push(rows);
    }
    print!("{}", set.table());
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|err| err.to_string())?;
    }
    std::fs::write(&path, set.to_text()).map_err(|err| format!("{}: {err}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(set
        .workloads
        .iter()
        .all(|workload| workload.correct && workload.failed == 0))
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: compare A.json B.json".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
        ResultSet::from_text(&text).map_err(|err| format!("{path}: {err}"))
    };
    let comparison = report::compare(&load(a)?, &load(b)?)?;
    print!("{}", comparison.report);
    Ok(comparison.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|arg| arg == "compare") {
        compare(&args[1..])
    } else {
        parse_args(&args).and_then(|parsed| match &parsed.workload {
            Some(name) => run_one(name, &parsed),
            None => run_all(&parsed),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
