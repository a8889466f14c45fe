//! The repository's benchmark; see `README.md` beside `Cargo.toml`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One workload runs per process. Every metric is printed by name and unit,
//! and the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of a run with
//! tracing off, the per-layer metrics of a traced run. The exit code is
//! non-zero when an output check fails. `--workload all` runs the four
//! workloads one after another, each in a process of its own.

mod adapter;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{Config, Outcome};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: String,
    config: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) =
        (workloads::DEFAULT_SEED, None, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name|all> is required")?,
        config: Config {
            seed,
            seconds: seconds.unwrap_or(if smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            trace,
            smoke,
        },
    })
}

/// Runs every workload in a child process of its own, passing the
/// arguments through. Fails if any child does.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("the path of this program");
    let passed: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for name in metrics::WORKLOADS {
        let args = passed
            .iter()
            .map(|a| if a == "all" { name } else { a.as_str() });
        let status = std::process::Command::new(&exe).args(args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "target/benchmark".into(), std::path::PathBuf::from);
    dir.join(format!("trace_{workload}.json"))
}

fn report(workload: &str, cfg: &Config, outcome: &Outcome) -> bool {
    let mut correct = outcome.failed == 0 && outcome.problems.is_empty();
    for problem in &outcome.problems {
        eprintln!("output check failed: {problem}");
    }
    let mut json = Vec::new();
    for &(name, unit, value) in &outcome.metrics {
        println!("{name} {value} {unit}");
        if !(value.is_finite() && value >= 0.0) {
            eprintln!("output check failed: {name} is {value}");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(log) = &outcome.trace {
        let path = trace_path(workload);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, log.to_json(workload, cfg.seed)));
        match written {
            Ok(()) => println!("spans {}", path.display()),
            Err(e) => {
                eprintln!("output check failed: writing {}: {e}", path.display());
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let Args { workload, config } = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all();
    }
    if cfg!(debug_assertions) && !config.smoke {
        eprintln!("full-scale numbers need an optimised build: pass --release, or --smoke");
        return ExitCode::from(2);
    }
    println!(
        "workload {workload} seed {} seconds {} trace {} smoke {} nproc {} loadavg {}",
        config.seed,
        config.seconds,
        u8::from(config.trace),
        u8::from(config.smoke),
        stats::nproc(),
        stats::loadavg()
    );
    let outcome = match workload.as_str() {
        "ring4k_stream" => workloads::ring4k_stream(&config),
        "rgg100k_churn" => workloads::rgg100k_churn(&config),
        "lowerbound_line129" => workloads::lowerbound_line129(&config),
        "timed_open_2k" => workloads::timed_open_2k(&config),
        other => {
            eprintln!(
                "unknown workload {other}; one of {:?} or all",
                metrics::WORKLOADS
            );
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) if report(&workload, &config, &outcome) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
