//! `bench_json` — the CI performance gate's measuring half.
//!
//! Runs every tracked benchmark (see `gcs_bench::tracked`) in quick mode
//! — a short warm-up, then a fixed number of timed samples — and emits a
//! machine-readable JSON report of median nanoseconds per iteration. A
//! second mode compares two reports and fails (exit code 1) when any
//! benchmark regressed beyond a tolerance, which is how CI pins
//! `target/bench_report.json` against the committed `BENCH_baseline.json`.
//!
//! ```text
//! bench_json --out target/bench_report.json             # measure and write
//! bench_json --filter clocks --out -           # subset, to stdout
//! bench_json --check BENCH_baseline.json target/bench_report.json --tolerance 0.25
//! ```
//!
//! The JSON is deliberately flat (one `"id": {"median_ns": N}` object
//! per line) so the checker needs no JSON library and diffs stay
//! readable.
//!
//! Three row families are measured outside the tracked list:
//!
//! - `profile/*`: per-phase engine timings, informational (absent from
//!   the baseline ⇒ never gated).
//! - `engine/sharded_rgg100k_k2_ns_per_event`: the sharded engine at
//!   E15 scale, reported as ns per dispatched event; one run costs
//!   seconds, so it takes at most two samples and no warm-up.
//! - `serving/loopback_*`: requests/sec (as ns/request) and p99 latency
//!   of a real loopback TCP daemon under closed-loop load. These cross
//!   the kernel and the scheduler, so the checker widens their
//!   tolerance to [`LOOPBACK_TOLERANCE`] (they gate order-of-magnitude
//!   hot-path regressions, not scheduler noise).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gcs_bench::{tracked, workloads};

/// Quick mode: enough samples for a stable median on CI runners without
/// making the gate slow. Overridable for local investigation via
/// `GCS_BENCH_SAMPLES`.
const DEFAULT_SAMPLES: usize = 7;
const WARM_UP: Duration = Duration::from_millis(100);

fn measure(run: fn(), samples: usize) -> f64 {
    // Warm-up: at least one full iteration, until the budget is spent.
    let warm_start = Instant::now();
    loop {
        run();
        if warm_start.elapsed() >= WARM_UP {
            break;
        }
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Per-phase medians of the profiled reference workload, as
/// `profile/<workload>/<phase>` rows. Informational: the gate checker
/// treats ids absent from the baseline as "new", never as regressions,
/// so these rows ride along without being gated.
const PROFILE_PHASES: [&str; 5] = ["run", "dispatch", "observer", "probe", "clock"];

fn profile_id(phase: &str) -> String {
    format!("profile/streaming_ring32_200t/{phase}")
}

fn profile_rows(samples: usize) -> Vec<(String, f64)> {
    let runs: Vec<_> = (0..samples.max(3))
        .map(|_| workloads::profiled_streaming_ring(32, 200.0))
        .collect();
    let median = |pick: fn(&gcs_sim::SimProfile) -> u64| -> f64 {
        let mut xs: Vec<f64> = runs.iter().map(|p| pick(p) as f64).collect();
        xs.sort_by(f64::total_cmp);
        // The parser rejects non-positive medians; an idle phase still
        // reports as 1 ns rather than vanishing from the table.
        xs[xs.len() / 2].max(1.0)
    };
    let picks: [fn(&gcs_sim::SimProfile) -> u64; 5] = [
        |p| p.run_ns,
        |p| p.dispatch_ns,
        |p| p.observer_ns,
        |p| p.probe_ns,
        |p| p.clock_ns,
    ];
    PROFILE_PHASES
        .iter()
        .zip(picks)
        .map(|(phase, pick)| (profile_id(phase), median(pick)))
        .collect()
}

/// Rows measured over real loopback TCP (the `gcs-timed` daemon under
/// closed-loop load) are gated at this *minimum* tolerance — wall-clock
/// socket numbers on shared runners jitter far beyond the in-process
/// 25% band, so these rows only catch order-of-magnitude regressions.
const LOOPBACK_PREFIX: &str = "serving/loopback_";
const LOOPBACK_TOLERANCE: f64 = 3.0;

/// The sharded engine at E15 scale: a churned 100k-node random-geometric
/// network streamed through two shards. One run costs seconds, so it is
/// measured with at most two samples and no warm-up, and reported as
/// nanoseconds per *dispatched event* — stable under tweaks to the
/// workload's event count, and "bigger = worse" like every other row.
const SHARDED_SCALE_ID: &str = "engine/sharded_rgg100k_k2_ns_per_event";

fn sharded_scale_rows(samples: usize) -> Vec<(String, f64)> {
    let mut xs: Vec<f64> = (0..samples.clamp(1, 2))
        .map(|_| {
            let start = Instant::now();
            let dispatched = workloads::sharded_rgg_run(100_000, 2);
            start.elapsed().as_secs_f64() * 1e9 / dispatched as f64
        })
        .collect();
    xs.sort_by(f64::total_cmp);
    vec![(SHARDED_SCALE_ID.to_string(), xs[xs.len() / 2].max(1.0))]
}

/// Median requests/sec and p99 latency of a loopback daemon under
/// closed-loop load, expressed in nanoseconds so "bigger = worse"
/// matches every other row.
fn loopback_rows(samples: usize) -> Vec<(String, f64)> {
    let runs: Vec<_> = (0..samples.clamp(3, 5))
        .map(|_| workloads::loopback_loadgen(2, Duration::from_millis(300)))
        .collect();
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2].max(1.0)
    };
    vec![
        (
            "serving/loopback_read_ns_per_req".to_string(),
            median(runs.iter().map(|r| 1e9 / r.rps.max(1.0)).collect()),
        ),
        (
            "serving/loopback_read_p99_ns".to_string(),
            median(runs.iter().map(|r| r.p99_us * 1e3).collect()),
        ),
    ]
}

fn emit_report(filter: Option<&str>, samples: usize) -> String {
    let benches: Vec<_> = tracked::all()
        .into_iter()
        .filter(|b| filter.is_none_or(|f| b.id.contains(f)))
        .collect();
    let mut rows: Vec<(String, f64)> = Vec::new();
    for bench in &benches {
        let median = measure(bench.run, samples);
        rows.push((bench.id.to_string(), median));
    }
    // Only pay for the profiled workload when some of its rows survive
    // the filter.
    if PROFILE_PHASES
        .iter()
        .any(|phase| filter.is_none_or(|f| profile_id(phase).contains(f)))
    {
        rows.extend(
            profile_rows(samples)
                .into_iter()
                .filter(|(id, _)| filter.is_none_or(|f| id.contains(f))),
        );
    }
    if filter.is_none_or(|f| SHARDED_SCALE_ID.contains(f)) {
        rows.extend(sharded_scale_rows(samples));
    }
    let loopback_ids = [
        "serving/loopback_read_ns_per_req",
        "serving/loopback_read_p99_ns",
    ];
    if loopback_ids
        .iter()
        .any(|id| filter.is_none_or(|f| id.contains(f)))
    {
        rows.extend(
            loopback_rows(samples)
                .into_iter()
                .filter(|(id, _)| filter.is_none_or(|f| id.contains(f))),
        );
    }
    assert!(!rows.is_empty(), "filter matched no tracked benchmark");
    let mut body = String::new();
    for (i, (id, median)) in rows.iter().enumerate() {
        eprintln!("{id:<44} median {median:>12.0} ns");
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(body, "    \"{id}\": {{\"median_ns\": {median:.1}}}{comma}");
    }
    format!(
        "{{\n  \"schema\": \"gcs-bench-v1\",\n  \"mode\": \"quick\",\n  \"samples\": {samples},\n  \"benchmarks\": {{\n{body}  }}\n}}\n"
    )
}

/// Parses the flat report format: every line `"id": {"median_ns": N}`.
fn parse_report(text: &str, path: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((id, tail)) = rest.split_once('"') else {
            continue;
        };
        let Some(num) = tail
            .split_once("\"median_ns\":")
            .map(|(_, v)| v.trim().trim_end_matches(['}', ' ']))
        else {
            continue;
        };
        match num.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => out.push((id.to_string(), v)),
            _ => panic!("{path}: unparseable median for `{id}`: {num:?}"),
        }
    }
    assert!(!out.is_empty(), "{path}: no benchmarks found in report");
    out
}

fn check(baseline_path: &str, current_path: &str, tolerance: f64) -> i32 {
    let read =
        |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {p}: {e}"));
    let baseline = parse_report(&read(baseline_path), baseline_path);
    let current = parse_report(&read(current_path), current_path);

    let mut failures = 0;
    println!(
        "{:<44} {:>14} {:>14} {:>9}  verdict",
        "benchmark", "baseline ns", "current ns", "delta"
    );
    for (id, base) in &baseline {
        let Some((_, now)) = current.iter().find(|(cid, _)| cid == id) else {
            println!(
                "{id:<44} {base:>14.0} {:>14} {:>9}  MISSING (fail)",
                "-", "-"
            );
            failures += 1;
            continue;
        };
        // Loopback rows cross the kernel; gate them loosely (see the
        // module docs) so scheduler noise cannot fail the build.
        let row_tolerance = if id.starts_with(LOOPBACK_PREFIX) {
            tolerance.max(LOOPBACK_TOLERANCE)
        } else {
            tolerance
        };
        let delta = now / base - 1.0;
        let verdict = if delta > row_tolerance {
            failures += 1;
            "REGRESSED (fail)"
        } else if delta < -row_tolerance {
            "improved (consider re-blessing)"
        } else {
            "ok"
        };
        println!(
            "{id:<44} {base:>14.0} {now:>14.0} {:>8.1}%  {verdict}",
            delta * 100.0
        );
    }
    for (id, _) in &current {
        if !baseline.iter().any(|(bid, _)| bid == id) {
            println!(
                "{id:<44} {:>14} {:>14} {:>9}  new (add to baseline)",
                "-", "-", "-"
            );
        }
    }
    if failures > 0 {
        eprintln!(
            "\n{failures} benchmark(s) regressed more than {:.0}% against {baseline_path}.",
            tolerance * 100.0
        );
        eprintln!(
            "If the change is intentional, re-bless with:\n  cargo run --release -p gcs-bench \
             --bin bench_json -- --out {baseline_path}"
        );
        1
    } else {
        println!("\nbench gate OK (tolerance {:.0}%)", tolerance * 100.0);
        0
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  bench_json [--filter SUBSTR] [--out PATH|-]\n  bench_json --check BASELINE CURRENT [--tolerance FRACTION]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut check_paths: Option<(String, String)> = None;
    let mut tolerance = 0.25;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
            "--filter" => filter = Some(it.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--check" => {
                let base = it.next().unwrap_or_else(|| usage());
                let cur = it.next().unwrap_or_else(|| usage());
                check_paths = Some((base, cur));
            }
            _ => usage(),
        }
    }

    if let Some((base, cur)) = check_paths {
        std::process::exit(check(&base, &cur, tolerance));
    }

    let samples = std::env::var("GCS_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SAMPLES);
    let report = emit_report(filter.as_deref(), samples);
    match out.as_deref() {
        None | Some("-") => print!("{report}"),
        Some(path) => {
            std::fs::write(path, &report).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}
