//! E14 — the serving sweep: clock sync as a queryable service.
//!
//! `gcs-timed` turns a running simulation into a time service: per probe
//! tick it seals an immutable snapshot (per-node logical readings with
//! drift-derived uncertainty radii), intersects the samples
//! Marzullo-style at majority quorum, and serves bounded-uncertainty
//! `read_interval()` answers from the sealed epoch. This experiment
//! measures the serving layer from both sides:
//!
//! 1. **Sealed-epoch semantics** (deterministic, in-process): across
//!    cluster size × seal cadence × algorithm, how wide are the served
//!    intervals, how often does the monotone low-watermark have to
//!    clamp, and does every sealed interval contain true simulation
//!    time? (It must: the sweep only uses drift-envelope algorithms.)
//! 2. **Loopback serving under load** (wall-clock, informational): a
//!    real daemon on `127.0.0.1` with closed-loop clients — requests/sec
//!    and the p50/p99 round-trip profile, with per-connection
//!    monotonicity verified through real sockets, beside the server's
//!    own view of the run: how late it took its seals, how often its
//!    loop woke, and whether a connection was held back.

use std::time::Duration;

use gcs_algorithms::AlgorithmKind;
use gcs_testkit::Scenario;
use gcs_timed::{LoadGen, ServerConfig, TimeService, TimedParams, TimedServer};

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Drift bound used throughout the sweep.
const RHO: f64 = 0.01;

fn scenario(n: usize, algorithm: AlgorithmKind, horizon: f64) -> Scenario {
    Scenario::ring(n)
        .algorithm(algorithm)
        .drift_walk(RHO, 5.0, 0.002)
        .uniform_delay(0.2, 0.8)
        .record_events(false)
        .horizon(horizon)
}

struct SemanticsCell {
    n: usize,
    algorithm: AlgorithmKind,
    seal_every: f64,
}

fn semantics_row(cell: &SemanticsCell, horizon: f64) -> Vec<String> {
    let sc = scenario(cell.n, cell.algorithm, horizon);
    let mut svc = TimeService::from_scenario(
        &sc,
        TimedParams {
            seal_every: cell.seal_every,
            audit: true,
            ..TimedParams::default()
        },
    );
    svc.advance_to(horizon);
    let history = svc.history();
    let widths: Vec<f64> = history[1..].iter().map(|s| s.interval.width()).collect();
    let mean_width = widths.iter().sum::<f64>() / widths.len() as f64;
    let monotone = history
        .windows(2)
        .all(|p| p[1].interval.lo >= p[0].interval.lo && p[1].cluster_time >= p[0].cluster_time);
    let stats = svc.stats();
    assert_eq!(
        stats.containment_violations, 0,
        "drift-envelope algorithm sealed an interval excluding true time"
    );
    vec![
        cell.n.to_string(),
        cell.algorithm.name().to_string(),
        fnum(cell.seal_every),
        stats.seals.to_string(),
        fnum(mean_width),
        fnum(stats.max_width),
        stats.clamps.to_string(),
        stats.no_quorum.to_string(),
        stats.containment_violations.to_string(),
        if monotone { "yes" } else { "NO" }.to_string(),
    ]
}

fn loadgen_row(clients: usize, seal_every: f64, duration: Duration) -> Vec<String> {
    let horizon = 200.0;
    let handle = TimedServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            pace: 100.0,
            horizon,
            ..ServerConfig::default()
        },
        move || {
            let sc = scenario(
                8,
                AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                },
                horizon,
            );
            TimeService::from_scenario(
                &sc,
                TimedParams {
                    seal_every,
                    ..TimedParams::default()
                },
            )
        },
    )
    .expect("bind loopback");
    let report = LoadGen {
        addr: handle.addr().to_string(),
        clients,
        duration,
    }
    .run();
    let server = handle.shutdown();
    assert_eq!(
        report.monotonicity_violations, 0,
        "interval lows regressed across reads on a live connection"
    );
    assert_eq!(server.stats.containment_violations, 0);
    let (late_mean_us, late_p99_us) = server.seal_lateness_us().expect("the daemon sealed");
    vec![
        clients.to_string(),
        fnum(seal_every),
        report.requests.to_string(),
        format!("{:.0}", report.rps),
        format!("{:.1}", report.p50_us),
        format!("{:.1}", report.p99_us),
        format!("{late_mean_us:.1}"),
        format!("{late_p99_us:.0}"),
        server.metrics.counter("server/wakeups").to_string(),
        server.metrics.counter("server/backpressured").to_string(),
        report.epochs_seen.to_string(),
        report.errors.to_string(),
        report.monotonicity_violations.to_string(),
    ]
}

/// Runs the serving sweep at `scale`.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let (sizes, cadences, horizon, clients, duration) = match scale {
        Scale::Quick => (
            vec![4usize, 8],
            vec![0.5, 2.0],
            60.0,
            vec![2usize],
            Duration::from_millis(150),
        ),
        Scale::Full => (
            vec![4usize, 8, 16, 32],
            vec![0.25, 0.5, 1.0, 2.0, 4.0],
            200.0,
            vec![1usize, 2, 4, 8],
            Duration::from_millis(500),
        ),
    };
    let algorithms = [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
    ];

    let mut cells = Vec::new();
    for &n in &sizes {
        for &seal_every in &cadences {
            for &algorithm in &algorithms {
                cells.push(SemanticsCell {
                    n,
                    algorithm,
                    seal_every,
                });
            }
        }
    }
    let rows = SweepRunner::new().map(&cells, |_, cell| semantics_row(cell, horizon));
    let mut semantics = Table::new(
        "e14",
        "sealed-epoch semantics: interval width, watermark clamps, containment (majority quorum)",
        &[
            "n",
            "algorithm",
            "seal_every",
            "epochs",
            "mean_width",
            "max_width",
            "clamps",
            "no_quorum",
            "containment_viol",
            "monotone",
        ],
    );
    for row in rows {
        semantics.row_owned(row);
    }

    // The wall-clock half is measured serially: concurrent daemons would
    // contend for cores and distort each other's latency profiles.
    let mut serving = Table::new(
        "e14",
        "loopback serving under closed-loop load (wall-clock, informational)",
        &[
            "clients",
            "seal_every",
            "requests",
            "rps",
            "p50_us",
            "p99_us",
            "seal_late_mean_us",
            "seal_late_p99_le_us",
            "wakeups",
            "backpressured",
            "epochs_seen",
            "errors",
            "mono_viol",
        ],
    );
    for &c in &clients {
        for &seal_every in &cadences {
            serving.row_owned(loadgen_row(c, seal_every, duration));
        }
    }

    vec![semantics, serving]
}
