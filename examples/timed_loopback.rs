//! Loopback serving smoke: a `gcs-timed` daemon on `127.0.0.1`, a
//! closed-loop load generator hammering it over real TCP, and the
//! serving contract asserted end to end.
//!
//! ```text
//! cargo run --release --example timed_loopback
//! ```
//!
//! This is the CI smoke job for the serving layer. It fails loudly if:
//!
//! - any returned interval fails `lo <= hi`, or a per-connection read
//!   sequence sees the interval low or cluster time go backward (the
//!   monotone low-watermark, observed through real sockets);
//! - the daemon seals an interval that does not contain the
//!   simulation's true time (the containment audit — the service drives
//!   the simulation, so it knows true time at every seal);
//! - the load run completes without at least one successful interval
//!   read, or the daemon fails to shut down cleanly.
//!
//! The loadgen report (requests/sec, p50/p99 latency) is written to
//! `target/timed_loadgen.json` and uploaded as a CI artifact.

use std::time::Duration;

use gcs_testkit::Scenario;
use gradient_clock_sync::prelude::*;

fn main() {
    let horizon = 120.0;
    let handle = TimedServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            pace: 100.0, // 100 sim-seconds per wall second: seals arrive every ~10ms
            horizon,
            ..ServerConfig::default()
        },
        move || {
            let sc = Scenario::ring(8)
                .algorithm(gradient_clock_sync::algorithms::AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                })
                .drift_walk(0.01, 5.0, 0.002)
                .uniform_delay(0.2, 0.8)
                .record_events(false)
                .horizon(horizon);
            TimeService::from_scenario(&sc, TimedParams::default())
        },
    )
    .expect("bind 127.0.0.1");
    println!("daemon listening on {}", handle.addr());

    // Single-client sanity pass before the load run: a ping, one
    // interval read, one scalar read.
    let mut client = TimedClient::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    let first = client.read_interval().expect("read_interval");
    assert!(
        first.lo <= first.hi,
        "malformed interval [{}, {}]",
        first.lo,
        first.hi
    );
    let (_, now) = client.now().expect("now");
    assert!(
        now >= first.lo - 1e-9,
        "cluster time below the interval low"
    );

    // Closed-loop load: 4 connections, each keeping one request in
    // flight, for one wall-clock second.
    let report = LoadGen {
        addr: handle.addr().to_string(),
        clients: 4,
        duration: Duration::from_secs(1),
    }
    .run();
    println!(
        "{} requests in {:.2}s: {:.0} req/s, p50 {:.1}us, p99 {:.1}us, {} epochs observed",
        report.requests,
        report.elapsed,
        report.rps,
        report.p50_us,
        report.p99_us,
        report.epochs_seen
    );
    assert!(report.requests > 0, "no successful interval read");
    assert_eq!(report.errors, 0, "load run saw request errors");
    assert_eq!(
        report.monotonicity_violations, 0,
        "reads went backward across epochs"
    );
    assert!(
        report.epochs_seen > 1,
        "daemon never sealed a fresh epoch under load"
    );

    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/timed_loadgen.json", report.to_json()).expect("write report");
    println!("wrote target/timed_loadgen.json");

    // Clean shutdown, then audit the daemon's own counters.
    let server = handle.shutdown();
    assert!(server.stats.seals > 0, "daemon sealed no epochs");
    assert_eq!(
        server.stats.containment_violations, 0,
        "a sealed interval excluded true simulation time"
    );
    assert_eq!(server.errors, 0, "daemon observed protocol errors");
    println!(
        "clean shutdown after {} seals, {} requests over {} connections — containment clean",
        server.stats.seals, server.requests, server.connections
    );

    // The server's side of the same run, next to the client's latency
    // above: what woke the loop, how late it took its seals, and whether
    // any connection had to be held back.
    let count = |name: &str| server.metrics.counter(name);
    println!(
        "server loop: {} wake-ups ({} ready, {} seal deadline, {} waker), {} back-pressured",
        count("server/wakeups"),
        count("server/wake_ready"),
        count("server/wake_deadline"),
        count("server/wake_waker"),
        count("server/backpressured"),
    );
    let (late_mean_us, late_p99_us) = server.seal_lateness_us().expect("the daemon sealed");
    println!("seals taken {late_mean_us:.1}us past due on average, p99 within {late_p99_us:.0}us");
    assert_eq!(
        count("server/wake_waker"),
        1,
        "exactly the shutdown wakes the loop through the waker"
    );
}
