//! Long-horizon streaming smoke run: a 64-node ring driven to 100× the
//! default horizon with recording off, random-walk drift read through the
//! *lazy* clock source, metrics from streaming observers, and a
//! flat-memory check on the engine's footprint counters — including the
//! live schedule-segment window the lazy source holds.
//!
//! ```text
//! cargo run --release --example streaming
//! ```
//!
//! This is the CI smoke job for the O(1)-memory run surface: it fails
//! loudly if the message log grows past the in-flight bound, if any event
//! records leak into a non-recording run, if the probe grid misfires, or
//! if the drift schedule's live window grows with the horizon (the
//! schedule would hold ~400 segments per node here if precomputed
//! eagerly; the lazy window stays a couple of 64-step windows per node).

use gradient_clock_sync::clocks::LazyDriftSource;
use gradient_clock_sync::net::LossyDelay;
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::sim::ClockSource;

fn main() {
    let n = 64;
    let horizon = 10_000.0; // 100× the default scenario horizon of 100
    let probe_every = 1.0;

    let rho = DriftBound::new(0.01).expect("valid rho");
    let drift = DriftModel::new(rho, 25.0, 0.002);
    let source = LazyDriftSource::new(drift, 7, n).with_walk_horizon(horizon);
    // What the pre-lazy engine would have pinned in memory for this run.
    let eager_segments = source
        .materialize_prefix(horizon)
        .iter()
        .fold(0, |acc, s| acc + s.segments().len());

    // A sprinkle of message loss: enough that the engine's
    // dropped-by-reason counter provably ticks, not enough to hurt
    // convergence.
    let mut sim = SimulationBuilder::new(Topology::ring(n))
        .drift_source(source)
        .delay_policy(LossyDelay::new(
            Box::new(UniformDelay::new(0.25, 0.75, 99)),
            0.01,
            5,
        ))
        .record_events(false)
        .build_with(|_, _| GradientNode::new(GradientParams::default()))
        .expect("ring simulation builds");
    sim.set_probe_schedule(0.0, probe_every);

    let mut global = GlobalSkewObserver::new();
    let mut adjacent = AdjacentSkewObserver::new(1.0);
    let mut profile = GradientProfileObserver::new();
    let mut validity = ValidityObserver::new(0.5);

    // Drive the run in chunks — the stepping API pauses and extends at
    // will — printing a progress line per chunk from O(1) state, and
    // tracking the peak live schedule window across the whole run.
    let chunks = 20;
    let mut peak_live_segments = 0;
    for k in 1..=chunks {
        let to = horizon * f64::from(k) / f64::from(chunks);
        sim.try_run_until_observed(
            to,
            &mut [&mut global, &mut adjacent, &mut profile, &mut validity],
        )
        .expect("the streaming run");
        let stats = sim.stats();
        peak_live_segments = peak_live_segments.max(stats.live_schedule_segments);
        println!(
            "t = {to:6.0}  dispatched = {:>8}  queued = {:>4}  msg slots = {:>3}  \
             live sched segs = {:>4}  global skew = {:.4}",
            stats.dispatched,
            stats.queued_events,
            stats.message_slots,
            stats.live_schedule_segments,
            global.worst(),
        );
    }

    let stats = sim.stats();
    println!("\nfinal footprint: {stats:?}");
    println!("probes: {}", global.probes());
    println!(
        "worst global skew: {:.4} at t = {:.1}",
        global.worst(),
        global.worst_at()
    );
    println!("worst adjacent skew: {:.4}", adjacent.worst());
    println!("validity violations: {}", validity.violations());
    println!(
        "peak live schedule segments: {peak_live_segments} (eager would hold {eager_segments})"
    );
    println!("gradient profile (distance -> worst skew):");
    for (d, s) in profile.rows().iter().take(8) {
        println!("  {d:5.1} -> {s:.4}");
    }

    // Flat-memory and sanity assertions — this example doubles as the CI
    // long-horizon smoke job.
    assert_eq!(stats.recorded_events, 0, "no event records may leak");
    assert!(
        stats.message_slots <= n * 4,
        "message log must stay at the in-flight bound, got {}",
        stats.message_slots
    );
    assert!(
        stats.trajectory_breakpoints <= n * 64,
        "trajectories must stay compacted behind the probe frontier, got {}",
        stats.trajectory_breakpoints
    );
    // The tentpole claim, pinned: the drift schedule's live window is
    // O(1) in the horizon — a few 64-step windows per node — while the
    // eager representation it replaces grows linearly with the horizon.
    assert!(
        peak_live_segments <= n * 3 * 64,
        "live schedule window must stay flat, got {peak_live_segments}"
    );
    assert!(
        peak_live_segments * 2 < eager_segments,
        "lazy window ({peak_live_segments}) must undercut the eager footprint \
         ({eager_segments})"
    );
    // The engine's own high-water marks (new with the telemetry layer)
    // must dominate the final snapshot and agree with the manual peak
    // tracking above.
    assert!(stats.peak_queued_events >= stats.queued_events);
    assert!(stats.peak_queued_events > 0, "queue high-water never moved");
    assert!(stats.peak_message_slots >= stats.message_slots);
    assert!(
        stats.peak_message_slots <= n * 4,
        "peak message slots must stay at the in-flight bound, got {}",
        stats.peak_message_slots
    );
    assert!(stats.peak_trajectory_breakpoints >= stats.trajectory_breakpoints);
    // Dropped-by-reason: the lossy policy must tick the loss counter;
    // with no churn in this run, no drop may be attributed to links.
    assert!(stats.dropped_loss > 0, "the lossy policy never dropped");
    assert_eq!(stats.dropped_link_down, 0, "no churn, no link-down drops");
    assert!(stats.dispatched > 1_000_000, "the run should be long");
    assert_eq!(
        global.probes(),
        1 + (horizon / probe_every) as u64,
        "probe grid misfired"
    );
    assert_eq!(validity.violations(), 0, "gradient node must stay valid");
    assert!(global.worst() > 0.0 && adjacent.worst() <= global.worst() + 1e-9);
    println!("\nstreaming smoke OK");
}
