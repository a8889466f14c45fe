//! Telemetry tour: trace a churned gradient ring, export the trace for
//! Chrome's tracing UI (or Perfetto), print the run's metrics, and walk
//! a skew peak back to its causal chain.
//!
//! ```text
//! cargo run --release --example trace_tour
//! ```
//!
//! Writes `target/trace.json` — open it at `ui.perfetto.dev` or
//! `chrome://tracing`: one track per node, message lifetimes as async
//! spans from send to deliver (or drop), timer fires and link changes as
//! instants, probes on their own track. This example doubles as the CI
//! trace smoke job: it validates the exported JSON structurally and
//! asserts the tracer saw every message the execution recorded.

use gradient_clock_sync::dynamic::{ChurnSchedule, DynamicTopology};
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::sim::MessageStatus;
use gradient_clock_sync::telemetry::{
    chrome_trace_json, skew_explain, validate_chrome_trace, RunMetrics, TraceEvent, TraceRecorder,
    Tracer,
};

/// Feeds each trace event to both consumers: the full recorder (for the
/// export and the forensics) and the metrics registry.
struct Fanout(TraceRecorder, RunMetrics);

impl Tracer for Fanout {
    fn record(&mut self, event: &TraceEvent) {
        self.0.record(event);
        self.1.record(event);
    }
}

fn main() {
    let n = 8;
    let horizon = 60.0;
    let probe_every = 1.0;

    // A ring with one flapping edge: link churn shows up in the trace as
    // link-change instants and dropped in-flight messages.
    let view = DynamicTopology::new(
        Topology::ring(n),
        ChurnSchedule::periodic_flap(0, 1, 10.0, horizon),
    )
    .expect("valid churn schedule");
    let rho = DriftBound::new(0.02).expect("valid rho");
    let drift = DriftModel::new(rho, 10.0, 0.005);

    let recorder = TraceRecorder::recorded();
    let metrics = RunMetrics::new();
    let mut sim = SimulationBuilder::new_dynamic(view)
        .schedules(drift.generate_network(7, n, horizon))
        .delay_policy(UniformDelay::new(0.25, 0.75, 99))
        .build_with(|_, _| GradientNode::new(GradientParams::default()))
        .expect("ring simulation builds");
    sim.set_tracer(Box::new(Fanout(recorder.clone(), metrics.clone())));
    sim.set_probe_schedule(0.0, probe_every);

    let mut global = GlobalSkewObserver::new();
    let mut metrics_observer = metrics.clone();
    sim.try_run_until_observed(horizon, &mut [&mut global, &mut metrics_observer])
        .expect("the traced run");
    metrics.stamp_stats(&sim.stats());
    let exec = sim.into_execution();

    // 1. The trace, exported for Chrome's tracing UI.
    let events = recorder.events();
    let json = chrome_trace_json(&events, n);
    let stats = validate_chrome_trace(&json).expect("exported trace must be valid");
    let path = std::path::Path::new("target").join("trace.json");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write(&path, &json).expect("write trace.json");
    println!(
        "wrote {} ({} trace events -> {} chrome events: {} spans, {} instants)",
        path.display(),
        events.len(),
        stats.total,
        stats.begins,
        stats.instants
    );

    // 2. The metrics the same run accumulated, as deterministic JSON.
    let registry = metrics.snapshot();
    println!("\nrun metrics:\n{}", registry.to_json());

    // 3. Forensics: walk the worst observed skew on the flapping edge
    // back along message causality to its origin.
    let report = skew_explain(&exec, global.worst_at(), (0, 1));
    println!("skew forensics at the worst probe:\n{}", report.render());

    // Smoke assertions (this example is a CI job).
    let delivered = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Deliver { .. }))
        .count();
    let dropped = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Drop { .. }))
        .count();
    assert!(delivered > 0, "the trace saw no deliveries");
    assert!(dropped > 0, "a flapping edge must drop something");
    assert_eq!(
        delivered + dropped,
        exec.messages()
            .iter()
            .filter(|m| m.status != MessageStatus::InFlight)
            .count(),
        "the tracer must see every resolved message the execution recorded"
    );
    assert!(stats.unmatched_begins <= stats.begins);
    assert!(
        registry.counter("events/deliver") == delivered as u64,
        "metrics and trace disagree on deliveries"
    );
    assert!(!report.is_empty(), "the causal chain must be non-empty");
    println!("trace tour OK");
}
