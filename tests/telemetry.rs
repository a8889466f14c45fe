//! Telemetry guarantees across the stack: the trace stream is
//! bit-deterministic (pinned by a committed golden fingerprint and by
//! byte-identical Chrome exports across runs and sweep thread counts),
//! streaming mode's ring buffer keeps exactly the recorded stream's
//! tail, and a replayed execution reconstructs to the identical trace.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::AlgorithmKind;
use gradient_clock_sync::core::replay::{nominal_fallback, replay_execution};
use gradient_clock_sync::dynamic::ChurnSchedule;
use gradient_clock_sync::experiments::SweepRunner;
use gradient_clock_sync::telemetry::{
    chrome_trace_json, trace_fingerprint, trace_from_execution, validate_chrome_trace, TraceEvent,
    TraceRecorder,
};
use proptest::prelude::*;

/// The representative churned scenario the trace golden pins: a flapping
/// edge, stochastic drift, random delays, dynamic gradient nodes.
fn churned_ring(seed: u64) -> Scenario {
    Scenario::ring(8)
        .named(format!("trace_ring8_flap10_s{seed}"))
        .algorithm(AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        })
        .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 60.0))
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(60.0)
}

/// Runs the scenario with a full trace recorder attached and returns the
/// captured stream.
fn traced_run(scenario: &Scenario) -> Vec<TraceEvent> {
    let recorder = TraceRecorder::recorded();
    let mut sim = scenario.build();
    sim.set_tracer(Box::new(recorder.clone()));
    sim.try_run_until_observed(scenario.horizon_time(), &mut [])
        .unwrap();
    recorder.events()
}

#[test]
fn churned_trace_matches_committed_golden_fingerprint() {
    // Any change to trace emission order, event contents, or float
    // arithmetic fails here first. Regenerate intentionally with:
    // GCS_BLESS=1 cargo test -q
    let events = traced_run(&churned_ring(7));
    assert_text_matches_golden(
        &trace_fingerprint(&events),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/trace_ring8_flap10_seed7.snap"
        ),
    );
}

#[test]
fn chrome_export_is_byte_identical_across_runs_and_thread_counts() {
    let scenario = churned_ring(7);
    let export = || chrome_trace_json(&traced_run(&scenario), 8);

    // Two runs in this thread: byte-identical.
    let a = export();
    assert_eq!(a, export(), "trace export differs between identical runs");

    // The same export produced inside sweep workers, single-threaded vs
    // defaulted: byte-identical again (tracing is thread-count
    // invariant because each run is self-contained).
    let seeds: Vec<u64> = vec![7, 1, 2, 3];
    let sweep = |runner: &SweepRunner| {
        runner.map(&seeds, |_, &s| {
            chrome_trace_json(&traced_run(&churned_ring(s)), 8)
        })
    };
    let single = sweep(&SweepRunner::with_threads(1));
    let parallel = sweep(&SweepRunner::new());
    assert_eq!(single, parallel, "sweep thread count changed a trace");
    assert_eq!(single[0], a, "sweep worker trace differs from inline run");

    // And the bytes are a structurally valid Chrome trace.
    let stats = validate_chrome_trace(&a).expect("valid chrome trace");
    assert!(stats.begins > 0 && stats.instants > 0);
}

#[test]
fn replayed_execution_reconstructs_the_identical_trace() {
    // Lossless static nominal-rate scenario: every message delivered
    // (the replay oracle's own precondition) and hardware↔real
    // conversions exact (replay pins deliveries in hardware time, so
    // under drift the re-derived real times could legally differ by an
    // ulp — at rate 1 the round trip is bitwise).
    let scenario = Scenario::line(6)
        .algorithm(AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        })
        .nominal_rates()
        .uniform_delay(0.25, 0.75)
        .seed(11)
        .horizon(50.0);

    // Live trace of the recorded run, and the execution it recorded.
    let recorder = TraceRecorder::recorded();
    let mut sim = scenario.build();
    sim.set_tracer(Box::new(recorder.clone()));
    sim.try_run_until_observed(scenario.horizon_time(), &mut [])
        .unwrap();
    let exec = sim.into_execution();
    let live = recorder.events();

    // The live stream and the post-hoc reconstruction agree bit for bit.
    let reconstructed = trace_from_execution(&exec);
    assert_eq!(
        trace_fingerprint(&live),
        trace_fingerprint(&reconstructed),
        "live trace != reconstruction from the recorded execution"
    );

    // Replaying the recorded deliveries yields an execution whose
    // reconstruction is bit-identical too.
    let replayed = replay_execution(
        &exec,
        scenario.horizon_time(),
        nominal_fallback(exec.topology()),
        |id, n| {
            AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            }
            .build(id, n)
        },
    )
    .expect("replay builds");
    assert_eq!(
        trace_fingerprint(&reconstructed),
        trace_fingerprint(&trace_from_execution(&replayed)),
        "replayed execution reconstructs a different trace"
    );
}

proptest! {
    // Streaming mode's bounded ring holds exactly the tail of the full
    // recorded stream, whatever the capacity and scenario.
    #[test]
    fn streaming_ring_buffer_keeps_the_recorded_tail(
        capacity in 1usize..200,
        seed in 0u64..32,
        horizon in 10.0f64..40.0,
    ) {
        let scenario = Scenario::ring(5)
            .algorithm(AlgorithmKind::Max { period: 1.0 })
            .drift_walk(0.02, 8.0, 0.005)
            .uniform_delay(0.1, 0.9)
            .seed(seed)
            .horizon(horizon);

        let run = |recorder: &TraceRecorder| {
            let mut sim = scenario.build();
            sim.set_tracer(Box::new(recorder.clone()));
            sim.try_run_until_observed(scenario.horizon_time(), &mut []).unwrap();
        };
        let full = TraceRecorder::recorded();
        run(&full);
        let ring = TraceRecorder::streaming(capacity);
        run(&ring);

        let full_events = full.events();
        let tail_len = capacity.min(full_events.len());
        let expected = &full_events[full_events.len() - tail_len..];
        prop_assert_eq!(
            trace_fingerprint(&ring.events()),
            trace_fingerprint(expected),
            "ring tail diverged (capacity {})", capacity
        );
        prop_assert_eq!(ring.total_recorded(), full_events.len() as u64);
    }
}
