//! The streaming-observer contract:
//!
//! 1. **Streaming ≡ post-hoc.** Every built-in streaming metric computed
//!    *live* (observers attached to the run, recording off) is bit-equal
//!    to the same observers replayed over the recorded execution of the
//!    identical scenario — across line/ring/grid/churn scenarios, both
//!    example-based and property-based.
//! 2. **Byte-stability.** The stepping redesign changes nothing about
//!    recorded executions: chunked `try_run_until_observed` calls,
//!    step-by-step drives, and the one-shot `try_execute_until` all fingerprint
//!    identically (the committed goldens in `tests/golden/` separately
//!    pin today's bytes against history).
//! 3. **Flat memory.** A `record_events(false)` run holds its message
//!    log at the in-flight bound and keeps no event records, at 10× the
//!    default horizon.

use gcs_testkit::prelude::*;
use gradient_clock_sync::dynamic::ChurnSchedule;
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::sim::observe_execution;
use proptest::prelude::*;

use gcs_algorithms::AlgorithmKind;

/// The scenario families the equivalence contract covers. Horizons and
/// cadences are chosen dyadic so replay probe times are bit-equal to live
/// probe times regardless of how they are computed.
fn scenario_family(which: usize, seed: u64) -> Scenario {
    let algorithm = AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    };
    match which % 4 {
        0 => Scenario::line(6)
            .algorithm(algorithm)
            .drift_walk(0.02, 8.0, 0.005)
            .uniform_delay(0.1, 0.9)
            .seed(seed)
            .horizon(64.0),
        1 => Scenario::ring(8)
            .algorithm(algorithm)
            .spread_rates(0.03)
            .uniform_delay(0.2, 0.8)
            .seed(seed)
            .horizon(64.0),
        2 => Scenario::grid(3, 3)
            .algorithm(algorithm)
            .drift_walk(0.01, 16.0, 0.002)
            .seed(seed)
            .horizon(64.0),
        _ => Scenario::ring(6)
            .algorithm(AlgorithmKind::DynamicGradient {
                period: 1.0,
                kappa_strong: 0.5,
                kappa_weak: 4.0,
                window: 10.0,
            })
            .churn(ChurnSchedule::periodic_flap(0, 1, 8.0, 56.0))
            .spread_rates(0.02)
            .uniform_delay(0.25, 0.75)
            .seed(seed)
            .horizon(64.0),
    }
}

/// Runs `scenario` twice — once live/streaming (recording off), once
/// recorded + replayed — and returns both metric sets.
fn both_paths(scenario: &Scenario, from: f64, every: f64) -> (StreamedMetrics, StreamedMetrics) {
    let (live, _) = StreamedMetrics::collect(1.0, |observers| {
        scenario
            .clone()
            .record_events(false)
            .run_observed(from, every, observers)
    });
    let posthoc = streamed_metrics(&scenario.run(), from, every, 1.0);
    (live, posthoc)
}

#[test]
fn streaming_equals_posthoc_on_every_family() {
    for which in 0..4 {
        let scenario = scenario_family(which, 11);
        let (live, posthoc) = both_paths(&scenario, 16.0, 0.5);
        assert_eq!(
            live,
            posthoc,
            "family {which} ({}) diverged between live and replay",
            scenario.name()
        );
        assert!(live.global_skew > 0.0, "family {which} measured nothing");
        assert_eq!(live.validity_violations, 0, "family {which}");
    }
}

#[test]
fn streaming_metrics_match_the_core_sampled_oracles() {
    // The sampled metrics are lower bounds on the exact breakpoint-based
    // oracles.
    let exec = scenario_family(1, 23).run();
    let posthoc = streamed_metrics(&exec, 0.0, 0.5, 1.0);
    let exact_global = assert_global_skew_bound(&exec, 0.0, 1e6);
    assert!(posthoc.global_skew <= exact_global + 1e-9);
    let exact_adjacent = worst_adjacent_skew(&exec, 0.0, 1.0);
    assert!(posthoc.adjacent_skew <= exact_adjacent + 1e-9);
    let exact_profile = GradientProfile::measure(&exec, 0.0).rows();
    assert_eq!(posthoc.profile.len(), exact_profile.len());
    for ((d, probed), (d_exact, exact)) in posthoc.profile.iter().zip(&exact_profile) {
        assert_eq!(d, d_exact);
        assert!(
            probed <= &(exact + 1e-9),
            "distance {d}: {probed} > {exact}"
        );
    }
}

#[test]
fn chunked_and_stepped_runs_fingerprint_identically() {
    for which in 0..4 {
        let scenario = scenario_family(which, 5);
        let one_shot = scenario.run();

        let mut chunked = scenario.build();
        for fraction in [0.25, 0.5, 0.75, 1.0] {
            chunked
                .try_run_until_observed(scenario.horizon_time() * fraction, &mut [])
                .unwrap();
        }
        assert_bit_identical(&one_shot, &chunked.into_execution());

        let mut stepped = scenario.build();
        while stepped
            .next_event_time()
            .is_some_and(|t| t <= scenario.horizon_time())
        {
            stepped.try_step_observed(&mut []).unwrap();
        }
        stepped
            .try_run_until_observed(scenario.horizon_time(), &mut [])
            .unwrap(); // settle ran_to on the horizon
        assert_bit_identical(&one_shot, &stepped.into_execution());
    }
}

#[test]
fn observed_runs_do_not_perturb_the_record() {
    // Attaching observers (and probing) must not change the recorded
    // execution by a single bit.
    let scenario = scenario_family(3, 17);
    let plain = scenario.run();
    let mut global = GlobalSkewObserver::new();
    let observed = scenario.run_observed(0.0, 0.5, &mut [&mut global]);
    assert_bit_identical(&plain, &observed);
    assert!(global.probes() > 0);
}

#[test]
fn streaming_run_is_flat_at_ten_times_the_default_horizon() {
    // Default scenario horizon is 100; drive a 64-node ring to 1000 with
    // recording off and check the footprint counters stay at the
    // in-flight bound.
    let scenario = Scenario::ring(64)
        .algorithm(AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        })
        .spread_rates(0.01)
        .record_events(false)
        .horizon(1000.0);
    let mut sim = scenario.build();
    sim.set_probe_schedule(0.0, 10.0);
    let mut global = GlobalSkewObserver::new();
    sim.try_run_until_observed(1000.0, &mut [&mut global])
        .unwrap();

    let stats = sim.stats();
    assert_eq!(stats.recorded_events, 0);
    assert!(
        stats.dispatched > 100_000,
        "the run should be long: {stats:?}"
    );
    // Each node gossips to two ring neighbors once per period, so the
    // in-flight bound is ~2 messages per node — far below the ~128k sent.
    assert!(
        stats.message_slots <= 64 * 4,
        "message log must stay at the in-flight bound: {stats:?}"
    );
    // Trajectory compaction holds breakpoints near the probe frontier.
    assert!(
        stats.trajectory_breakpoints <= 64 * 64,
        "trajectories must stay compacted: {stats:?}"
    );
    assert_eq!(global.probes(), 101);
    assert!(global.worst() > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Property: on any family and seed, every streaming metric equals
    // its replayed post-hoc value bit-for-bit.
    #[test]
    fn prop_streaming_equals_posthoc(which in 0usize..4, seed in 1u64..500) {
        let scenario = scenario_family(which, seed);
        let (live, posthoc) = both_paths(&scenario, 16.0, 2.0);
        prop_assert_eq!(live, posthoc);
    }

    // Property: replaying the same recorded execution through observers
    // twice is deterministic.
    #[test]
    fn prop_replay_is_deterministic(which in 0usize..4, seed in 1u64..500) {
        let scenario = scenario_family(which, seed);
        let exec = scenario.run();
        let a = streamed_metrics(&exec, 8.0, 2.0, 1.0);
        let b = streamed_metrics(&exec, 8.0, 2.0, 1.0);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn observe_execution_fires_finish_at_the_horizon() {
    struct Finished(Option<f64>);
    impl Observer for Finished {
        fn finish(&mut self, at: f64) {
            self.0 = Some(at);
        }
    }
    let exec = scenario_family(0, 3).run();
    let mut finished = Finished(None);
    observe_execution(&exec, 0.0, 8.0, &mut [&mut finished]);
    assert_eq!(finished.0, Some(exec.horizon()));
}
