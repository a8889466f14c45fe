//! Lazy ≡ eager drift equivalence, locked in end to end:
//!
//! 1. **Generator equivalence (property-based).** For arbitrary
//!    `(seed, n, step, max_step_change, horizon)`, the windows
//!    `LazyDriftSource` materializes on demand reproduce
//!    `DriftModel::generate` segment-for-segment and bit-for-bit — under
//!    in-order scans, out-of-order queries, inverse (`time_at_value`)
//!    access, and progressive compaction.
//! 2. **Golden fingerprint.** A random-walk scenario driven from the
//!    lazy source with recording ON fingerprints bit-identically to the
//!    committed golden of the eager run — the engine cannot tell the two
//!    representations apart.
//! 3. **Flat memory.** The streaming path (`record_events(false)`) under
//!    random-walk drift holds a horizon-independent live window of
//!    schedule segments.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::AlgorithmKind;
use gradient_clock_sync::clocks::{drift::DriftModel, ClockSource, DriftBound, LazyDriftSource};
use gradient_clock_sync::prelude::*;
use proptest::prelude::*;

fn walk_scenario(seed: u64) -> Scenario {
    Scenario::line(6)
        .algorithm(AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        })
        .drift_walk(0.03, 8.0, 0.01)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(80.0)
}

/// The satellite pin: the *recorded* golden trace, reproduced through the
/// lazy clock source. `tests/golden/line6_gradient_seed7.snap` was
/// committed from the eager path in PR 1; a lazily-driven run must match
/// it byte for byte (schedules, events, messages, trajectories).
#[test]
fn lazy_run_matches_the_committed_eager_golden() {
    let scenario = walk_scenario(7);
    let source = scenario
        .lazy_walk_source()
        .expect("walk scenarios expose the lazy source");
    let exec = gradient_clock_sync::sim::SimulationBuilder::new(scenario.topology().clone())
        .drift_source(source)
        .delay_policy(scenario.delay_policy())
        .build_with(|id, n| scenario.algorithm_kind().build(id, n))
        .expect("builds")
        .try_execute_until(scenario.horizon_time())
        .unwrap();
    assert_matches_golden(
        &exec,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/line6_gradient_seed7.snap"
        ),
    );
    // And against a fresh eager run of the same scenario, field by field.
    let eager = scenario.run();
    assert_bit_identical(&eager, &exec);
}

#[test]
fn streaming_walk_run_holds_a_flat_schedule_window() {
    let horizons = [500.0, 5000.0];
    let mut peaks = Vec::new();
    for &horizon in &horizons {
        let scenario = Scenario::ring(8)
            .algorithm(AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            })
            .drift_walk(0.02, 5.0, 0.005)
            .seed(3)
            .horizon(horizon)
            .record_events(false);
        let mut sim = scenario.build();
        sim.set_probe_schedule(0.0, 5.0);
        let mut peak = 0;
        for k in 1..=25 {
            sim.try_run_until_observed(horizon * f64::from(k) / 25.0, &mut [])
                .unwrap();
            peak = peak.max(sim.stats().live_schedule_segments);
        }
        peaks.push(peak);
    }
    // 10× the horizon, same live window (up to one generation window of
    // slack per node).
    assert!(
        peaks[1] <= peaks[0] + 8 * 64,
        "live schedule window grew with the horizon: {peaks:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Lazy windows reproduce the eager generator segment-for-segment:
    // identical breakpoint times, rates, and integrated values, at
    // every breakpoint and between them.
    #[test]
    fn lazy_windows_reproduce_eager_segments(
        seed in 0u64..1_000_000,
        n in 1usize..5,
        step in 0.5f64..20.0,
        max_step_change in 0.001f64..0.05,
        horizon in 10.0f64..400.0,
        window_len in 1u64..80,
    ) {
        let model = DriftModel::new(DriftBound::new(0.04).unwrap(), step, max_step_change);
        let eager = model.generate_network(seed, n, horizon);
        let lazy = LazyDriftSource::with_window_len(model, seed, n, window_len)
            .with_walk_horizon(horizon);
        for (node, schedule) in eager.iter().enumerate() {
            for (k, &(t, rate)) in schedule.segments().iter().enumerate() {
                // At the breakpoint itself…
                prop_assert_eq!(lazy.rate_at(node, t).to_bits(), rate.to_bits(),
                    "rate at node {} segment {}", node, k);
                prop_assert_eq!(
                    lazy.value_at(node, t).to_bits(),
                    schedule.value_at(t).to_bits(),
                    "value at node {} segment {}", node, k
                );
                // …and strictly inside the segment.
                let mid = t + 0.25 * step;
                prop_assert_eq!(lazy.rate_at(node, mid).to_bits(), rate.to_bits());
                prop_assert_eq!(
                    lazy.value_at(node, mid).to_bits(),
                    schedule.value_at(mid).to_bits()
                );
            }
            // Same segment count: the lazy walk invents no extra
            // breakpoints and stops where the eager generator stops.
            prop_assert_eq!(lazy.retained_segments(node), schedule.segments().len());
        }
    }

    // The inverse is the same function too, including past the walk
    // horizon where the last rate extrapolates.
    #[test]
    fn lazy_inverse_matches_eager(
        seed in 0u64..1_000_000,
        step in 1.0f64..15.0,
        horizon in 20.0f64..200.0,
        queries in proptest::collection::vec(0.0f64..1.2, 1..12),
    ) {
        let model = DriftModel::new(DriftBound::new(0.03).unwrap(), step, 0.01);
        let eager = &model.generate_network(seed, 1, horizon)[0];
        let lazy = LazyDriftSource::new(model, seed, 1).with_walk_horizon(horizon);
        for q in queries {
            // Map the unit query onto [0, 1.2 · horizon] worth of value.
            let v = eager.value_at(q * horizon);
            prop_assert_eq!(
                lazy.time_at_value(0, v).to_bits(),
                eager.time_at_value(v).to_bits()
            );
        }
    }

    // Compaction behind a monotone probe frontier never perturbs a bit
    // of what remains queryable.
    #[test]
    fn compaction_preserves_forward_queries(
        seed in 0u64..1_000_000,
        step in 0.5f64..10.0,
        stride in 1.0f64..40.0,
    ) {
        let horizon = 600.0;
        let model = DriftModel::new(DriftBound::new(0.05).unwrap(), step, 0.01);
        let eager = &model.generate_network(seed, 1, horizon)[0];
        let lazy = LazyDriftSource::new(model, seed, 1).with_walk_horizon(horizon);
        let mut t = 0.0;
        while t < horizon {
            prop_assert_eq!(lazy.value_at(0, t).to_bits(), eager.value_at(t).to_bits());
            lazy.compact_before(t);
            // Still exact at the frontier itself after compaction.
            prop_assert_eq!(lazy.rate_at(0, t).to_bits(), eager.rate_at(t).to_bits());
            t += stride;
        }
    }

    // Streaming metric equivalence at the scenario level: the streaming
    // path (lazy source) and the recorded replay (eager schedules)
    // produce bit-equal observer results on random walk scenarios.
    #[test]
    fn streamed_walk_metrics_equal_recorded_replay(seed in 1u64..500) {
        let scenario = Scenario::ring(6)
            .algorithm(AlgorithmKind::Gradient { period: 1.0, kappa: 0.5 })
            .drift_walk(0.02, 4.0, 0.008)
            .uniform_delay(0.2, 0.8)
            .seed(seed)
            .horizon(32.0);

        let mut live_global = GlobalSkewObserver::new();
        let mut live_profile = GradientProfileObserver::new();
        let _ = scenario
            .clone()
            .record_events(false)
            .run_observed(0.0, 0.5, &mut [&mut live_global, &mut live_profile]);

        let exec = scenario.run();
        let mut replay_global = GlobalSkewObserver::new();
        let mut replay_profile = GradientProfileObserver::new();
        observe_execution(&exec, 0.0, 0.5, &mut [&mut replay_global, &mut replay_profile]);

        prop_assert_eq!(live_global.worst().to_bits(), replay_global.worst().to_bits());
        prop_assert_eq!(
            live_global.worst_at().to_bits(),
            replay_global.worst_at().to_bits()
        );
        prop_assert_eq!(live_profile.rows(), replay_profile.rows());
    }
}
