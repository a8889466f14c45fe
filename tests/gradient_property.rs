//! Cross-crate checks of the gradient property and validity condition
//! under stochastic (non-adversarial) conditions, expressed through the
//! `gcs-testkit` scenario builders and skew oracles.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::AlgorithmKind;
use gradient_clock_sync::core::analysis::max_abs_skew;
use gradient_clock_sync::core::problem::GradientFunction;

fn stochastic(kind: AlgorithmKind, n: usize, seed: u64, horizon: f64) -> Scenario {
    Scenario::line(n)
        .algorithm(kind)
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(horizon)
}

#[test]
fn every_algorithm_satisfies_validity_under_drift() {
    for kind in [
        AlgorithmKind::NoSync,
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::OffsetMax {
            period: 1.0,
            compensation: 0.5,
        },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
        AlgorithmKind::GradientRate {
            period: 1.0,
            threshold: 0.5,
            boost: 1.5,
        },
    ] {
        for seed in [1, 2, 3] {
            let exec = stochastic(kind, 8, seed, 150.0).run();
            assert_validity_in(&exec, format!("{} seed {seed}", kind.name()));
        }
    }
}

#[test]
fn gradient_algorithm_meets_a_linear_gradient_bound() {
    let exec = stochastic(
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.25,
        },
        12,
        7,
        300.0,
    )
    .run();
    // A generous linear bound: f(d) = 1.5 d + 2.5. The gradient algorithm
    // must satisfy it on every distance class of the probed profile.
    let f = GradientFunction::Linear {
        per_distance: 1.5,
        constant: 2.5,
    };
    assert_gradient_property(&exec, &f, 300);
}

#[test]
fn no_sync_violates_any_fixed_bound_eventually() {
    // Drifting clocks with no synchronization: skew grows linearly in
    // time, so a fixed bound must fail on long enough runs.
    let exec = Scenario::line(4)
        .algorithm(AlgorithmKind::NoSync)
        .spread_rates(0.02)
        .horizon(400.0)
        .run();
    let f = GradientFunction::Linear {
        per_distance: 1.0,
        constant: 1.0,
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert_gradient_property(&exec, &f, 100);
    }));
    let payload = outcome.expect_err("the oracle accepted an unsynchronized run");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("gradient property violated"),
        "unexpected oracle panic: {message}"
    );
}

#[test]
fn gradient_profiles_are_monotone_enough() {
    // The defining shape: direct neighbors stay much more tightly
    // synchronized than the global bound requires — adjacent skew is held
    // near f(1) even though the pair (0, 11) may legitimately reach f(11).
    let exec = stochastic(
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.25,
        },
        12,
        11,
        300.0,
    )
    .run();
    let f = GradientFunction::Linear {
        per_distance: 1.5,
        constant: 2.5,
    };
    let adjacent = worst_adjacent_skew(&exec, 75.0, 1.0);
    assert!(
        adjacent <= f.eval(1.0) + 1e-9,
        "adjacent skew {adjacent} exceeds f(1) = {}",
        f.eval(1.0)
    );
}

#[test]
fn exact_and_sampled_skew_measurements_agree() {
    let exec = stochastic(AlgorithmKind::Max { period: 1.0 }, 6, 5, 100.0).run();
    for (i, j) in [(0, 1), (0, 5), (2, 4)] {
        let (exact, _) = max_abs_skew(&exec, i, j, 25.0);
        // Dense sampling approaches the exact maximum from below.
        let mut sampled = 0.0_f64;
        let mut t = 25.0;
        while t <= exec.horizon() {
            sampled = sampled.max(exec.skew(i, j, t).abs());
            t += 0.01;
        }
        assert!(
            sampled <= exact + 1e-9,
            "pair ({i},{j}): sampled {sampled} > exact {exact}"
        );
        assert!(
            exact <= sampled + 0.1,
            "pair ({i},{j}): exact {exact} not approached by sampling {sampled}"
        );
    }
}

#[test]
fn global_skew_of_max_stays_diameter_bounded() {
    // The classical result the paper cites: max algorithms keep global
    // skew O(D). Check the constant is sane under benign conditions.
    let exec = stochastic(AlgorithmKind::Max { period: 1.0 }, 10, 13, 300.0).run();
    let diameter = exec.topology().diameter();
    let _ = assert_global_skew_bound(&exec, 100.0, 2.0 * diameter);
}

#[test]
fn gradient_property_holds_beyond_the_line_topology() {
    // New coverage the scenario builders make cheap: the same gradient
    // bound holds on a ring and a grid of comparable diameter.
    let f = GradientFunction::Linear {
        per_distance: 1.5,
        constant: 2.5,
    };
    for scenario in [Scenario::ring(8), Scenario::grid(3, 3)] {
        let scenario = scenario
            .algorithm(AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.25,
            })
            .drift_walk(0.02, 10.0, 0.005)
            .uniform_delay(0.1, 0.9)
            .seed(19)
            .horizon(200.0);
        let exec = scenario.run();
        assert_validity_in(&exec, scenario.name());
        assert_gradient_property(&exec, &f, 200);
    }
}
