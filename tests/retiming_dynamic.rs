//! Churn-aware retiming, end to end: identity retimings of churned
//! executions are byte-identical (proptest over topology × churn × delay
//! × algorithm), uniform dynamic speed-ups are indistinguishable and pass
//! the dynamic validation provisos, and the E13 fresh-link construction
//! is pinned by a golden snapshot.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::AlgorithmKind;
use gradient_clock_sync::clocks::{DriftBound, RateSchedule, TimeWarp};
use gradient_clock_sync::core::indist::{distinctions, indistinguishable};
use gradient_clock_sync::core::lower_bound::{FreshLinkParams, FreshLinkSkew};
use gradient_clock_sync::core::retiming::Retiming;
use gradient_clock_sync::dynamic::{ChurnEvent, ChurnKind, ChurnSchedule, DynamicTopology};
use gradient_clock_sync::net::Topology;
use gradient_clock_sync::prelude::*;
use proptest::prelude::*;

/// A churned, nominal-rate scenario: ring or line, Poisson edge churn or
/// a periodic flap, uniform or fixed delays, max or dynamic-gradient
/// algorithm. Nominal rates keep hardware↔real conversions exact, so the
/// identity claim below can be bitwise; the churn machinery — warped
/// topology-change events, the carried view, link-down drops, the k-way
/// merge — is exercised in full.
#[allow(clippy::too_many_arguments)] // mirrors the proptest inputs one-to-one
fn churned_scenario(
    ring: bool,
    n: usize,
    flap: bool,
    churn_rate_centi: u8,
    uniform: bool,
    dynamic_gradient: bool,
    seed: u64,
    horizon_deci: u16,
) -> Scenario {
    let horizon = f64::from(horizon_deci) / 10.0;
    let base = if ring {
        Topology::ring(n)
    } else {
        Topology::line(n)
    };
    let churn = if flap {
        ChurnSchedule::periodic_flap(0, 1, 7.0, horizon)
    } else {
        ChurnSchedule::random_churn(
            &base.neighbor_edges(),
            0.05 + f64::from(churn_rate_centi) / 100.0,
            horizon,
            seed ^ 0xC0FFEE,
        )
    };
    let kind = if dynamic_gradient {
        AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 10.0,
        }
    } else {
        AlgorithmKind::Max { period: 1.0 }
    };
    let scenario = if ring {
        Scenario::ring(n)
    } else {
        Scenario::line(n)
    };
    let scenario = scenario
        .algorithm(kind)
        .churn(churn)
        .seed(seed)
        .horizon(horizon);
    if uniform {
        scenario.uniform_delay(0.1, 0.9)
    } else {
        scenario.fixed_delay(0.5)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The identity retiming (identity warp + original schedules) of a
    // churned execution reproduces it byte for byte.
    #[test]
    fn identity_retiming_of_churned_execution_is_byte_identical(
        ring in proptest::bool::ANY,
        n in 4usize..8,
        flap in proptest::bool::ANY,
        churn_rate_centi in 0u8..30,
        uniform in proptest::bool::ANY,
        dynamic_gradient in proptest::bool::ANY,
        seed in 0u64..1000,
        horizon_deci in 300u16..700,
    ) {
        let exec = churned_scenario(
            ring, n, flap, churn_rate_centi, uniform, dynamic_gradient, seed, horizon_deci,
        )
        .run();
        let retimed = Retiming::identity(&exec).apply(&exec);
        prop_assert_eq!(fingerprint(&exec), fingerprint(&retimed));
        // And it machine-validates: rates, delays, liveness, change sync.
        let report = Retiming::identity(&exec).validate(
            &retimed,
            DriftBound::new(0.5).unwrap(),
            |i, j| (0.0, exec.topology().distance(i, j)),
        );
        prop_assert!(report.is_valid(), "{}", report);
    }

    // A uniform churn-aware speed-up — every schedule at γ, the churn
    // timeline warped by 1/γ — is indistinguishable from the original to
    // every node and passes all dynamic validation provisos.
    #[test]
    fn uniform_dynamic_speedup_is_indistinguishable(
        n in 4usize..8,
        seed in 0u64..1000,
        gamma_centi in 1u8..40,
    ) {
        let gamma = 1.0 + f64::from(gamma_centi) / 100.0;
        let exec = churned_scenario(true, n, false, 10, true, false, seed, 500).run();
        let retiming = Retiming::new(
            vec![RateSchedule::constant(gamma); n],
            exec.horizon() / gamma,
        )
        .with_warp(TimeWarp::uniform(1.0 / gamma));
        let retimed = retiming.apply(&exec);
        prop_assert!(indistinguishable(&exec, &retimed, 1e-9));
        let report = retiming.validate(&retimed, DriftBound::new(0.5).unwrap(), |i, j| {
            (0.0, exec.topology().distance(i, j))
        });
        prop_assert!(report.link_violations.is_empty(), "{}", report);
        prop_assert!(report.change_violations.is_empty(), "{}", report);
        prop_assert!(report.delay_violations.is_empty(), "{}", report);
    }
}

#[test]
fn identity_of_drifting_churned_execution_is_observation_identical() {
    // Under random-walk drift the real-time round trip through
    // time_at_value(value_at(t)) is not bitwise in general, but the
    // observations — hardware readings and event kinds, per node, in
    // order — are what indistinguishability preserves, and those must be
    // exact even for a drifting churned run.
    let exec = Scenario::ring(6)
        .algorithm(AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 10.0,
        })
        .churn(ChurnSchedule::periodic_flap(0, 1, 8.0, 60.0))
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(11)
        .horizon(60.0)
        .run();
    let retimed = Retiming::identity(&exec).apply(&exec);
    let d = distinctions(&exec, &retimed, 0.0);
    assert!(d.is_empty(), "first distinction: {:?}", d.first());
}

fn freshlink_alpha() -> Execution<gradient_clock_sync::prelude::SyncMsg> {
    let d = 4.0;
    let formation = 30.0;
    let topology = Topology::from_matrix(vec![0.0, d, d, 0.0], d).unwrap();
    let churn = ChurnSchedule::new(vec![
        ChurnEvent {
            time: 0.0,
            kind: ChurnKind::EdgeDown { a: 0, b: 1 },
        },
        ChurnEvent {
            time: formation,
            kind: ChurnKind::EdgeUp { a: 0, b: 1 },
        },
    ]);
    let view = DynamicTopology::new(topology, churn).unwrap();
    SimulationBuilder::new_dynamic(view)
        .schedules(vec![RateSchedule::constant(1.0); 2])
        .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
        .unwrap()
        .try_execute_until(formation + 2.0)
        .unwrap()
}

#[test]
fn fresh_link_construction_matches_committed_golden_snapshot() {
    // Pins the E13 construction end to end: the warped churn timeline,
    // the per-side schedules, the k-way-merged event order, and every
    // re-timed message. Regenerate intentionally with:
    // GCS_BLESS=1 cargo test -q
    let alpha = freshlink_alpha();
    let outcome = FreshLinkSkew::new(DriftBound::new(0.1).unwrap())
        .apply(&alpha, FreshLinkParams::new(0, 1))
        .unwrap();
    assert!(outcome.report.validation.is_valid());
    assert_eq!(outcome.report.pre_formation_distinctions, 0);
    assert_matches_golden(
        &outcome.transformed,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/freshlink_d4_f30_max_beta.snap"
        ),
    );
}

#[test]
fn fresh_link_construction_is_deterministic() {
    let run = || {
        let alpha = freshlink_alpha();
        FreshLinkSkew::new(DriftBound::new(0.1).unwrap())
            .apply(&alpha, FreshLinkParams::new(0, 1))
            .unwrap()
            .transformed
    };
    assert_bit_identical(&run(), &run());
}
