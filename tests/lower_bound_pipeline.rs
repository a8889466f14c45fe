//! End-to-end integration of the lower-bound machinery: simulate →
//! transform → validate → replay → extend, across algorithm families.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::{AlgorithmKind, SyncMsg};
use gradient_clock_sync::core::indist::prefix_distinctions;
use gradient_clock_sync::core::lower_bound::shift::demonstrate_omega_d;
use gradient_clock_sync::core::lower_bound::{
    AddSkew, AddSkewParams, MainTheorem, MainTheoremConfig,
};
use gradient_clock_sync::core::replay::{nominal_fallback, replay_execution};
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::sim::Execution;

fn rho() -> DriftBound {
    DriftBound::new(0.5).expect("valid rho")
}

fn all_kinds() -> Vec<AlgorithmKind> {
    vec![
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
    ]
}

/// A nominal (rate-1 clocks, half-distance delays) line run — the
/// baseline every lower-bound construction transforms.
fn nominal_run(kind: AlgorithmKind, n: usize) -> Execution<SyncMsg> {
    let tau = rho().tau();
    Scenario::line(n)
        .algorithm(kind)
        .nominal_rates()
        .horizon(tau * (n as f64 - 1.0))
        .run()
}

#[test]
fn add_skew_guarantee_holds_for_every_algorithm_family() {
    for kind in all_kinds() {
        let alpha = nominal_run(kind, 10);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 9))
            .expect("preconditions hold");
        let r = &outcome.report;
        assert!(
            r.gain >= r.guaranteed_gain - 1e-9,
            "{}: gain {} below guarantee {}",
            kind.name(),
            r.gain,
            r.guaranteed_gain
        );
        assert!(r.validation.is_valid(), "{}: {}", kind.name(), r.validation);
        assert!(r.rates_upper_half, "{}", kind.name());
    }
}

#[test]
fn transformed_executions_replay_exactly_for_every_algorithm_family() {
    for kind in all_kinds() {
        let alpha = nominal_run(kind, 8);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 7))
            .expect("preconditions hold");
        let beta = &outcome.transformed;
        // Replay past the transformed horizon.
        let replayed = replay_execution(
            beta,
            beta.horizon() + 5.0,
            nominal_fallback(alpha.topology()),
            |id, nn| kind.build(id, nn),
        )
        .expect("replay builds");
        let d = prefix_distinctions(beta, &replayed, 0.0);
        assert!(d.is_empty(), "{}: replay diverged: {d:?}", kind.name());
        assert!(replayed.events().len() >= beta.events().len());
    }
}

#[test]
fn every_algorithm_satisfies_validity_under_adversarial_transform() {
    for kind in all_kinds() {
        let alpha = nominal_run(kind, 8);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 7))
            .expect("preconditions hold");
        assert_validity_in(&outcome.transformed, kind.name());
    }
}

#[test]
fn omega_d_lower_bound_holds_for_every_algorithm_family() {
    for kind in all_kinds() {
        for d in [1.0, 8.0] {
            let r = demonstrate_omega_d(rho(), d, 0.0, |id, n| kind.build(id, n))
                .expect("construction applies");
            assert!(r.valid, "{} at d={d}", kind.name());
            assert!(
                r.witnessed_skew >= r.guaranteed - 1e-9,
                "{} at d={d}: {} < {}",
                kind.name(),
                r.witnessed_skew,
                r.guaranteed
            );
        }
    }
}

#[test]
fn main_theorem_accumulates_adjacent_skew_for_max_and_gradient() {
    for kind in [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
    ] {
        let cfg = MainTheoremConfig {
            max_rounds: 2,
            ..MainTheoremConfig::practical(33, rho())
        };
        let report = MainTheorem::new(cfg)
            .run(|id, n| kind.build(id, n))
            .expect("construction runs");
        assert_eq!(report.rounds_completed(), 2, "{}", kind.name());
        for r in &report.rounds {
            assert!(
                r.prefix_ok,
                "{} round {}: replay diverged",
                kind.name(),
                r.k
            );
            assert!(
                r.add_skew_gain >= r.span as f64 / 12.0 - 1e-9,
                "{} round {}",
                kind.name(),
                r.k
            );
        }
        // Adjacent skew is strictly positive after two rounds.
        assert!(
            report.final_adjacent_skew > 0.05,
            "{}: final adjacent skew {}",
            kind.name(),
            report.final_adjacent_skew
        );
    }
}

#[test]
fn main_theorem_rounds_grow_with_diameter() {
    let run_rounds = |nodes: usize| {
        MainTheorem::new(MainTheoremConfig::practical(nodes, rho()))
            .run(|id, n| AlgorithmKind::Max { period: 1.0 }.build(id, n))
            .expect("construction runs")
            .rounds_completed()
    };
    assert!(run_rounds(65) > run_rounds(9));
}

#[test]
fn chained_add_skew_compounds_skew() {
    // Apply Add Skew, extend nominally, then apply it again to an interior
    // pair: skews compound across applications — the manual version of the
    // main theorem's loop.
    let kind = AlgorithmKind::NoSync;
    let tau = rho().tau();
    let alpha = nominal_run(kind, 9);
    let first = AddSkew::new(rho())
        .apply(&alpha, AddSkewParams::suffix(0, 8))
        .expect("first application");
    let g1 = first.report.gain;

    // Extend by tau * 2 (span of the next pair) plus drain padding.
    let extended = replay_execution(
        &first.transformed,
        first.transformed.horizon() + tau * 2.0 + 2.0,
        nominal_fallback(alpha.topology()),
        |id, nn| kind.build(id, nn),
    )
    .expect("replay builds");

    let second = AddSkew::new(rho())
        .apply(&extended, AddSkewParams::suffix(0, 2))
        .expect("second application");
    assert!(second.report.gain >= 2.0 / 12.0 - 1e-9);
    // NoSync never resynchronizes, so pair (0,2) keeps its share of the
    // first gain plus the second gain.
    assert!(
        second.report.skew_after > g1 / 8.0,
        "compound skew too small: {}",
        second.report.skew_after
    );
}

#[test]
fn lower_bound_experiment_tables_match_committed_golden() {
    // The quick-scale tables of every experiment that runs the
    // lower-bound constructions (E2 Ω(d), E3 Add Skew, E4 Speed Up, E5
    // the main theorem, E13 the fresh-link skew and its prefix check),
    // rendered as text. Regenerate intentionally with:
    // GCS_BLESS=1 cargo test -q
    use gradient_clock_sync::experiments::{run_selected, Scale};
    let ids = ["e2", "e3", "e4", "e5", "e13"].map(String::from);
    let text: String = run_selected(Scale::Quick, &ids)
        .iter()
        .map(|t| t.render() + "\n")
        .collect();
    assert_text_matches_golden(
        &text,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/lower_bound_tables_quick.txt"
        ),
    );
}
