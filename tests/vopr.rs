//! Integration suite for the `gcs-vopr` scenario fuzzer.
//!
//! Three layers:
//! - the committed corpora (`tests/vopr_corpus/*.seeds`) replay green —
//!   this is the PR-time smoke gate CI runs via `cargo test`;
//! - shrunken-scenario regression tests pin the degenerate-input fixes
//!   (single node, zero horizon, empty probe grid, churn at t = 0) and
//!   the non-finite-delay typed error, each as a committed spec;
//! - a shrunken counterexample's execution is pinned as a golden
//!   snapshot, wiring fuzzer output into the testkit golden flow.

use gcs_algorithms::AlgorithmKind;
use gcs_testkit::prelude::*;
use gcs_vopr::{
    check, parse_seed_list, CheckOptions, CheckOutcome, ChurnSpec, HostileDelay, TopologySpec,
    VoprScenario,
};

fn corpus(name: &str) -> Vec<u64> {
    let path = format!("{}/tests/vopr_corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_seed_list(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn assert_corpus_green(name: &str) {
    let opts = CheckOptions::default();
    let mut failures = Vec::new();
    for seed in corpus(name) {
        let sc = VoprScenario::from_seed(seed);
        if let CheckOutcome::Fail(f) = check(&sc, &opts) {
            failures.push(f.to_string());
        }
    }
    assert!(
        failures.is_empty(),
        "{name}: {} corpus seeds failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The PR-time smoke gate: the fixed 64-seed corpus must stay green.
#[test]
fn smoke_corpus_is_green() {
    assert_corpus_green("smoke.seeds");
}

/// Seeds that once exposed bugs must stay green forever.
#[test]
fn regression_corpus_is_green() {
    assert_corpus_green("regressions.seeds");
}

/// A baseline spec for hand-built regression scenarios.
fn plain(seed: u64, topology: TopologySpec, horizon: f64) -> VoprScenario {
    VoprScenario {
        seed,
        topology,
        drift: DriftSpec::Nominal,
        delay: DelaySpec::FixedFraction { frac: 0.5 },
        loss: None,
        churn: vec![],
        drop_in_flight: false,
        fault: None,
        algorithm: AlgorithmKind::Max { period: 1.0 },
        probe_from: 0.0,
        probe_every: 1.0,
        horizon,
        hostile: None,
    }
}

/// Shrunken-scenario regression: a single-node network runs, fingerprints,
/// and passes every applicable oracle without panicking.
#[test]
fn vopr_regression_single_node() {
    let sc = plain(1, TopologySpec::Line { n: 1 }, 10.0);
    let outcome = check(&sc, &CheckOptions::default());
    assert!(outcome.is_pass(), "single node: {outcome:?}");
}

/// Shrunken-scenario regression: a zero-length horizon is a well-defined
/// (empty) run, not a crash — including the identity retiming round trip,
/// which used to reject `horizon == 0`.
#[test]
fn vopr_regression_zero_horizon() {
    let sc = plain(2, TopologySpec::Ring { n: 4 }, 0.0);
    let outcome = check(&sc, &CheckOptions::default());
    assert!(outcome.is_pass(), "zero horizon: {outcome:?}");
}

/// Shrunken-scenario regression: a probe grid that starts past the
/// horizon measures nothing and trips nothing.
#[test]
fn vopr_regression_empty_probe_grid() {
    let mut sc = plain(3, TopologySpec::Line { n: 4 }, 5.0);
    sc.probe_from = 10.0;
    let outcome = check(&sc, &CheckOptions::default());
    assert!(outcome.is_pass(), "empty probe grid: {outcome:?}");
}

/// Shrunken-scenario regression: churn at t = 0 shapes the *initial*
/// topology (no spurious change events), and the full oracle stack holds.
#[test]
fn vopr_regression_churn_at_time_zero() {
    let mut sc = plain(4, TopologySpec::Ring { n: 4 }, 20.0);
    sc.churn = vec![ChurnSpec {
        time: 0.0,
        a: 0,
        b: 1,
        up: false,
    }];
    let outcome = check(&sc, &CheckOptions::default());
    assert!(outcome.is_pass(), "churn at t=0: {outcome:?}");

    // Pin the semantics, not just the absence of a panic: the t = 0 event
    // folds into the initial graph, so nodes 0 and 1 were never neighbors.
    let view = sc.to_scenario().dynamic_topology().expect("churned");
    assert!(!view.neighbors_at(0, 0.0).contains(&1));
    assert!(view.neighbors_at(0, 0.0).contains(&3));
    let exec = sc.to_scenario().run_with(sc.make_nodes());
    let changes = exec
        .events()
        .iter()
        .filter(|e| matches!(e.kind, gcs_sim::EventKind::TopologyChange { .. }))
        .count();
    assert_eq!(changes, 0, "t=0 churn must not dispatch change events");
}

/// Shrunken-scenario regression for the non-finite panic surface: a
/// delay adversary returning NaN must yield the typed error (which the
/// hostile check encodes as a *pass*), and the same class through the
/// panicking wrapper must still carry the typed message.
#[test]
fn vopr_regression_non_finite_delay_is_typed() {
    let mut sc = plain(5, TopologySpec::Line { n: 2 }, 5.0);
    sc.hostile = Some(HostileDelay::Nan);
    let outcome = check(&sc, &CheckOptions::default());
    assert!(outcome.is_pass(), "NaN delay: {outcome:?}");

    sc.hostile = Some(HostileDelay::Infinite);
    let outcome = check(&sc, &CheckOptions::default());
    assert!(outcome.is_pass(), "infinite arrival: {outcome:?}");
}

/// The first real counterexample gcs-vopr found (seed 0x11, shrunk):
/// a lossy uniform-delay churn scenario. Its execution is pinned as a
/// golden snapshot, so the shrunken repro stays bit-identical forever.
#[test]
fn vopr_golden_lossy_uniform_churn() {
    let mut sc = plain(0x11, TopologySpec::Ring { n: 3 }, 26.0);
    sc.delay = DelaySpec::Uniform {
        lo_frac: 0.25,
        hi_frac: 0.75,
    };
    sc.loss = Some(0.2);
    sc.churn = vec![ChurnSpec {
        time: 12.5,
        a: 1,
        b: 2,
        up: false,
    }];
    sc.algorithm = AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    };
    let outcome = check(&sc, &CheckOptions::default());
    assert!(outcome.is_pass(), "golden scenario: {outcome:?}");
    let exec = sc.to_scenario().run_with(sc.make_nodes());
    assert_matches_golden(
        &exec,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/vopr_lossy_uniform_churn.snap"
        ),
    );
}

/// Shrunken from `cargo run -p gcs-vopr -- --seed 0x000000000000c8d4`
/// (found by the first 150k-seed swarm). The churned-in chord (0,4)
/// creates two equal-length paths to node 7 — d(0,1)+d(1,7) = 1+6 and
/// d(0,4)+d(4,7) = 4+3 — so two RBS reports arrive 1 ulp apart in real
/// time but at the *same* hardware reading. A hardware-pinned replay
/// collapses the ulp gap into an exact tie and dispatches the pair in
/// canonical order; the indistinguishability checkers now canonicalize
/// equal-reading runs, because the node observes one simultaneous batch.
#[test]
fn vopr_regression_000000000000c8d4() {
    let scenario = VoprScenario {
        seed: 0x000000000000c8d4,
        topology: TopologySpec::Line { n: 8 },
        drift: DriftSpec::Walk {
            rho: f64::from_bits(0x3f9362a5f0583780),
            step: f64::from_bits(0x401bd7b69855f170),
            max_step_change: f64::from_bits(0x3f8362a5f0583780),
        },
        delay: DelaySpec::FixedFraction {
            frac: f64::from_bits(0x3fde07817b20fa0a),
        },
        loss: None,
        churn: vec![ChurnSpec {
            time: f64::from_bits(0x40251d92c6cdcd4e),
            a: 0,
            b: 4,
            up: true,
        }],
        drop_in_flight: false,
        fault: None,
        algorithm: AlgorithmKind::Rbs {
            period: f64::from_bits(0x3fe9e242c55f0b5b),
        },
        probe_from: f64::from_bits(0x401c249843a8aa64),
        probe_every: f64::from_bits(0x402ae2946b5f01ec),
        horizon: 40.0,
        hostile: None,
    };
    let outcome = check(&scenario, &CheckOptions::default());
    assert!(outcome.is_pass(), "still failing: {outcome:?}");
}

/// The repro command printed by the fuzzer round-trips through the
/// corpus parser, so pasting it into a corpus file always works.
#[test]
fn repro_lines_round_trip_into_corpora() {
    for seed in [0u64, 0x11, u64::MAX] {
        let line = gcs_vopr::repro_line(seed);
        let token = line.rsplit(' ').next().unwrap();
        assert_eq!(gcs_vopr::parse_seed(token).unwrap(), seed);
    }
}
