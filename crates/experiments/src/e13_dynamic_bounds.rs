//! E13 — dynamic lower bounds: forced skew on freshly formed links.
//!
//! Kuhn–Lenzen–Locher–Oshman's dynamic-network lower bounds (§5) re-time
//! an execution *together with its churn timeline*: while two parts of
//! the network are disconnected, the adversary may shift one side's whole
//! timeline — clocks, events, and the link formation that reconnects them
//! — without any node being able to tell until the instant the link
//! appears. This experiment drives the executable construction
//! ([`FreshLinkSkew`] on the churn-aware retiming engine) against real
//! algorithm runs and measures:
//!
//! 1. **Forced skew vs. disconnection time** — the longer two sides
//!    evolve apart, the larger the shift `Δ` (capped by the drift budget
//!    `T_f·ρ/(1+ρ)`), and the fresh link opens carrying exactly that much
//!    skew. Every transformed execution is machine-validated (drift,
//!    delays, link liveness, change-endpoint sync), checked to be
//!    indistinguishable on each node's pre-formation prefix, and
//!    replay-validated: re-running the algorithm under the warped churn
//!    timeline and pinned deliveries reproduces every certified
//!    (pre-formation) prefix bit-for-bit.
//! 2. **What caps the shift** — once messages cross the fresh link, their
//!    delay slack (`d/2` under nominal delays) caps `Δ`: near links
//!    constrain the adversary quickly, far links stay exposed to the full
//!    drift budget. The crossover between the delay cap and the drift cap
//!    is measured directly.

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::{DriftBound, RateSchedule};
use gcs_core::lower_bound::{FreshLinkParams, FreshLinkSkew};
use gcs_core::replay::{nominal_fallback, replay_execution};
use gcs_dynamic::{ChurnEvent, ChurnKind, ChurnSchedule, DynamicTopology};
use gcs_net::Topology;
use gcs_sim::{Execution, SimulationBuilder};
use gcs_telemetry::{skew_explain, CausalStep};

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Drift budget the adversary is allowed: ρ = 0.1 (shift cap `T_f/11`).
const RHO: f64 = 0.1;

/// Two nodes at distance `d`; the direct link is down from time 0, forms
/// at `formation`, and the run extends `delta` past it.
fn two_sided_run(
    kind: AlgorithmKind,
    d: f64,
    formation: f64,
    delta: f64,
) -> Execution<gcs_algorithms::SyncMsg> {
    let topology = Topology::from_matrix(vec![0.0, d, d, 0.0], d).expect("valid 2-node matrix");
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
    let view = DynamicTopology::new(topology, churn).expect("valid churn");
    SimulationBuilder::new_dynamic(view)
        .schedules(vec![RateSchedule::constant(1.0); 2])
        .build_with(|id, nn| kind.build(id, nn))
        .unwrap()
        .try_execute_until(formation + delta)
        .expect("the fresh-link run")
}

/// One construction cell: apply the fresh-link shift and replay-validate.
fn construct_and_replay(
    kind: AlgorithmKind,
    alpha: &Execution<gcs_algorithms::SyncMsg>,
) -> (gcs_core::lower_bound::FreshLinkReport, bool) {
    let bound = DriftBound::new(RHO).expect("valid rho");
    let outcome = FreshLinkSkew::new(bound)
        .apply(alpha, FreshLinkParams::new(0, 1))
        .expect("construction preconditions hold");
    let replayed = replay_execution(
        &outcome.transformed,
        outcome.retiming.horizon(),
        nominal_fallback(alpha.topology()),
        |id, nn| kind.build(id, nn),
    )
    .expect("replay builds");
    // The replayed run must reproduce every node's certified prefix (all
    // observations before the warped formation) bit-for-bit; beyond that
    // instant the slow side reacts to the link appearing early, which is
    // the substance of the bound rather than a replay defect.
    let replay_ok = outcome.replay_prefix_distinctions(&replayed) == 0;
    (outcome.report, replay_ok)
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let (formations, distances): (Vec<f64>, Vec<f64>) = match scale {
        Scale::Quick => (vec![10.0, 30.0], vec![1.0, 4.0]),
        Scale::Full => (vec![10.0, 20.0, 40.0, 80.0], vec![1.0, 2.0, 4.0, 8.0]),
    };
    let algorithms = [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
        AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        },
    ];

    // Table 1: forced skew vs. disconnection time. The quiet half-unit
    // window after formation keeps the fresh link traffic-free, so the
    // drift budget alone caps the shift.
    let mut skew_table = Table::new(
        "e13",
        &format!(
            "Forced fresh-link skew vs. disconnection time (2 nodes at \
             distance 4, rho = {RHO}, shift = formation * rho/(1+rho))"
        ),
        &[
            "formation",
            "algorithm",
            "shift",
            "skew_alpha",
            "skew_beta",
            "gain",
            "guaranteed",
            "pre_form_distinct",
            "valid",
            "replay_ok",
        ],
    );
    let cells: Vec<(f64, usize)> = formations
        .iter()
        .flat_map(|&f| (0..algorithms.len()).map(move |a| (f, a)))
        .collect();
    let rows = SweepRunner::new().map(&cells, |_, &(formation, a)| {
        let kind = algorithms[a];
        let alpha = two_sided_run(kind, 4.0, formation, 0.5);
        let (report, replay_ok) = construct_and_replay(kind, &alpha);
        vec![
            fnum(formation),
            kind.name().to_string(),
            fnum(report.shift),
            fnum(report.skew_before),
            fnum(report.skew_after),
            fnum(report.gain),
            fnum(report.guaranteed_gain),
            report.pre_formation_distinctions.to_string(),
            report.validation.is_valid().to_string(),
            replay_ok.to_string(),
        ]
    });
    for row in rows {
        skew_table.row_owned(row);
    }

    // Table 2: what caps the shift. A two-unit window after formation
    // lets messages cross the fresh link, so its delay slack (d/2)
    // competes with the drift budget.
    let formation = 30.0;
    let mut caps_table = Table::new(
        "e13",
        &format!(
            "Shift caps vs. fresh-link distance (max algorithm, formation \
             {formation}, 2 time units of cross traffic)"
        ),
        &[
            "distance",
            "drift_cap",
            "delay_cap",
            "shift",
            "gain",
            "valid",
        ],
    );
    let kind = AlgorithmKind::Max { period: 1.0 };
    let rows = SweepRunner::new().map(&distances, |_, &d| {
        let alpha = two_sided_run(kind, d, formation, 2.0);
        let (report, replay_ok) = construct_and_replay(kind, &alpha);
        assert!(replay_ok, "replay diverged at distance {d}");
        vec![
            fnum(d),
            fnum(report.drift_cap),
            fnum(report.delay_cap),
            fnum(report.shift),
            fnum(report.gain),
            report.validation.is_valid().to_string(),
        ]
    });
    for row in rows {
        caps_table.row_owned(row);
    }

    // Table 3: skew forensics. Walk the transformed execution backward
    // from the fresh link's formation instant: the causal chain shows
    // *why* the link opens with skew — two sides evolving on drift and
    // local timers alone, with no delivery connecting them before the
    // formation.
    let longest = *formations.last().expect("at least one formation");
    let alpha = two_sided_run(kind, 4.0, longest, 0.5);
    let bound = DriftBound::new(RHO).expect("valid rho");
    let outcome = FreshLinkSkew::new(bound)
        .apply(&alpha, FreshLinkParams::new(0, 1))
        .expect("construction preconditions hold");
    let explanation = skew_explain(&outcome.transformed, outcome.report.formation_beta, (0, 1));
    let mut forensics_table = Table::new(
        "e13",
        &format!(
            "Skew forensics: causal chain behind the fresh-link peak \
             (max algorithm, formation {longest}, skew {} at t = {})",
            fnum(explanation.skew),
            fnum(explanation.probe_time)
        ),
        &["step", "kind", "detail"],
    );
    for (k, step) in explanation.steps.iter().enumerate() {
        let (tag, detail) = match *step {
            CausalStep::Drift {
                node,
                from_time,
                to_time,
                logical_gain,
                ..
            } => (
                "drift",
                format!(
                    "node {node} quiet over [{}, {}], logical +{}",
                    fnum(from_time),
                    fnum(to_time),
                    fnum(logical_gain)
                ),
            ),
            CausalStep::Delivery {
                from,
                to,
                seq,
                delay,
                ..
            } => (
                "deliver",
                format!("{from} -> {to} seq {seq}, delay {}", fnum(delay)),
            ),
            CausalStep::Timer { node, time, id } => {
                ("timer", format!("node {node} timer {id} at {}", fnum(time)))
            }
            CausalStep::LinkChange {
                node,
                peer,
                time,
                up,
            } => (
                "link",
                format!(
                    "{node} -- {peer} went {} at {}",
                    if up { "up" } else { "down" },
                    fnum(time)
                ),
            ),
            CausalStep::Origin { node, time } => {
                ("origin", format!("node {node} started at {}", fnum(time)))
            }
        };
        forensics_table.row_owned(vec![k.to_string(), tag.to_string(), detail]);
    }

    vec![skew_table, caps_table, forensics_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forensics_chain_on_the_counterexample_is_nonempty() {
        let kind = AlgorithmKind::Max { period: 1.0 };
        let alpha = two_sided_run(kind, 4.0, 30.0, 0.5);
        let bound = DriftBound::new(RHO).expect("valid rho");
        let outcome = FreshLinkSkew::new(bound)
            .apply(&alpha, FreshLinkParams::new(0, 1))
            .expect("construction preconditions hold");
        let report = skew_explain(&outcome.transformed, outcome.report.formation_beta, (0, 1));
        assert!(
            !report.is_empty(),
            "the fresh-link peak must have a causal chain"
        );
        assert!(
            report.skew.abs() > 1.0,
            "the peak being explained is the forced skew: {}",
            report.skew
        );
        // Two sides disconnected since time 0: the chain bottoms out at
        // the laggard's origin without ever crossing a message.
        assert!(matches!(
            report.steps.last(),
            Some(CausalStep::Origin { .. })
        ));
        assert!(report.deliveries().is_empty());
        assert!(report.render().contains("origin"));
    }

    #[test]
    fn quick_scale_produces_both_tables() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 3);
        // 2 formations × 3 algorithms.
        assert_eq!(tables[0].rows().len(), 6);
        assert_eq!(tables[1].rows().len(), 2);
        // Every construction validated, stayed indistinguishable before
        // formation, and replayed bit-identically.
        for row in tables[0].rows() {
            assert_eq!(row[7], "0", "pre-formation distinctions in {row:?}");
            assert_eq!(row[8], "true", "validation failed in {row:?}");
            assert_eq!(row[9], "true", "replay diverged in {row:?}");
        }
    }

    #[test]
    fn forced_skew_grows_with_disconnection_time() {
        let kind = AlgorithmKind::Max { period: 1.0 };
        let short = {
            let alpha = two_sided_run(kind, 4.0, 10.0, 0.5);
            construct_and_replay(kind, &alpha).0
        };
        let long = {
            let alpha = two_sided_run(kind, 4.0, 30.0, 0.5);
            construct_and_replay(kind, &alpha).0
        };
        assert!(long.shift > 2.0 * short.shift);
        assert!(long.gain >= long.guaranteed_gain - 1e-9);
        // Max tracks its hardware clock while isolated: the gain realizes
        // the full shift, not just the guaranteed half.
        assert!((long.gain - long.shift).abs() < 1e-9);
    }

    #[test]
    fn delay_cap_binds_on_near_links_drift_cap_on_far_ones() {
        let kind = AlgorithmKind::Max { period: 1.0 };
        let near = {
            let alpha = two_sided_run(kind, 1.0, 30.0, 2.0);
            construct_and_replay(kind, &alpha).0
        };
        let far = {
            let alpha = two_sided_run(kind, 8.0, 30.0, 2.0);
            construct_and_replay(kind, &alpha).0
        };
        assert!((near.shift - 0.5).abs() < 1e-9, "near: {}", near.shift);
        assert!(
            (far.shift - far.drift_cap).abs() < 1e-9,
            "far: {} vs {}",
            far.shift,
            far.drift_cap
        );
        assert!(near.validation.is_valid());
        assert!(far.validation.is_valid());
    }
}
