//! E3 — Lemma 6.1 (Add Skew): gain, delay bounds, and replay fidelity.
//!
//! For each line size and algorithm, a nominal execution is transformed by
//! the Add Skew construction. The table reports the measured skew gain
//! against the guaranteed `distance/12`, whether delays stayed within
//! `[d/4, 3d/4]`, whether rates stayed within `[1, 1+ρ/2]`, and whether
//! the transformed prefix replays bit-for-bit under the real simulator.

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::{DriftBound, RateSchedule};
use gcs_core::indist::prefix_distinctions;
use gcs_core::lower_bound::{AddSkew, AddSkewParams};
use gcs_core::replay::{nominal_fallback, replay_execution};
use gcs_net::Topology;
use gcs_sim::SimulationBuilder;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![8, 16],
        Scale::Full => vec![8, 16, 32, 64, 128, 256],
    };
    let rho = DriftBound::new(0.5).expect("valid rho");
    let tau = rho.tau();

    let algorithms = [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
        AlgorithmKind::NoSync,
    ];

    let mut table = Table::new(
        "e3",
        "Lemma 6.1 (Add Skew): measured gain vs guarantee, model validation, \
         replay fidelity",
        &[
            "algorithm",
            "n",
            "distance",
            "gain",
            "guaranteed",
            "delays_ok",
            "rates_in_[1,1+rho/2]",
            "replay_exact",
        ],
    );

    // Algorithm × size cells; each runs the nominal execution, applies
    // Add Skew, and replays the transform — independently sweepable.
    let cells: Vec<(AlgorithmKind, usize)> = algorithms
        .iter()
        .flat_map(|&kind| sizes.iter().map(move |&n| (kind, n)))
        .collect();
    let rows = SweepRunner::new().map(&cells, |_, &(kind, n)| {
        let topology = Topology::line(n);
        let horizon = tau * (n as f64 - 1.0);
        let alpha = SimulationBuilder::new(topology.clone())
            .schedules(vec![RateSchedule::constant(1.0); n])
            .build_with(|id, nn| kind.build(id, nn))
            .unwrap()
            .try_execute_until(horizon)
            .expect("the nominal Add Skew input run");
        let outcome = AddSkew::new(rho)
            .apply::<SyncMsg>(&alpha, AddSkewParams::suffix(0, n - 1))
            .expect("construction applies");
        let r = &outcome.report;

        // Replay the transformed execution to its horizon and check
        // the prefix is reproduced exactly.
        let replayed = replay_execution(
            &outcome.transformed,
            outcome.transformed.horizon(),
            nominal_fallback(&topology),
            |id, nn| kind.build(id, nn),
        )
        .expect("replay builds");
        let replay_exact = prefix_distinctions(&outcome.transformed, &replayed, 0.0).is_empty();

        vec![
            kind.name().to_string(),
            n.to_string(),
            fnum(r.distance),
            fnum(r.gain),
            fnum(r.guaranteed_gain),
            r.validation.is_valid().to_string(),
            r.rates_upper_half.to_string(),
            replay_exact.to_string(),
        ]
    });
    for row in rows {
        table.row_owned(row);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_meet_guarantee_and_validate() {
        let tables = run(Scale::Quick);
        assert!(!tables[0].rows().is_empty());
        for row in tables[0].rows() {
            let gain: f64 = row[3].parse().unwrap();
            let guaranteed: f64 = row[4].parse().unwrap();
            assert!(
                gain >= guaranteed - 1e-6,
                "{} n={} gain {gain} < {guaranteed}",
                row[0],
                row[1]
            );
            assert_eq!(row[5], "true", "delay bounds violated: {row:?}");
            assert_eq!(row[6], "true", "rate bounds violated: {row:?}");
        }
    }

    #[test]
    fn replays_are_bit_exact() {
        let tables = run(Scale::Quick);
        for row in tables[0].rows() {
            assert_eq!(row[7], "true", "replay diverged: {row:?}");
        }
    }
}
