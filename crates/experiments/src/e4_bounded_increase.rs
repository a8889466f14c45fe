//! E4 — Lemma 7.1 (Bounded Increase).
//!
//! Two tables:
//!
//! 1. **Measured increase rates.** For each algorithm running under the
//!    lemma's preconditions (rates within `[1, 1+ρ/2]`, delays within
//!    `[d/4, 3d/4]`), the maximum logical-clock increase over any unit
//!    window. The lemma says an f-GCS algorithm must keep this below
//!    `16·f(1)`; max-style algorithms that jump arbitrarily fast therefore
//!    cannot satisfy any small `f`.
//! 2. **The speed-up violation.** Applying the lemma's transformation
//!    (hardware rate `+ρ/4` for `τ` time at one node) to each algorithm's
//!    execution, the table shows how far the sped node lands ahead of its
//!    distance-1 neighbours in the indistinguishable execution — skew that
//!    counts against `f(1)`.

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::{DriftBound, RateSchedule};
use gcs_core::lower_bound::bounded_increase::{
    max_increase_over_nodes, preconditions_hold, SpeedUp,
};
use gcs_net::Topology;
use gcs_sim::SimulationBuilder;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let n = match scale {
        Scale::Quick => 8,
        Scale::Full => 32,
    };
    let horizon = match scale {
        Scale::Quick => 40.0,
        Scale::Full => 120.0,
    };
    let rho = DriftBound::new(0.5).expect("valid rho");
    let tau = rho.tau();

    let algorithms = [
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
    ];

    let mut rates = Table::new(
        "e4",
        "Lemma 7.1: max logical-clock increase per unit time under the \
         lemma's preconditions",
        &[
            "algorithm",
            "max_unit_increase",
            "at_node",
            "preconditions_ok",
            "cap_if_f1=1 (16·f(1))",
        ],
    );
    let mut violations = Table::new(
        "e4",
        "Lemma 7.1: speed-up transformation — skew created next to the sped \
         node",
        &[
            "algorithm",
            "logical_advance",
            "worst_neighbor_skew_after",
            "worst_neighbor_skew_before",
            "beta_valid",
        ],
    );

    // One sweep cell per algorithm; each produces its row in both tables.
    let rows = SweepRunner::new().map(&algorithms, |_, &kind| {
        let topology = Topology::line(n);
        // Rates within [1, 1+rho/2], spread so clocks genuinely drift.
        let schedules: Vec<RateSchedule> = (0..n)
            .map(|i| RateSchedule::constant(1.0 + rho.rho() / 2.0 * (i as f64 / (n - 1) as f64)))
            .collect();
        let exec = SimulationBuilder::new(topology)
            .schedules(schedules)
            .build_with(|id, nn| kind.build(id, nn))
            .unwrap()
            .try_execute_until(horizon)
            .expect("the drifting Bounded Increase run");

        let ok = preconditions_hold(&exec, rho);
        let (inc, node, _) = max_increase_over_nodes(&exec, tau);
        let rates_row = vec![
            kind.name().to_string(),
            fnum(inc),
            node.to_string(),
            ok.to_string(),
            fnum(16.0),
        ];

        // Speed up the measured fastest-increasing node near mid-run.
        let t0 = (horizon * 0.6).max(tau);
        let outcome = SpeedUp::new(rho)
            .apply(&exec, node, t0)
            .expect("speed-up applies");
        let after = outcome.report.worst_neighbor_skew().map_or(0.0, |(_, s)| s);
        // The same directed skew before the transformation, for contrast.
        let before = outcome
            .report
            .neighbor_skews
            .iter()
            .map(|&(j, _)| exec.logical_at(node, t0) - exec.logical_at(j, t0))
            .fold(f64::NEG_INFINITY, f64::max);
        let violations_row = vec![
            kind.name().to_string(),
            fnum(outcome.report.logical_advance),
            fnum(after),
            fnum(before),
            outcome.report.validation.is_valid().to_string(),
        ];
        (rates_row, violations_row)
    });
    for (rates_row, violations_row) in rows {
        rates.row_owned(rates_row);
        violations.row_owned(violations_row);
    }

    vec![rates, violations]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_two_tables_with_all_algorithms() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows().len(), 5);
        assert_eq!(tables[1].rows().len(), 5);
    }

    #[test]
    fn preconditions_hold_for_every_run() {
        let tables = run(Scale::Quick);
        for row in tables[0].rows() {
            assert_eq!(row[3], "true", "{row:?}");
        }
    }

    #[test]
    fn speed_up_strictly_advances_the_node() {
        let tables = run(Scale::Quick);
        for row in tables[1].rows() {
            let advance: f64 = row[1].parse().unwrap();
            assert!(advance > 0.0, "{row:?}");
            assert_eq!(row[4], "true", "beta invalid: {row:?}");
        }
    }

    #[test]
    fn no_sync_increase_rate_is_hardware_rate() {
        let tables = run(Scale::Quick);
        let row = &tables[0].rows()[0];
        assert_eq!(row[0], "no-sync");
        let inc: f64 = row[1].parse().unwrap();
        // Fastest hardware clock is 1 + rho/2 = 1.25.
        assert!((inc - 1.25).abs() < 1e-6, "inc = {inc}");
    }
}
