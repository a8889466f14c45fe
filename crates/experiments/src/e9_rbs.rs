//! E9 — the RBS discussion (Section 2).
//!
//! Elson et al.'s Reference Broadcast Synchronization uses receiver-side
//! comparison of a shared radio broadcast, driving effective delay
//! uncertainty to (almost) zero. The paper notes its lower bound still
//! applies but is weak because the *effective diameter* (total delay
//! uncertainty) is tiny.
//!
//! This experiment sweeps the broadcast jitter `ε` on a star network and
//! measures the worst leaf-pair skew: observed skew tracks `ε`, not the
//! nominal network extent — reproducing why RBS works and where the bound
//! kicks back in as `ε` (and hence the effective diameter) grows.

use gcs_algorithms::{RbsNode, RbsParams};
use gcs_clocks::RateSchedule;
use gcs_core::analysis::max_abs_skew;
use gcs_net::{BroadcastDelay, Topology};
use gcs_sim::SimulationBuilder;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let (n, horizon) = match scale {
        Scale::Quick => (5, 80.0),
        Scale::Full => (9, 200.0),
    };
    let jitters: Vec<f64> = match scale {
        Scale::Quick => vec![0.001, 0.05, 0.4],
        Scale::Full => vec![0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7],
    };

    let mut table = Table::new(
        "e9",
        &format!(
            "RBS on a star of {n} nodes: worst leaf-pair skew vs broadcast \
             jitter ε (leaves drift at ±1%)"
        ),
        &[
            "epsilon",
            "worst_leaf_skew",
            "skew/epsilon",
            "effective_diameter",
        ],
    );

    // One sweep cell per jitter level.
    let rows = SweepRunner::new().map(&jitters, |_, &eps| {
        let rates: Vec<RateSchedule> = (0..n)
            .map(|i| {
                RateSchedule::constant(match i % 3 {
                    0 => 1.0,
                    1 => 1.01,
                    _ => 0.99,
                })
            })
            .collect();
        let exec = SimulationBuilder::new(Topology::star(n))
            .schedules(rates)
            .delay_policy(BroadcastDelay::new(0.2, eps, 23))
            .build_with(|id, _| RbsNode::new(id, RbsParams::default()))
            .unwrap()
            .try_execute_until(horizon)
            .expect("the reference-broadcast star run");

        let mut worst = 0.0_f64;
        for i in 1..n {
            for j in (i + 1)..n {
                worst = worst.max(max_abs_skew(&exec, i, j, horizon * 0.5).0);
            }
        }
        vec![
            fnum(eps),
            fnum(worst),
            fnum(worst / eps),
            fnum(eps * 2.0), // uncertainty of a leaf-to-leaf comparison
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
    fn skew_shrinks_with_jitter() {
        let tables = run(Scale::Quick);
        let rows = tables[0].rows();
        let tight: f64 = rows.first().unwrap()[1].parse().unwrap();
        let loose: f64 = rows.last().unwrap()[1].parse().unwrap();
        assert!(
            tight < loose,
            "smaller jitter must synchronize tighter: {tight} vs {loose}"
        );
    }

    #[test]
    fn tight_jitter_beats_path_delay_scale() {
        let tables = run(Scale::Quick);
        let rows = tables[0].rows();
        let tight: f64 = rows.first().unwrap()[1].parse().unwrap();
        // Path delays are ~0.2; receiver-side sync must beat that scale.
        assert!(
            tight < 0.2,
            "RBS should beat sender-path uncertainty, got {tight}"
        );
    }
}
