//! E6 — the Section-2 counterexample: max-based synchronization violates
//! the gradient property.
//!
//! Three nodes `x, y, z` with `d(x,y) = D`, `d(y,z) = 1`,
//! `d(x,z) = D+1`. Per the paper: every delay starts at its maximum
//! (`D`, `1`, `D+1`), `x`'s hardware clock runs fastest, and once `x`'s
//! clock is `D` ahead the adversary drops the `x→y` delay to 0. `y` then
//! learns `x`'s clock value a full time unit before `z` does — and jumps.
//! During that window `y` is ≈`D+1` ahead of `z`, though they are at
//! distance 1: the max algorithm's skew between nearby nodes scales with
//! the *diameter*, not their distance.
//!
//! Run under the same adversary:
//!
//! - the jump-based gradient algorithm discounts the adopted value by
//!   `κ·D`, halving the transient violation but not eliminating it (jumps
//!   are instantaneous, so the wavefront still reaches `y` one delay
//!   before `z`);
//! - the rate-based gradient algorithm caps its catch-up *rate*, so the
//!   transient `y`-`z` skew stays bounded by the boost margin — the
//!   bounded-increase discipline the paper's Lemma 7.1 says any true
//!   gradient algorithm must obey.

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::RateSchedule;
use gcs_core::analysis::max_abs_skew;
use gcs_net::{AdversarialDelay, DelayOutcome, Topology};
use gcs_sim::SimulationBuilder;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Builds the three-node scenario and returns the worst `y`-`z` skew.
///
/// `x` drifts 5% fast, so it needs `20·D` time to accumulate a clock lead
/// of `D`; the delay switch happens exactly then, and the horizon leaves
/// room for the jump to propagate.
fn scenario(kind: AlgorithmKind, big_d: f64, horizon: f64) -> f64 {
    let topology = Topology::from_matrix(
        vec![
            0.0,
            big_d,
            big_d + 1.0,
            big_d,
            0.0,
            1.0,
            big_d + 1.0,
            1.0,
            0.0,
        ],
        big_d + 1.0,
    )
    .expect("valid 3-node matrix");
    let switch = 20.0 * big_d;
    // Maximum delays everywhere; then the x→y delay collapses to 0.
    let policy = AdversarialDelay::new(move |from, to, _seq, send| {
        let dist = match (from, to) {
            (0, 1) | (1, 0) => big_d,
            (1, 2) | (2, 1) => 1.0,
            _ => big_d + 1.0,
        };
        if (from, to) == (0, 1) && send >= switch {
            DelayOutcome::Delay(0.0)
        } else {
            DelayOutcome::Delay(dist)
        }
    });
    let exec = SimulationBuilder::new(topology)
        .schedules(vec![
            RateSchedule::constant(1.05), // x runs fast
            RateSchedule::constant(1.0),
            RateSchedule::constant(1.0),
        ])
        .delay_policy(policy)
        .build_with(|id, n| kind.build(id, n))
        .unwrap()
        .try_execute_until(horizon)
        .expect("the adversarial max-violation run");
    max_abs_skew(&exec, 1, 2, 0.0).0
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let ds: Vec<f64> = match scale {
        Scale::Quick => vec![4.0, 8.0],
        Scale::Full => vec![4.0, 8.0, 16.0, 32.0, 64.0],
    };

    let mut table = Table::new(
        "e6",
        "Section 2: worst skew between y and z (distance 1) in the \
         delay-switch scenario; the paper predicts ≈D+1 for the max \
         algorithm",
        &["algorithm", "D", "worst_yz_skew", "distance(y,z)"],
    );

    // D × algorithm cells, swept in parallel in row order.
    let algorithms = [
        AlgorithmKind::Max { period: 1.0 },
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
    let cells: Vec<(f64, AlgorithmKind)> = ds
        .iter()
        .flat_map(|&d| algorithms.iter().map(move |&kind| (d, kind)))
        .collect();
    let rows = SweepRunner::new().map(&cells, |_, &(d, kind)| {
        let worst = scenario(kind, d, 22.0 * d);
        vec![kind.name().to_string(), fnum(d), fnum(worst), fnum(1.0)]
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
    fn max_skew_scales_with_diameter() {
        let tables = run(Scale::Quick);
        let rows: Vec<_> = tables[0].rows().iter().filter(|r| r[0] == "max").collect();
        let small: f64 = rows[0][2].parse().unwrap();
        let large: f64 = rows[1][2].parse().unwrap();
        // Doubling D should grow the violation markedly.
        assert!(large > small + 1.0, "max: {small} -> {large}");
        // And the violation is of diameter scale (paper predicts ~D+1).
        assert!(large > 0.8 * 8.0, "worst skew {large} should be ~D = 8");
    }

    #[test]
    fn jump_gradient_discounts_but_rate_gradient_bounds() {
        let tables = run(Scale::Quick);
        for row in tables[0].rows() {
            let d: f64 = row[1].parse().unwrap();
            let worst: f64 = row[2].parse().unwrap();
            match row[0].as_str() {
                // Jump-based: adopted value discounted by kappa*D, so the
                // transient violation is about half the max algorithm's.
                "gradient" => assert!(worst < 0.75 * d + 1.5, "jump gradient at D={d}: {worst}"),
                // Rate-based: catch-up is rate-limited, so the transient
                // skew to the distance-1 neighbor stays small.
                "gradient-rate" => assert!(worst < 3.0, "rate gradient at D={d}: {worst}"),
                _ => {}
            }
        }
    }
}
