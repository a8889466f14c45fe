//! E1 — Figure 1: the hardware clock-rate schedules of the Add Skew
//! execution β.
//!
//! The paper's only figure shows, for nodes `1..D` on a line, the interval
//! during which each node runs at the sped-up rate `γ`: nodes up to `i`
//! switch at `S`, nodes between `i` and `j` switch along a staircase
//! (`T_k = S + (τ/γ)(k-i)`), and nodes from `j` on never switch. This
//! experiment applies the real construction and tabulates each node's
//! switch-on/switch-off times — the exact content of the figure — plus an
//! ASCII rendering.

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::{DriftBound, RateSchedule};
use gcs_core::lower_bound::{AddSkew, AddSkewParams};
use gcs_net::Topology;
use gcs_sim::SimulationBuilder;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let n = match scale {
        Scale::Quick => 10,
        Scale::Full => 16,
    };
    let (fast, slow) = (1, n - 3);
    let rho = DriftBound::new(0.5).expect("valid rho");
    let tau = rho.tau();
    let gamma = rho.gamma();

    let topology = Topology::line(n);
    let horizon = tau * (slow - fast) as f64;
    let alpha = SimulationBuilder::new(topology)
        .schedules(vec![RateSchedule::constant(1.0); n])
        .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
        .unwrap()
        .try_execute_until(horizon)
        .expect("the nominal Figure 1 run");

    let outcome = AddSkew::new(rho)
        .apply::<SyncMsg>(&alpha, AddSkewParams::suffix(fast, slow))
        .expect("construction applies");

    let t_beta = outcome.report.beta_end;
    let mut table = Table::new(
        "e1",
        &format!(
            "Figure 1: rate-γ intervals in β (n={n}, pair=({fast},{slow}), ρ={}, γ={:.4})",
            rho.rho(),
            gamma
        ),
        &[
            "node",
            "switch_on (T_k)",
            "switch_off (T')",
            "gamma_duration",
        ],
    );
    let mut chart = Table::new(
        "e1",
        "Figure 1 (ASCII): '=' marks time at rate γ, '-' at rate 1",
        &["node", "timeline"],
    );

    // One sweep cell per node: each row of the figure is independent, so
    // the table renders in parallel off the shared construction outcome.
    let cells = 48usize;
    let nodes: Vec<usize> = (0..n).collect();
    let rows = SweepRunner::new().map(&nodes, |_, &k| {
        let sched = &outcome.retiming.schedules()[k];
        // Find the gamma interval of this node, if any.
        let mut on = None;
        let mut off = None;
        for &(start, rate) in sched.segments() {
            if (rate - gamma).abs() < 1e-12 && on.is_none() {
                on = Some(start);
            }
            if on.is_some() && (rate - 1.0).abs() < 1e-12 && start > on.unwrap_or(0.0) {
                off = Some(start);
                break;
            }
        }
        let (on_s, off_s, dur) = match (on, off) {
            (Some(a), Some(b)) => (fnum(a), fnum(b), fnum(b - a)),
            (Some(a), None) => (fnum(a), fnum(t_beta), fnum(t_beta - a)),
            _ => ("-".to_string(), "-".to_string(), fnum(0.0)),
        };

        let mut line = String::with_capacity(cells);
        for c in 0..cells {
            let t = t_beta * (c as f64 + 0.5) / cells as f64;
            let r = sched.rate_at(t);
            line.push(if (r - gamma).abs() < 1e-12 { '=' } else { '-' });
        }
        (vec![k.to_string(), on_s, off_s, dur], line)
    });
    for (k, (row, line)) in rows.into_iter().enumerate() {
        table.row_owned(row);
        chart.row_owned(vec![k.to_string(), line]);
    }

    vec![table, chart]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_schedule_and_chart() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows().len(), 10);
        assert_eq!(tables[1].rows().len(), 10);
    }

    #[test]
    fn staircase_is_monotone_between_pair() {
        let tables = run(Scale::Quick);
        let rows = tables[0].rows();
        // Switch-on times are nondecreasing from the fast node to the slow
        // node (the staircase of Figure 1).
        let ons: Vec<f64> = rows
            .iter()
            .map(|r| r[1].parse::<f64>().unwrap_or(f64::INFINITY))
            .collect();
        for w in ons[1..8].windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "staircase must be nondecreasing");
        }
    }

    #[test]
    fn nodes_beyond_slow_never_speed_up() {
        let tables = run(Scale::Quick);
        let rows = tables[0].rows();
        // Last two nodes (beyond `slow` = 7 for n = 10): no gamma interval.
        for r in &rows[8..] {
            assert_eq!(r[1], "-", "node {} should never switch", r[0]);
        }
    }
}
