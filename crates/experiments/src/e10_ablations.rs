//! E10 — ablations over the constructions' parameters.
//!
//! Three tables probing the design choices `DESIGN.md` calls out:
//!
//! 1. **Drift bound ρ**: the Add Skew gain guarantee `d/12` is uniform in
//!    ρ, but the window length `τ·d = d/ρ` and the compression `T - T'`
//!    both scale with `1/ρ` — smaller drift means the adversary needs
//!    longer but achieves the same skew.
//! 2. **Shrink factor σ** (main theorem): smaller σ yields more rounds and
//!    more adjacent skew per diameter; the paper's `σ = 384·τ·f(1)` is the
//!    proof-friendly extreme.
//! 3. **Extension length** (main theorem): longer nominal extensions give
//!    the algorithm more time to re-synchronize between rounds, measuring
//!    the skew-decay the Bounded Increase lemma caps.

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::{DriftBound, RateSchedule};
use gcs_core::lower_bound::{AddSkew, AddSkewParams, MainTheorem, MainTheoremConfig};
use gcs_net::Topology;
use gcs_sim::SimulationBuilder;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    vec![
        rho_ablation(scale),
        shrink_ablation(scale),
        extension_ablation(scale),
    ]
}

fn rho_ablation(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 9,
        Scale::Full => 17,
    };
    let rhos: Vec<f64> = match scale {
        Scale::Quick => vec![0.1, 0.5],
        Scale::Full => vec![0.05, 0.1, 0.25, 0.5, 0.75, 0.9],
    };
    let mut table = Table::new(
        "e10",
        &format!("Ablation: Add Skew vs drift bound ρ (line of {n})"),
        &[
            "rho",
            "gamma",
            "window (τ·d)",
            "compression (T-T')",
            "gain",
            "guaranteed",
        ],
    );
    let rows = SweepRunner::new().map(&rhos, |_, &r| {
        let rho = DriftBound::new(r).expect("valid rho");
        let tau = rho.tau();
        let horizon = tau * (n as f64 - 1.0);
        let alpha = SimulationBuilder::new(Topology::line(n))
            .schedules(vec![RateSchedule::constant(1.0); n])
            .build_with(|id, nn| AlgorithmKind::Max { period: 1.0 }.build(id, nn))
            .unwrap()
            .try_execute_until(horizon)
            .expect("the nominal ablation input run");
        let outcome = AddSkew::new(rho)
            .apply::<SyncMsg>(&alpha, AddSkewParams::suffix(0, n - 1))
            .expect("construction applies");
        let rep = &outcome.report;
        vec![
            fnum(r),
            fnum(rho.gamma()),
            fnum(rep.alpha_end - rep.start),
            fnum(rep.alpha_end - rep.beta_end),
            fnum(rep.gain),
            fnum(rep.guaranteed_gain),
        ]
    });
    for row in rows {
        table.row_owned(row);
    }
    table
}

fn shrink_ablation(scale: Scale) -> Table {
    let nodes = match scale {
        Scale::Quick => 65,
        Scale::Full => 257,
    };
    let shrinks: Vec<f64> = match scale {
        Scale::Quick => vec![2.0, 8.0],
        Scale::Full => vec![2.0, 4.0, 8.0, 16.0],
    };
    let rho = DriftBound::new(0.5).expect("valid rho");
    let mut table = Table::new(
        "e10",
        &format!("Ablation: main theorem vs shrink factor σ (D = {nodes})"),
        &["sigma", "rounds", "final_adjacent_skew"],
    );
    let rows = SweepRunner::new().map(&shrinks, |_, &sigma| {
        let cfg = MainTheoremConfig {
            shrink: sigma,
            ..MainTheoremConfig::practical(nodes, rho)
        };
        let report = MainTheorem::new(cfg)
            .run(|id, n| {
                AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                }
                .build(id, n)
            })
            .expect("construction runs");
        vec![
            fnum(sigma),
            report.rounds_completed().to_string(),
            fnum(report.final_adjacent_skew),
        ]
    });
    for row in rows {
        table.row_owned(row);
    }
    table
}

fn extension_ablation(scale: Scale) -> Table {
    let nodes = match scale {
        Scale::Quick => 33,
        Scale::Full => 129,
    };
    let factors: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 4.0],
        Scale::Full => vec![1.0, 2.0, 4.0, 8.0],
    };
    let rho = DriftBound::new(0.5).expect("valid rho");
    let mut table = Table::new(
        "e10",
        &format!(
            "Ablation: main theorem vs extension length (D = {nodes}, max \
             algorithm; longer extensions let the algorithm erase skew)"
        ),
        &["extension_factor", "rounds", "final_adjacent_skew"],
    );
    let rows = SweepRunner::new().map(&factors, |_, &factor| {
        let cfg = MainTheoremConfig {
            extension_factor: factor,
            ..MainTheoremConfig::practical(nodes, rho)
        };
        let report = MainTheorem::new(cfg)
            .run(|id, n| AlgorithmKind::Max { period: 1.0 }.build(id, n))
            .expect("construction runs");
        vec![
            fnum(factor),
            report.rounds_completed().to_string(),
            fnum(report.final_adjacent_skew),
        ]
    });
    for row in rows {
        table.row_owned(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_tables() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert!(!t.rows().is_empty());
        }
    }

    #[test]
    fn gain_guarantee_uniform_in_rho() {
        let tables = run(Scale::Quick);
        for row in tables[0].rows() {
            let gain: f64 = row[4].parse().unwrap();
            let guaranteed: f64 = row[5].parse().unwrap();
            assert!(gain >= guaranteed - 1e-6, "{row:?}");
        }
    }

    #[test]
    fn window_scales_inversely_with_rho() {
        let tables = run(Scale::Quick);
        let rows = tables[0].rows();
        let w_small_rho: f64 = rows[0][2].parse().unwrap();
        let w_large_rho: f64 = rows[1][2].parse().unwrap();
        assert!(w_small_rho > w_large_rho);
    }

    #[test]
    fn smaller_shrink_gives_more_rounds() {
        let tables = run(Scale::Quick);
        let rows = tables[1].rows();
        let r_small_sigma: usize = rows[0][1].parse().unwrap();
        let r_large_sigma: usize = rows[1][1].parse().unwrap();
        assert!(r_small_sigma >= r_large_sigma);
    }
}
