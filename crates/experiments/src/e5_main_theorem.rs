//! E5 — Theorem 8.1: the `Ω(log D / log log D)` lower bound.
//!
//! The iterated construction (Add Skew → extend → pigeonhole) is run
//! against each algorithm on lines of growing size. Two tables:
//!
//! 1. **Per-round trace** at one size: skew bookkeeping per round,
//!    gain ≥ n_k/12, and the best adjacent skew, against the paper's
//!    `(k+1)/24` guarantee.
//! 2. **Growth with D**: rounds completed and the final witnessed adjacent
//!    skew per network size, next to the paper's `log D / log log D`
//!    comparison curve. The witnessed skew must grow with `D` — this is
//!    the paper's headline: *clock synchronization is not a local
//!    property*.
//!
//! Every round's replayed prefix must match its predicted transformation
//! bit for bit (`prefix_exact`); a run where one does not panics.

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::DriftBound;
use gcs_core::lower_bound::{MainTheorem, MainTheoremConfig};

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![17, 65],
        Scale::Full => vec![17, 65, 257, 1025],
    };
    let trace_size = match scale {
        Scale::Quick => 65,
        Scale::Full => 257,
    };
    let rho = DriftBound::new(0.5).expect("valid rho");

    let algorithms = [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
    ];

    // Table 1: per-round trace for the gradient algorithm at one size.
    let mut trace = Table::new(
        "e5",
        &format!(
            "Theorem 8.1: per-round construction trace (gradient algorithm, \
             D = {trace_size}, σ = 4)"
        ),
        &[
            "round",
            "pair",
            "span n_k",
            "skew_start",
            "gain",
            "guaranteed_gain (n_k/12)",
            "skew_after_ext",
            "best_adjacent",
            "paper_(k+1)/24",
            "prefix_exact",
        ],
    );
    // Every (algorithm, size) construction is one sweep cell; the
    // per-round trace table reads off the gradient run at `trace_size`
    // (which is always one of the swept sizes) instead of re-running it.
    let cells: Vec<(AlgorithmKind, usize)> = algorithms
        .iter()
        .flat_map(|&kind| sizes.iter().map(move |&nodes| (kind, nodes)))
        .collect();
    let reports = SweepRunner::new().map(&cells, |_, &(kind, nodes)| {
        let cfg = MainTheoremConfig::practical(nodes, rho);
        MainTheorem::new(cfg)
            .run(|id, n| kind.build(id, n))
            .expect("construction runs")
    });
    // The construction's claims rest on each replay reproducing its
    // predicted prefix exactly, so a diverged prefix stops the experiment.
    for ((kind, nodes), report) in cells.iter().zip(&reports) {
        for r in &report.rounds {
            assert!(
                r.prefix_ok,
                "{} at D = {nodes}, round {}: the replayed prefix diverged \
                 from its predicted transformation",
                kind.name(),
                r.k
            );
        }
    }

    let gradient = AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    };
    let trace_report = cells
        .iter()
        .zip(&reports)
        .find(|((kind, nodes), _)| *kind == gradient && *nodes == trace_size)
        .map(|(_, report)| report)
        .expect("trace size is one of the swept sizes");
    for r in &trace_report.rounds {
        trace.row(&[
            &r.k.to_string(),
            &format!("({}, {})", r.pair.0, r.pair.1),
            &r.span.to_string(),
            &fnum(r.skew_start),
            &fnum(r.add_skew_gain),
            &fnum(r.span as f64 / 12.0),
            &fnum(r.skew_after_extension),
            &fnum(r.best_adjacent_skew),
            &fnum(r.paper_adjacent_guarantee),
            &r.prefix_ok.to_string(),
        ]);
    }

    // Table 2: growth with D per algorithm.
    let mut growth = Table::new(
        "e5",
        "Theorem 8.1: witnessed adjacent-pair skew vs network size \
         (σ = 4; the paper's shape is log D / log log D)",
        &[
            "algorithm",
            "nodes",
            "diameter",
            "rounds",
            "final_adjacent_skew",
            "log D / log log D",
        ],
    );
    for ((kind, nodes), report) in cells.iter().zip(&reports) {
        growth.row(&[
            kind.name(),
            &nodes.to_string(),
            &fnum(report.diameter),
            &report.rounds_completed().to_string(),
            &fnum(report.final_adjacent_skew),
            &fnum(report.log_ratio),
        ]);
    }

    vec![trace, growth]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_round_gains_meet_guarantee() {
        let tables = run(Scale::Quick);
        let trace = &tables[0];
        assert!(!trace.rows().is_empty());
        for row in trace.rows() {
            let gain: f64 = row[4].parse().unwrap();
            let guaranteed: f64 = row[5].parse().unwrap();
            assert!(gain >= guaranteed - 1e-6, "{row:?}");
            assert_eq!(row[9], "true", "replay prefix diverged: {row:?}");
        }
    }

    #[test]
    fn adjacent_skew_grows_with_network_size() {
        let tables = run(Scale::Quick);
        let growth = &tables[1];
        // For each algorithm the witnessed skew at the largest size must
        // exceed the smallest size's.
        for name in ["max", "gradient"] {
            let rows: Vec<_> = growth.rows().iter().filter(|r| r[0] == name).collect();
            let first: f64 = rows.first().unwrap()[4].parse().unwrap();
            let last: f64 = rows.last().unwrap()[4].parse().unwrap();
            assert!(
                last > first - 1e-9,
                "{name}: skew must not shrink with D ({first} -> {last})"
            );
        }
    }

    #[test]
    fn more_rounds_complete_at_larger_d() {
        let tables = run(Scale::Quick);
        let growth = &tables[1];
        let rows: Vec<_> = growth
            .rows()
            .iter()
            .filter(|r| r[0] == "gradient")
            .collect();
        let r_small: usize = rows.first().unwrap()[3].parse().unwrap();
        let r_large: usize = rows.last().unwrap()[3].parse().unwrap();
        assert!(r_large > r_small, "rounds: {r_small} -> {r_large}");
    }
}
