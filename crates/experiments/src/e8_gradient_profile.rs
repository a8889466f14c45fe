//! E8 — the Section-9 conjecture: empirical skew-vs-distance gradients.
//!
//! The paper conjectures that `f(d) = O(d + log D)` is achievable. This
//! experiment runs each algorithm under stochastic drift and random delays
//! and measures the *empirical gradient*: for every pairwise distance, the
//! worst observed skew. Two tables:
//!
//! 1. **Skew vs distance** on one line: gradient algorithms produce a
//!    profile that grows with distance from a small `f(1)`; max-based
//!    algorithms produce a flat profile at diameter scale (no gradient).
//! 2. **`f(1)` vs D**: the adjacent-pair skew as the network grows —
//!    bounded for gradient algorithms (conjectured `O(log D)` shape), and
//!    contrasted with the lower-bound curve `log D / log log D`.

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::{drift::DriftModel, DriftBound};
use gcs_net::{Topology, UniformDelay};
use gcs_sim::{observe_execution, GradientProfileObserver, SimulationBuilder};

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

fn profile_run(kind: AlgorithmKind, n: usize, horizon: f64, seed: u64) -> GradientProfileObserver {
    let rho = DriftBound::new(0.02).expect("valid rho");
    let drift = DriftModel::new(rho, 10.0, 0.005);
    let topology = Topology::line(n);
    let exec = SimulationBuilder::new(topology)
        .schedules(drift.generate_network(seed, n, horizon))
        .delay_policy(UniformDelay::new(0.1, 0.9, seed ^ 0xD1CE))
        .build_with(|id, nn| kind.build(id, nn))
        .unwrap()
        .try_execute_until(horizon)
        .expect("the gradient-profile line run");
    // Skip the first quarter as warm-up, then probe 201 evenly spaced
    // instants through the horizon.
    let from = horizon * 0.25;
    let mut profile = GradientProfileObserver::new();
    observe_execution(&exec, from, (horizon - from) / 200.0, &mut [&mut profile]);
    profile
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let (n, horizon, sizes): (usize, f64, Vec<usize>) = match scale {
        Scale::Quick => (17, 150.0, vec![9, 17, 33]),
        Scale::Full => (33, 400.0, vec![9, 17, 33, 65, 129]),
    };

    let algorithms = [
        AlgorithmKind::NoSync,
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::OffsetMax {
            period: 1.0,
            compensation: 0.5,
        },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.25,
        },
        AlgorithmKind::GradientRate {
            period: 1.0,
            threshold: 0.25,
            boost: 1.5,
        },
    ];

    // Table 1: skew vs distance, one column per algorithm.
    let mut columns: Vec<String> = vec!["distance".to_string()];
    columns.extend(algorithms.iter().map(|k| k.name().to_string()));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut by_distance = Table::new(
        "e8",
        &format!("Empirical gradient: worst skew per distance (line of {n}, stochastic drift)"),
        &col_refs,
    );

    let profiles: Vec<GradientProfileObserver> =
        SweepRunner::new().map(&algorithms, |_, &k| profile_run(k, n, horizon, 42));
    let distances: Vec<f64> = profiles[0].rows().iter().map(|(d, _)| *d).collect();
    for &d in &distances {
        let mut cells = vec![fnum(d)];
        for p in &profiles {
            cells.push(fnum(p.max_skew_at_distance(d)));
        }
        by_distance.row_owned(cells);
    }

    // Table 2: f(1) growth with D.
    let mut growth = Table::new(
        "e8",
        "Observed f(1) (worst adjacent skew) vs network size",
        &[
            "algorithm",
            "nodes",
            "observed_f1",
            "observed_global_skew",
            "lower_bound_shape (log D/log log D)",
        ],
    );
    let growth_cells: Vec<(AlgorithmKind, usize)> = [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.25,
        },
    ]
    .iter()
    .flat_map(|&kind| sizes.iter().map(move |&nn| (kind, nn)))
    .collect();
    let growth_rows = SweepRunner::new().map(&growth_cells, |_, &(kind, nn)| {
        let p = profile_run(kind, nn, horizon, 7);
        let diam = (nn - 1) as f64;
        let ln = diam.max(4.0).ln();
        vec![
            kind.name().to_string(),
            nn.to_string(),
            fnum(p.max_skew_at_distance(1.0)),
            fnum(p.global_skew()),
            fnum(ln / ln.ln()),
        ]
    });
    for row in growth_rows {
        growth.row_owned(row);
    }

    vec![by_distance, growth]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_profile_grows_with_distance() {
        let tables = run(Scale::Quick);
        // Both quick-scale tables, pinned as text. Regenerate intentionally
        // with GCS_BLESS=1.
        let text: String = tables.iter().map(|t| t.render() + "\n").collect();
        gcs_testkit::assert_text_matches_golden(
            &text,
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../tests/golden/e8_tables_quick.txt"
            ),
        );
        let rows = tables[0].rows();
        let first = &rows[0];
        let last = rows.last().unwrap();
        // For the gradient algorithm (column 4), far pairs may be looser
        // than near pairs; never the other way by more than noise.
        let near: f64 = first[4].parse().unwrap();
        let far: f64 = last[4].parse().unwrap();
        assert!(far >= near - 0.2, "near {near}, far {far}");
    }

    #[test]
    fn gradient_beats_max_at_distance_one() {
        let tables = run(Scale::Quick);
        let rows = tables[0].rows();
        let first = &rows[0]; // distance 1
        let max_skew: f64 = first[2].parse().unwrap();
        let gradient_skew: f64 = first[4].parse().unwrap();
        // Under stochastic conditions the gradient algorithm's nearby skew
        // should not exceed the max algorithm's by more than noise.
        assert!(
            gradient_skew <= max_skew + 0.5,
            "gradient {gradient_skew} vs max {max_skew}"
        );
    }

    #[test]
    fn no_sync_is_the_worst_at_every_distance() {
        let tables = run(Scale::Quick);
        for row in tables[0].rows() {
            let none: f64 = row[1].parse().unwrap();
            let gradient: f64 = row[4].parse().unwrap();
            assert!(
                none + 1e-9 >= gradient || none > 0.5,
                "no-sync should be loose: {row:?}"
            );
        }
    }
}
