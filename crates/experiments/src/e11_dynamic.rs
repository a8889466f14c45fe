//! E11 — dynamic networks: churn rate vs. achieved local skew.
//!
//! The Fan–Lynch model fixes the graph; Kuhn–Lenzen–Locher–Oshman
//! (*Optimal Gradient Clock Synchronization in Dynamic Networks*) let it
//! churn, and predict a two-tier guarantee: stable edges keep a strong
//! (gradient) local-skew bound, while a newly formed edge starts under a
//! weak bound that tightens over a stabilization window. This experiment
//! measures both phenomena on a ring under Poisson edge churn:
//!
//! 1. **Churn rate vs. local skew** — for increasing churn rates, the
//!    worst skew observed across *live* edges and across *stable* edges
//!    (up-interval older than the window), per algorithm. The dynamic
//!    gradient algorithm keeps stable-edge skew near its static value
//!    while the static algorithms have no churn story at all (their skew
//!    on re-formed edges is whatever drift produced).
//! 2. **Skew vs. link age** — binned by time since edge formation,
//!    showing the weak→strong tightening on the churning edges.

use gcs_algorithms::AlgorithmKind;
use gcs_clocks::{drift::DriftModel, DriftBound};
use gcs_dynamic::{ChurnSchedule, DynamicTopology};
use gcs_net::{Topology, UniformDelay};
use gcs_sim::{Execution, MessageStatus, SimulationBuilder};
use gcs_testkit::for_each_live_edge_sample;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

const WINDOW: f64 = 20.0;

struct ChurnRun {
    exec: Execution<gcs_algorithms::SyncMsg>,
    view: DynamicTopology,
}

fn churn_run(kind: AlgorithmKind, n: usize, rate: f64, horizon: f64, seed: u64) -> ChurnRun {
    let base = Topology::ring(n);
    let schedule = if rate > 0.0 {
        ChurnSchedule::random_churn(&base.neighbor_edges(), rate, horizon, seed ^ 0xC0FFEE)
    } else {
        ChurnSchedule::empty()
    };
    let view = DynamicTopology::new(base, schedule).expect("ring churn is valid");
    let rho = DriftBound::new(0.02).expect("valid rho");
    let drift = DriftModel::new(rho, 10.0, 0.005);
    let exec = SimulationBuilder::new_dynamic(view.clone())
        .schedules(drift.generate_network(seed, n, horizon))
        .delay_policy(UniformDelay::new(0.1, 0.9, seed ^ 0xD1CE))
        .build_with(|id, nn| kind.build(id, nn))
        .unwrap()
        .try_execute_until(horizon)
        .expect("the churned dynamic run");
    ChurnRun { exec, view }
}

/// Worst |skew| over sampled times for live edges, split into
/// (all live edges, stable edges only), skipping `from` as warm-up.
fn measure_skews(run: &ChurnRun, from: f64, samples: usize) -> (f64, f64) {
    let mut worst_live = 0.0_f64;
    let mut worst_stable = 0.0_f64;
    for_each_live_edge_sample(&run.exec, &run.view, from, samples, |s| {
        worst_live = worst_live.max(s.skew);
        if s.age >= WINDOW {
            worst_stable = worst_stable.max(s.skew);
        }
    });
    (worst_live, worst_stable)
}

/// Worst |skew| binned by link age: `bins` equal-width bins over
/// `[0, window)` plus one for `>= window`. `NaN` marks empty bins.
fn age_profile(run: &ChurnRun, from: f64, samples: usize, bins: usize) -> Vec<f64> {
    let mut worst = vec![f64::NAN; bins + 1];
    for_each_live_edge_sample(&run.exec, &run.view, from, samples, |s| {
        let bin = if s.age >= WINDOW {
            bins
        } else {
            ((s.age / WINDOW * bins as f64) as usize).min(bins - 1)
        };
        if worst[bin].is_nan() || s.skew > worst[bin] {
            worst[bin] = s.skew;
        }
    });
    worst
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let (n, horizon, samples, rates): (usize, f64, usize, Vec<f64>) = match scale {
        Scale::Quick => (8, 150.0, 100, vec![0.0, 0.05, 0.2]),
        Scale::Full => (16, 400.0, 300, vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.5]),
    };
    let algorithms = [
        AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: WINDOW,
        },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
        AlgorithmKind::Max { period: 1.0 },
    ];

    let mut sweep = Table::new(
        "e11",
        &format!(
            "Churn rate vs. local skew (ring of {n}, Poisson edge churn, \
             stabilization window {WINDOW})"
        ),
        &[
            "churn_rate",
            "algorithm",
            "worst_live_edge_skew",
            "worst_stable_edge_skew",
            "messages_dropped",
        ],
    );
    let heaviest_rate = *rates.last().expect("nonempty sweep");
    // Churn-rate × algorithm cells, swept in parallel in row order; the
    // heaviest dynamic-gradient run is kept for the age-profile table.
    let cells: Vec<(f64, usize)> = rates
        .iter()
        .flat_map(|&rate| (0..algorithms.len()).map(move |a| (rate, a)))
        .collect();
    let results = SweepRunner::new().map(&cells, |_, &(rate, a)| {
        let kind = algorithms[a];
        let run = churn_run(kind, n, rate, horizon, 42);
        let (live, stable) = measure_skews(&run, horizon * 0.25, samples);
        let dropped = run
            .exec
            .messages()
            .iter()
            .filter(|m| m.status == MessageStatus::Dropped)
            .count();
        let row = vec![
            fnum(rate),
            kind.name().to_string(),
            fnum(live),
            fnum(stable),
            dropped.to_string(),
        ];
        let keep = a == 0 && rate == heaviest_rate;
        (row, keep.then_some(run))
    });
    let mut heavy: Option<ChurnRun> = None;
    for (row, kept) in results {
        sweep.row_owned(row);
        if let Some(run) = kept {
            heavy = Some(run);
        }
    }

    // Table 2: the weak→strong tightening, binned by link age, for the
    // dynamic gradient under the heaviest sweep rate.
    let bins = 4;
    let mut profile = Table::new(
        "e11",
        &format!(
            "Worst skew vs. link age (dynamic-gradient, ring of {n}, churn \
             rate {heaviest_rate})"
        ),
        &["link_age", "worst_skew"],
    );
    let heavy = heavy.expect("sweep includes the heaviest rate");
    let ages = age_profile(&heavy, horizon * 0.25, samples, bins);
    for (bin, worst) in ages.iter().enumerate() {
        let label = if bin == bins {
            format!(">= {WINDOW} (stable)")
        } else {
            format!(
                "[{}, {})",
                fnum(WINDOW * bin as f64 / bins as f64),
                fnum(WINDOW * (bin + 1) as f64 / bins as f64)
            )
        };
        let cell = if worst.is_nan() {
            "-".to_string()
        } else {
            fnum(*worst)
        };
        profile.row_owned(vec![label, cell]);
    }

    vec![sweep, profile]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_produces_both_tables() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        // 3 rates × 3 algorithms.
        assert_eq!(tables[0].rows().len(), 9);
        assert!(tables[1].rows().len() >= 2);
    }

    #[test]
    fn static_baseline_rate_zero_drops_nothing() {
        let run = churn_run(
            AlgorithmKind::DynamicGradient {
                period: 1.0,
                kappa_strong: 0.5,
                kappa_weak: 6.0,
                window: WINDOW,
            },
            6,
            0.0,
            60.0,
            1,
        );
        assert!(run
            .exec
            .messages()
            .iter()
            .all(|m| m.status != MessageStatus::Dropped));
        let (live, stable) = measure_skews(&run, 15.0, 50);
        // With no churn every edge is stable, so the two coincide.
        assert_eq!(live, stable);
    }

    #[test]
    fn churn_degrades_live_skew_but_not_stable_skew_catastrophically() {
        let kind = AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: WINDOW,
        };
        let churned = churn_run(kind, 8, 0.2, 150.0, 42);
        let (live, stable) = measure_skews(&churned, 37.5, 100);
        assert!(stable <= live + 1e-9);
        // The stable tier keeps a modest bound even under heavy churn.
        assert!(stable < 8.0, "stable-edge skew blew up: {stable}");
    }
}
