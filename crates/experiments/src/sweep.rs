//! Declarative experiment sweeps: [`RunSpec`] enumerates the cells of a
//! scenario × algorithm × seed grid, and [`SweepRunner`] executes any cell
//! list across threads with work stealing.
//!
//! Every experiment in this crate (E1–E11) runs its parameter sweep
//! through [`SweepRunner::map`], which replaced the hand-rolled
//! `std::thread::scope` fan-out: workers pull the next unclaimed cell
//! from a shared counter (so an expensive cell never serializes the cheap
//! ones behind it), results come back in *cell order* regardless of which
//! worker finished when, and cell seeds are fixed by the spec up front —
//! the sweep's output is bit-independent of thread scheduling.
//!
//! ```
//! use gcs_algorithms::AlgorithmKind;
//! use gcs_experiments::sweep::{MetricsSpec, RunSpec, SweepRunner};
//! use gcs_testkit::Scenario;
//!
//! let spec = RunSpec::new()
//!     .scenario(Scenario::ring(8).horizon(40.0))
//!     .algorithms([
//!         AlgorithmKind::Max { period: 1.0 },
//!         AlgorithmKind::Gradient { period: 1.0, kappa: 0.5 },
//!     ])
//!     .seeds([1, 2]);
//! let results = SweepRunner::new().run_metrics(&spec, &MetricsSpec::default());
//! assert_eq!(results.len(), 4); // 1 scenario × 2 algorithms × 2 seeds
//! for (cell, metrics) in &results {
//!     assert!(metrics.global_skew >= 0.0, "{}", cell.label);
//! }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gcs_algorithms::AlgorithmKind;
use gcs_sim::{
    AdjacentSkewObserver, GlobalSkewObserver, GradientProfileObserver, ValidityObserver,
};
use gcs_telemetry::{MetricsRegistry, RunMetrics};
use gcs_testkit::{Scenario, StreamedMetrics};

/// Executes work items across threads with work stealing (a shared
/// next-item counter), returning results in item order.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using all available parallelism.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self { threads }
    }

    /// A runner with an explicit worker count (1 = fully sequential —
    /// handy for debugging a sweep under a deterministic schedule).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one worker");
        Self { threads }
    }

    /// Maps `work` over `items` in parallel. Workers claim items from a
    /// shared counter (work stealing), so long items never serialize the
    /// rest; the result vector is in item order, and — because any
    /// randomness must come from the items themselves — identical across
    /// runs and thread counts.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any `work` call after the sweep drains.
    pub fn map<T, R, F>(&self, items: &[T], work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(items.len());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let result = work(i, &items[i]);
                    *slots[i].lock().expect("no poisoned result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no poisoned result slot")
                    .expect("every item was claimed and completed")
            })
            .collect()
    }
}

/// One cell of a [`RunSpec`] grid: a fully configured scenario plus the
/// coordinates it came from.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The ready-to-run scenario (algorithm and seed already applied).
    pub scenario: Scenario,
    /// The algorithm of this cell.
    pub algorithm: AlgorithmKind,
    /// The seed of this cell.
    pub seed: u64,
    /// `scenario/algorithm/seed` indices into the spec's axes.
    pub coords: (usize, usize, usize),
    /// `"<scenario>/<algorithm>/s<seed>"`, for labeling rows and failures.
    pub label: String,
}

/// A declarative sweep: the cross product of scenarios × algorithms ×
/// seeds, enumerated in a fixed order with per-cell seeding that does not
/// depend on how the sweep is executed.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    scenarios: Vec<Scenario>,
    algorithms: Vec<AlgorithmKind>,
    seeds: Vec<u64>,
}

impl RunSpec {
    /// An empty spec.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one scenario axis entry.
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Adds several scenarios.
    #[must_use]
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios.extend(scenarios);
        self
    }

    /// Adds one algorithm axis entry.
    #[must_use]
    pub fn algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithms.push(algorithm);
        self
    }

    /// Adds several algorithms.
    #[must_use]
    pub fn algorithms(mut self, algorithms: impl IntoIterator<Item = AlgorithmKind>) -> Self {
        self.algorithms.extend(algorithms);
        self
    }

    /// Adds replication seeds. The same seed is applied to every
    /// (scenario, algorithm) pair of its replication — algorithms are
    /// compared under *paired* randomness, the standard design for skew
    /// comparisons.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Enumerates the grid in (scenario, algorithm, seed) lexicographic
    /// order. An empty algorithm axis keeps each scenario's own algorithm;
    /// an empty seed axis keeps each scenario's own seed.
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for (si, scenario) in self.scenarios.iter().enumerate() {
            let algorithms: Vec<(usize, AlgorithmKind)> = if self.algorithms.is_empty() {
                vec![(0, scenario.algorithm_kind())]
            } else {
                self.algorithms.iter().copied().enumerate().collect()
            };
            let seeds: Vec<(usize, u64)> = if self.seeds.is_empty() {
                vec![(0, scenario.seed_value())]
            } else {
                self.seeds.iter().copied().enumerate().collect()
            };
            for &(ai, algorithm) in &algorithms {
                for &(ki, seed) in &seeds {
                    let label = format!("{}/{}/s{}", scenario.name(), algorithm.name(), seed);
                    let cell_scenario = scenario
                        .clone()
                        .algorithm(algorithm)
                        .seed(seed)
                        .named(label.clone());
                    cells.push(SweepCell {
                        scenario: cell_scenario,
                        algorithm,
                        seed,
                        coords: (si, ai, ki),
                        label,
                    });
                }
            }
        }
        cells
    }
}

/// How [`SweepRunner::run_metrics`] measures each cell.
#[derive(Debug, Clone, Copy)]
pub struct MetricsSpec {
    /// Probe cadence in simulated time.
    pub probe_every: f64,
    /// Fraction of the horizon to skip as warm-up before probing.
    pub warmup_fraction: f64,
    /// Pairs within this topology distance count as adjacent.
    pub adjacent_radius: f64,
}

impl Default for MetricsSpec {
    fn default() -> Self {
        Self {
            probe_every: 1.0,
            warmup_fraction: 0.25,
            adjacent_radius: 1.0,
        }
    }
}

impl SweepRunner {
    /// Runs every cell of `spec` with streaming observers in the engine's
    /// O(1)-memory mode (`record_events(false)`): no execution is
    /// retained, so sweeps scale to horizons and node counts recording
    /// cannot touch. Results come back in cell order as
    /// [`StreamedMetrics`] — the same type the testkit's post-hoc oracle
    /// path produces, so sweep output feeds the equivalence checks
    /// directly.
    #[must_use]
    pub fn run_metrics(
        &self,
        spec: &RunSpec,
        metrics: &MetricsSpec,
    ) -> Vec<(SweepCell, StreamedMetrics)> {
        let cells = spec.cells();
        let measured = self.map(&cells, |_, cell| {
            let horizon = cell.scenario.horizon_time();
            let mut global = GlobalSkewObserver::new();
            let mut adjacent = AdjacentSkewObserver::new(metrics.adjacent_radius);
            let mut profile = GradientProfileObserver::new();
            let mut validity = ValidityObserver::new(0.5);
            // Two phases so streaming compaction never lapses: metrics
            // skip the warm-up window, but the engine only compacts (the
            // trajectories and a lazy clock source) at probe instants —
            // an unobserved probe grid covers the warm-up, then the grid
            // restarts (forward) at the warm-up boundary with observers
            // attached, firing the exact probe times `run_observed`
            // would have. The simulation is dropped without
            // `into_execution`, so nothing is ever materialized.
            let warmup = horizon * metrics.warmup_fraction;
            let mut sim = cell.scenario.clone().record_events(false).build();
            sim.set_probe_schedule(0.0, metrics.probe_every);
            sim.try_run_until_observed(warmup, &mut [])
                .expect("the streamed cell's warm-up");
            sim.set_probe_schedule(warmup, metrics.probe_every);
            sim.try_run_until_observed(
                horizon,
                &mut [&mut global, &mut adjacent, &mut profile, &mut validity],
            )
            .expect("the streamed cell");
            StreamedMetrics {
                global_skew: global.worst(),
                adjacent_skew: adjacent.worst(),
                profile: profile.rows(),
                validity_violations: validity.violations(),
            }
        });
        cells.into_iter().zip(measured).collect()
    }
}

impl SweepRunner {
    /// Runs every cell of `spec` with the standard telemetry collector
    /// ([`gcs_telemetry::RunMetrics`]) attached as both tracer and
    /// observer, returning each cell's [`MetricsRegistry`] snapshot
    /// (event counters, drop reasons, per-link deliveries, latency and
    /// adjacent-skew histograms, engine high-water marks) in cell
    /// order.
    ///
    /// Like [`SweepRunner::run_metrics`], cells stream
    /// (`record_events(false)`) and results are bit-independent of the
    /// worker count: every input is sim-domain, and each worker builds
    /// its collector locally.
    #[must_use]
    pub fn run_cell_metrics(
        &self,
        spec: &RunSpec,
        metrics: &MetricsSpec,
    ) -> Vec<(SweepCell, MetricsRegistry)> {
        let cells = spec.cells();
        let measured = self.map(&cells, |_, cell| {
            let horizon = cell.scenario.horizon_time();
            let collector = RunMetrics::new();
            let mut sim = cell.scenario.clone().record_events(false).build();
            sim.set_tracer(Box::new(collector.clone()));
            sim.set_probe_schedule(0.0, metrics.probe_every);
            let mut observer = collector.clone();
            sim.try_run_until_observed(horizon, &mut [&mut observer])
                .expect("the metrics cell");
            collector.stamp_stats(&sim.stats());
            collector.snapshot()
        });
        cells.into_iter().zip(measured).collect()
    }
}

/// Serializes per-cell metrics (from [`SweepRunner::run_cell_metrics`])
/// as one deterministic JSON document: `{"cells": [{"label": …,
/// "metrics": …}, …]}` in cell order. Written next to the experiment
/// CSVs by `run_experiments` when `GCS_OUT` is set.
#[must_use]
pub fn cell_metrics_json(results: &[(SweepCell, MetricsRegistry)]) -> String {
    let mut out = String::from("{\"cells\":[\n");
    for (k, (cell, registry)) in results.iter().enumerate() {
        if k > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"metrics\":{}}}",
            cell.label,
            registry.to_json()
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = SweepRunner::new().map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_deterministic_across_thread_counts() {
        let items: Vec<u64> = (0..33).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sequential = SweepRunner::with_threads(1).map(&items, f);
        let parallel = SweepRunner::new().map(&items, f);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = SweepRunner::new().map(&[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items = [1, 2, 3];
        let _ = SweepRunner::with_threads(2).map(&items, |_, &x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn cells_cross_scenarios_algorithms_and_seeds() {
        let spec = RunSpec::new()
            .scenarios([Scenario::line(4), Scenario::ring(5)])
            .algorithms([
                AlgorithmKind::NoSync,
                AlgorithmKind::Max { period: 1.0 },
                AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                },
            ])
            .seeds([7, 8]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].coords, (0, 0, 0));
        assert_eq!(cells[0].seed, 7);
        assert_eq!(cells.last().unwrap().coords, (1, 2, 1));
        assert!(cells[0].label.contains("line_4"));
        assert!(cells[0].label.contains("no-sync"));
    }

    #[test]
    fn empty_axes_fall_back_to_the_scenario_defaults() {
        let spec = RunSpec::new().scenario(
            Scenario::line(3)
                .algorithm(AlgorithmKind::Max { period: 1.0 })
                .seed(99),
        );
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, 99);
        assert!(matches!(cells[0].algorithm, AlgorithmKind::Max { .. }));
    }

    #[test]
    fn run_metrics_streams_every_cell() {
        let spec = RunSpec::new()
            .scenario(Scenario::line(4).spread_rates(0.02).horizon(40.0))
            .algorithms([AlgorithmKind::NoSync, AlgorithmKind::Max { period: 1.0 }]);
        let results = SweepRunner::new().run_metrics(&spec, &MetricsSpec::default());
        assert_eq!(results.len(), 2);
        // Unsynchronized clocks drift apart; max-sync reins them in.
        let no_sync = &results[0].1;
        let max_sync = &results[1].1;
        assert!(no_sync.global_skew > max_sync.global_skew);
        assert_eq!(max_sync.validity_violations, 0);
        assert!(!max_sync.profile.is_empty());
    }

    #[test]
    fn run_metrics_matches_a_single_phase_observed_run() {
        // The two-phase drive (unobserved warm-up grid for compaction,
        // then the observed grid from the warm-up boundary) must produce
        // bit-equal metrics to the plain `run_observed` single phase.
        let scenario = Scenario::ring(6)
            .drift_walk(0.02, 8.0, 0.005)
            .uniform_delay(0.1, 0.9)
            .seed(21)
            .horizon(40.0);
        let metrics = MetricsSpec::default();
        let spec = RunSpec::new().scenario(scenario.clone());
        let (_, swept) = SweepRunner::with_threads(1)
            .run_metrics(&spec, &metrics)
            .remove(0);

        let mut global = GlobalSkewObserver::new();
        let mut adjacent = AdjacentSkewObserver::new(metrics.adjacent_radius);
        let mut profile = GradientProfileObserver::new();
        let mut validity = ValidityObserver::new(0.5);
        let _ = scenario.record_events(false).run_observed(
            40.0 * metrics.warmup_fraction,
            metrics.probe_every,
            &mut [&mut global, &mut adjacent, &mut profile, &mut validity],
        );
        assert_eq!(swept.global_skew.to_bits(), global.worst().to_bits());
        assert_eq!(swept.adjacent_skew.to_bits(), adjacent.worst().to_bits());
        assert_eq!(swept.profile, profile.rows());
        assert_eq!(swept.validity_violations, validity.violations());
    }

    #[test]
    fn run_cell_metrics_collects_and_is_thread_count_invariant() {
        let spec = RunSpec::new()
            .scenario(
                Scenario::ring(6)
                    .drift_walk(0.02, 8.0, 0.005)
                    .uniform_delay(0.1, 0.9)
                    .horizon(30.0),
            )
            .algorithm(AlgorithmKind::Max { period: 1.0 })
            .seeds([3, 4]);
        let metrics = MetricsSpec::default();
        let a = SweepRunner::with_threads(1).run_cell_metrics(&spec, &metrics);
        let b = SweepRunner::new().run_cell_metrics(&spec, &metrics);
        assert_eq!(a.len(), 2);
        // Byte-identical JSON regardless of worker count.
        assert_eq!(cell_metrics_json(&a), cell_metrics_json(&b));
        for (cell, registry) in &a {
            assert!(
                registry.counter("events/deliver") > 0,
                "{}: a syncing ring must deliver messages",
                cell.label
            );
            assert!(registry.gauge("queue/peak_events").is_some());
            let h = registry.histogram("adjacent_skew").expect("skew histogram");
            assert!(h.count() > 0);
        }
    }

    #[test]
    fn cell_metrics_json_is_wellformed_enough() {
        let spec = RunSpec::new()
            .scenario(Scenario::line(3).horizon(10.0))
            .algorithm(AlgorithmKind::NoSync);
        let results = SweepRunner::with_threads(1).run_cell_metrics(&spec, &MetricsSpec::default());
        let json = cell_metrics_json(&results);
        assert!(json.starts_with("{\"cells\":["));
        assert!(json.contains("\"label\":\"line_3/no-sync/"));
        assert!(json.contains("\"counters\""));
    }

    #[test]
    fn run_metrics_is_deterministic() {
        let spec = RunSpec::new()
            .scenario(
                Scenario::ring(6)
                    .drift_walk(0.02, 8.0, 0.005)
                    .uniform_delay(0.1, 0.9)
                    .horizon(30.0),
            )
            .algorithm(AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            })
            .seeds([3, 4, 5]);
        let a = SweepRunner::with_threads(1).run_metrics(&spec, &MetricsSpec::default());
        let b = SweepRunner::new().run_metrics(&spec, &MetricsSpec::default());
        for ((_, ma), (_, mb)) in a.iter().zip(&b) {
            assert_eq!(ma, mb);
        }
    }
}
