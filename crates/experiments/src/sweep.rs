//! Parallel experiment sweeps: [`SweepRunner`] executes any item list
//! across threads with work stealing, and [`reference_cell_metrics_json`]
//! is the one fixed telemetry sweep `run_experiments` writes.
//!
//! Every experiment in this crate (E1–E15) runs its parameter sweep
//! through [`SweepRunner::map`]: workers pull the next unclaimed item
//! from a shared counter (so an expensive item never serializes the cheap
//! ones behind it), results come back in *item order* regardless of which
//! worker finished when, and any randomness comes from the items
//! themselves — the sweep's output is bit-independent of thread
//! scheduling.
//!
//! ```
//! use gcs_experiments::sweep::SweepRunner;
//!
//! let seeds = [1_u64, 2, 3];
//! let squares = SweepRunner::new().map(&seeds, |_, &s| s * s);
//! assert_eq!(squares, [1, 4, 9]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gcs_algorithms::AlgorithmKind;
use gcs_telemetry::RunMetrics;
use gcs_testkit::Scenario;

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

/// Runs the reference sweep — ring 8 under drift, max and gradient,
/// seeds 1 and 2, 40 time units — with the standard telemetry collector
/// ([`RunMetrics`]) attached as both tracer and observer, and serializes
/// each cell's registry (event counters, drop reasons, per-link
/// deliveries, latency and adjacent-skew histograms, engine high-water
/// marks) as one JSON document: `{"cells": [{"label":
/// "<scenario>/<algorithm>/s<seed>", "metrics": …}, …]}`.
///
/// Cells stream (`record_events(false)`), and the text is byte-identical
/// for every worker count: every input is sim-domain, and each worker
/// builds its collector locally. `run_experiments` writes it as
/// `cell_metrics.json` when `GCS_OUT` is set.
#[must_use]
pub fn reference_cell_metrics_json(runner: &SweepRunner) -> String {
    let scenario = Scenario::ring(8)
        .drift_walk(0.02, 8.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .horizon(40.0);
    let algorithms = [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
    ];
    let cells: Vec<(AlgorithmKind, u64)> = algorithms
        .into_iter()
        .flat_map(|algorithm| [1, 2].map(|seed| (algorithm, seed)))
        .collect();
    let rows = runner.map(&cells, |_, &(algorithm, seed)| {
        let collector = RunMetrics::new();
        let mut sim = scenario
            .clone()
            .algorithm(algorithm)
            .seed(seed)
            .record_events(false)
            .build();
        sim.set_tracer(Box::new(collector.clone()));
        sim.set_probe_schedule(0.0, 1.0);
        let mut observer = collector.clone();
        sim.try_run_until_observed(scenario.horizon_time(), &mut [&mut observer])
            .expect("the metrics cell");
        collector.stamp_stats(&sim.stats());
        format!(
            "{{\"label\":\"{}/{}/s{seed}\",\"metrics\":{}}}",
            scenario.name(),
            algorithm.name(),
            collector.snapshot().to_json()
        )
    });
    format!("{{\"cells\":[\n{}\n]}}\n", rows.join(",\n"))
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
    fn run_cell_metrics_collects_and_is_thread_count_invariant() {
        let a = reference_cell_metrics_json(&SweepRunner::with_threads(1));
        let b = reference_cell_metrics_json(&SweepRunner::new());
        // Byte-identical JSON regardless of worker count.
        assert_eq!(a, b);
        // Every cell of a syncing ring delivers messages and carries the
        // queue gauge and the adjacent-skew histogram.
        assert_eq!(a.matches("\"events/deliver\":").count(), 4);
        assert_eq!(a.matches("\"queue/peak_events\":").count(), 4);
        assert_eq!(a.matches("\"adjacent_skew\":").count(), 4);
        assert!(!a.contains("\"events/deliver\":0,"));
    }

    #[test]
    fn cell_metrics_json_is_wellformed_enough() {
        let json = reference_cell_metrics_json(&SweepRunner::new());
        assert!(json.starts_with("{\"cells\":["));
        assert!(json.contains("\"label\":\"ring_8/max/s1\""));
        assert!(json.contains("\"counters\""));
        // The bytes `run_experiments` writes, pinned. Regenerate
        // intentionally with GCS_BLESS=1.
        gcs_testkit::assert_text_matches_golden(
            &json,
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../tests/golden/cell_metrics.json"
            ),
        );
    }
}
