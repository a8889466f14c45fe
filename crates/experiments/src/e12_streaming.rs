//! E12 — streaming sweeps at 100× horizon under random-walk drift.
//!
//! The paper's model treats hardware clocks as rate *functions* the
//! execution queries online — not tables precomputed to a fixed horizon
//! (in the dynamic-network setting of Kuhn–Lenzen–Locher–Oshman,
//! executions have no final horizon at all). This experiment pins the
//! engineering counterpart: a streaming run
//! (`record_events(false)`) with random-walk drift reads its clocks
//! through `gcs_clocks::LazyDriftSource`, so its entire footprint —
//! message slots, trajectory breakpoints, *and* schedule segments — is
//! bounded by the network's in-flight state, independent of horizon.
//!
//! One table: horizons growing from 1× to 100× the scenario default,
//! with the peak live footprint counters alongside the segment count an
//! eager schedule vector would have pinned in memory for the same run.
//! The metric columns double as a sanity check that the long runs stay
//! synchronized (the gradient algorithm's skew does not drift off).

use gcs_algorithms::AlgorithmKind;
use gcs_sim::{GlobalSkewObserver, SimStats, ValidityObserver};
use gcs_testkit::Scenario;

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Peak footprint counters over a chunked streaming run.
struct StreamedRun {
    worst_skew: f64,
    validity_violations: u64,
    peak: SimStats,
    eager_segments: usize,
}

fn streaming_run(n: usize, horizon: f64, seed: u64) -> StreamedRun {
    let scenario = Scenario::ring(n)
        .algorithm(AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        })
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.25, 0.75)
        .seed(seed)
        .horizon(horizon)
        .record_events(false);
    let eager_segments = scenario
        .schedules()
        .iter()
        .map(|s| s.segments().len())
        .sum();

    let mut sim = scenario.build();
    sim.set_probe_schedule(0.0, 1.0);
    let mut global = GlobalSkewObserver::new();
    let mut validity = ValidityObserver::new(0.5);
    let mut peak = sim.stats();
    let chunks = 20;
    for k in 1..=chunks {
        let to = horizon * f64::from(k) / f64::from(chunks);
        sim.try_run_until_observed(to, &mut [&mut global, &mut validity])
            .expect("the streaming chunk");
        let stats = sim.stats();
        peak = SimStats {
            dispatched: stats.dispatched,
            queued_events: peak.queued_events.max(stats.queued_events),
            recorded_events: peak.recorded_events.max(stats.recorded_events),
            message_slots: peak.message_slots.max(stats.message_slots),
            free_message_slots: peak.free_message_slots.max(stats.free_message_slots),
            trajectory_breakpoints: peak
                .trajectory_breakpoints
                .max(stats.trajectory_breakpoints),
            live_schedule_segments: peak
                .live_schedule_segments
                .max(stats.live_schedule_segments),
            // The engine's own high-water marks and drop counters are
            // already monotone over the run; the latest snapshot wins.
            ..stats
        };
    }
    StreamedRun {
        worst_skew: global.worst(),
        validity_violations: validity.violations(),
        peak,
        eager_segments,
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let (n, base, multipliers): (usize, f64, Vec<u32>) = match scale {
        Scale::Quick => (12, 40.0, vec![1, 10, 50]),
        Scale::Full => (64, 100.0, vec![1, 10, 100]),
    };

    let mut table = Table::new(
        "e12",
        &format!(
            "Streaming footprint vs horizon (ring of {n}, random-walk drift, lazy clock source)"
        ),
        &[
            "horizon_multiple",
            "horizon",
            "dispatched_events",
            "worst_global_skew",
            "validity_violations",
            "peak_live_schedule_segments",
            "eager_schedule_segments",
            "peak_message_slots",
            "peak_trajectory_breakpoints",
        ],
    );

    let rows = SweepRunner::new().map(&multipliers, |_, &m| {
        let run = streaming_run(n, base * f64::from(m), 7);
        (m, run)
    });
    for (m, run) in &rows {
        table.row_owned(vec![
            format!("{m}x"),
            fnum(base * f64::from(*m)),
            run.peak.dispatched.to_string(),
            fnum(run.worst_skew),
            run.validity_violations.to_string(),
            run.peak.live_schedule_segments.to_string(),
            run.eager_segments.to_string(),
            run.peak.message_slots.to_string(),
            run.peak.trajectory_breakpoints.to_string(),
        ]);
    }

    // The O(1) claim, asserted: the peak live window at the largest
    // horizon must not exceed the smallest horizon's by more than the
    // window granularity allows, and must stay far below the eager
    // segment count it replaces.
    let longest = &rows.last().expect("at least one multiplier").1;
    assert!(
        longest.peak.live_schedule_segments * 2 < longest.eager_segments,
        "live schedule window ({}) did not stay below the eager footprint ({})",
        longest.peak.live_schedule_segments,
        longest.eager_segments
    );

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_footprint_is_flat_across_horizons() {
        let short = streaming_run(8, 100.0, 3);
        let long = streaming_run(8, 2000.0, 3);
        assert!(long.peak.dispatched > short.peak.dispatched * 10);
        // The live schedule window is horizon-independent (both stay
        // within the same few windows per node)…
        assert!(
            long.peak.live_schedule_segments <= short.peak.live_schedule_segments + 8 * 64,
            "window grew with the horizon: {} vs {}",
            long.peak.live_schedule_segments,
            short.peak.live_schedule_segments
        );
        // …while the eager representation it replaces grows ~20×.
        assert!(long.eager_segments > short.eager_segments * 10);
        assert_eq!(long.validity_violations, 0);
        assert!(long.worst_skew > 0.0);
    }

    #[test]
    fn quick_scale_produces_one_row_per_multiplier() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows().len(), 3);
    }
}
