//! E15 — every algorithm at scale: a churned 100k-node random-geometric
//! network, streamed through the conservative-window parallel engine.
//!
//! The paper's gradient lower bound is about *large-diameter* networks —
//! `Ω(D)` only bites when `D` is big — but most recorded experiments top
//! out at a few hundred nodes because one partition serializes dispatch.
//! This experiment pins the scale path: a random-geometric graph (the
//! paper's motivating sensor-network geometry) under churn, run in
//! streaming mode on `k` shards ([`gcs_sim::SimulationBuilder::shards`]),
//! for **every** algorithm in the catalog — including `DynamicGradient`,
//! whose per-node state is O(degree) (a sorted small-vec of formation
//! stamps) rather than O(n), which is what makes a 100k-node churned run
//! representable at all (a dense map would be `n²` slots ≈ 160 GB at full
//! scale).
//!
//! Three claims, asserted:
//!
//! 1. **Coverage** — all eight algorithms complete the churned full-scale
//!    run on `k` shards and report events/sec.
//! 2. **Determinism at scale** — `DynamicGradient` produces bit-identical
//!    observer streams (worst global skew and its instant compared by
//!    `to_bits`) on one shard and on `k`, the same invariant
//!    `tests/shard_determinism.rs` pins on small goldens.
//! 3. **O(Σ degree) state** — peak RSS (`VmHWM`) stays orders of
//!    magnitude below the dense-state footprint at full scale.
//!
//! A third table says where the multi-shard run's wall time went:
//! per shard, windows, events, cross-shard handoffs and busy time from
//! [`gcs_sim::Simulation::counters`], the coordinator's serial
//! phases, and how much of each shard's busy time fell in stretches of
//! the run where the other shards had next to nothing to do.
//!
//! A fourth table is churn at scale: [`DynamicTopology::new`] on the same
//! graph under more than 10,000 Poisson toggles of its neighbor edges,
//! with the compile time, the edge changes and the resident-set growth
//! (asserted under 64 MiB at full scale). At quick scale DynamicGradient
//! also runs under that schedule, recorded, and must pass the weak
//! gradient and stabilization oracles.

use std::time::Instant;

use gcs_algorithms::AlgorithmKind;
use gcs_core::problem::GradientFunction;
use gcs_dynamic::{ChurnSchedule, DynamicTopology};
use gcs_net::Topology;
use gcs_sim::{GlobalSkewObserver, ShardedCounters};
use gcs_testkit::{assert_stabilization, assert_weak_gradient_property, Scenario};

use crate::table::fnum;
use crate::{Scale, Table};

/// One sharded streaming run's outcome.
struct ScaleRun {
    dispatched: u64,
    wall_secs: f64,
    worst_skew: f64,
    worst_at: f64,
    peak_rss_mib: Option<f64>,
    counters: ShardedCounters,
    /// Per shard: nanoseconds of `run_ns` accumulated in slices of the
    /// run where this shard did at least [`ALONE_SHARE`] of all shards'
    /// dispatch work.
    alone_ns: Vec<u64>,
}

/// Every run advances in this many equal slices of its horizon, reading
/// the shard counters in between.
const SLICES: u32 = 20;
/// A shard "ran alone" in a slice when it did at least this share of the
/// slice's dispatch work.
const ALONE_SHARE: f64 = 0.9;

/// A `/proc/self/status` memory line (`VmHWM:`, `VmRSS:`) in MiB, if the
/// platform exposes it (Linux procfs; `None` elsewhere).
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Process-lifetime peak resident set (`VmHWM`) in MiB. Monotone over the
/// process's life, so successive readings bound *cumulative* peak state.
fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// The algorithm catalog at scale. Slack-per-distance parameters are
/// sized for the normalized geometry (typical neighbor distances in the
/// hundreds of units, delays proportional to them).
fn catalog(period: f64, window: f64) -> Vec<AlgorithmKind> {
    vec![
        AlgorithmKind::NoSync,
        AlgorithmKind::Max { period },
        AlgorithmKind::OffsetMax {
            period,
            compensation: 0.5,
        },
        AlgorithmKind::Rbs { period },
        AlgorithmKind::Gradient { period, kappa: 0.5 },
        AlgorithmKind::GradientRate {
            period,
            threshold: 1.0,
            boost: 1.5,
        },
        dynamic_gradient(period, window),
        AlgorithmKind::TreeSync { period },
    ]
}

/// The dynamic-network algorithm the determinism matrix exercises.
fn dynamic_gradient(period: f64, window: f64) -> AlgorithmKind {
    AlgorithmKind::DynamicGradient {
        period,
        kappa_strong: 0.5,
        kappa_weak: 6.0,
        window,
    }
}

/// The E15 scenario: churned random-geometric sync, streaming.
///
/// `random_geometric` normalizes distances so the closest pair sits at
/// distance 1 — the neighbor radius, the broadcast period, and the
/// horizon are all sized in those units (typical neighbor distances are
/// in the hundreds at these densities, and message delays scale with
/// them).
fn scale_scenario(
    kind: AlgorithmKind,
    n: usize,
    extent: f64,
    radius: f64,
    period: f64,
    horizon: f64,
    seed: u64,
) -> Scenario {
    Scenario::random_geometric(n, extent, radius, seed)
        .named(format!("e15_rgg{n}_{}", kind.name()))
        .algorithm(kind)
        .churn(ChurnSchedule::periodic_flap(0, 1, period, horizon))
        .spread_rates(0.01)
        .uniform_delay(0.3, 0.9)
        .seed(seed)
        .horizon(horizon)
        .record_events(false)
}

fn run_sharded(scenario: &Scenario, shards: usize, horizon: f64) -> ScaleRun {
    let kind = scenario.algorithm_kind();
    let mut sim = scenario.build_sharded_with(shards, |id, n| kind.build(id, n));
    sim.set_probe_schedule(0.0, horizon / 4.0);
    let mut global = GlobalSkewObserver::new();
    let mut alone_ns = vec![0u64; sim.counters().shards.len()];
    let mut before = sim.counters();
    let t0 = Instant::now();
    for slice in 1..=SLICES {
        let until = horizon * f64::from(slice) / f64::from(SLICES);
        sim.try_run_until_observed(until, &mut [&mut global])
            .expect("the sharded 100k-node slice");
        let after = sim.counters();
        let spent: Vec<u64> = (after.shards.iter().zip(&before.shards))
            .map(|(a, b)| a.run_ns - b.run_ns)
            .collect();
        let total: u64 = spent.iter().sum();
        for (alone, &ns) in alone_ns.iter_mut().zip(&spent) {
            if ns as f64 >= ALONE_SHARE * total as f64 {
                *alone += ns;
            }
        }
        before = after;
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    ScaleRun {
        dispatched: sim.stats().dispatched,
        wall_secs,
        worst_skew: global.worst(),
        worst_at: global.worst_at(),
        peak_rss_mib: peak_rss_mib(),
        counters: before,
        alone_ns,
    }
}

/// Where the wall time of one sharded run went: a row per shard, the
/// coordinator's two serial phases, then busy time summed over shards
/// against wall. A sum near the wall time with `alone_share` near 1 means
/// the shards took turns; a sum near `shards x wall` means they
/// overlapped.
#[allow(clippy::cast_precision_loss)]
fn shard_table(n: usize, k: usize, run: &ScaleRun) -> Table {
    let ms = |ns: u64| fnum(ns as f64 / 1e6);
    let wall_ns = run.wall_secs * 1e9;
    let of_wall = |ns: u64| fnum(ns as f64 / wall_ns.max(1.0));
    let blank = String::new;
    let mut table = Table::new(
        "e15",
        &format!(
            "Where the wall time went (n = {n}, dynamic-gradient, shards = {k}): \
             per-shard busy time against wall; alone_share is the part of a shard's \
             run_ms spent in twentieths of the horizon where it did at least \
             {ALONE_SHARE} of all dispatch work; handoffs_per_event is the shard's \
             cross-shard sends over its events"
        ),
        &[
            "part",
            "windows",
            "events",
            "handoffs_per_event",
            "run_ms",
            "drain_ms",
            "share_of_wall",
            "alone_share",
        ],
    );
    let mut busy = 0u64;
    for (i, (c, &alone)) in run.counters.shards.iter().zip(&run.alone_ns).enumerate() {
        busy += c.run_ns + c.drain_ns;
        table.row_owned(vec![
            format!("shard {i}"),
            c.windows.to_string(),
            c.events.to_string(),
            fnum(c.handoffs as f64 / (c.events as f64).max(1.0)),
            ms(c.run_ns),
            ms(c.drain_ns),
            of_wall(c.run_ns + c.drain_ns),
            fnum(alone as f64 / (c.run_ns as f64).max(1.0)),
        ]);
    }
    for (part, ns) in [
        ("coordinator merge", run.counters.finish_ns),
        ("coordinator probes", run.counters.probe_ns),
        ("shards summed", busy),
    ] {
        table.row_owned(vec![
            part.to_string(),
            blank(),
            blank(),
            blank(),
            ms(ns),
            blank(),
            of_wall(ns),
            blank(),
        ]);
    }
    let handoffs: u64 = run.counters.shards.iter().map(|c| c.handoffs).sum();
    table.row_owned(vec![
        "wall".to_string(),
        blank(),
        run.dispatched.to_string(),
        fnum(handoffs as f64 / (run.dispatched as f64).max(1.0)),
        fnum(run.wall_secs * 1e3),
        blank(),
        fnum(1.0),
        blank(),
    ]);
    table
}

/// Expected Poisson toggles over the horizon in the churn-scale table.
const CHURN_TOGGLES: f64 = 12_000.0;
/// The churn-scale seed; it draws over 10,000 toggles at both scales.
const CHURN_SEED: u64 = 0xC4A2_0015;

/// Churn at scale: `DynamicTopology::new` on the E15 graph under Poisson
/// toggles of its neighbor edges, and at quick scale DynamicGradient
/// under the same schedule against the churn oracles, held to the
/// bounds the testkit's own churn-oracle test holds it to.
fn churn_table(
    scale: Scale,
    n: usize,
    extent: f64,
    radius: f64,
    period: f64,
    horizon: f64,
) -> Table {
    let topology = Topology::random_geometric(n, extent, radius, 42);
    let rate = CHURN_TOGGLES / horizon;
    let schedule =
        ChurnSchedule::random_churn(&topology.neighbor_edges(), rate, horizon, CHURN_SEED);
    assert!(schedule.len() >= 10_000, "{schedule} draws too few toggles");
    let (rss, t0) = (status_mib("VmRSS:"), Instant::now());
    let view = DynamicTopology::new(topology.clone(), schedule.clone()).expect("base-edge churn");
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let growth = status_mib("VmRSS:")
        .zip(rss)
        .map(|(after, before)| after - before);
    if let (Scale::Full, Some(growth)) = (scale, growth) {
        assert!(
            growth < 64.0,
            "compiling {schedule} grew the resident set by {growth:.1} MiB"
        );
    }
    let (live, stable) = if scale == Scale::Quick {
        let window = horizon / 4.0;
        let scenario = Scenario::on(format!("e15_rgg{n}_churn"), topology)
            .algorithm(dynamic_gradient(period, window))
            .churn(schedule.clone())
            .spread_rates(0.01)
            .uniform_delay(0.3, 0.9)
            .seed(42)
            .horizon(horizon);
        let exec = scenario.run();
        let strong = GradientFunction::Linear {
            per_distance: 2.0,
            constant: 3.0,
        };
        let weak = GradientFunction::Linear {
            per_distance: 8.0,
            constant: 6.0,
        };
        // The oracle window is real time: the algorithm's hardware-time
        // window over 1 - rho, rounded up.
        let (oracle_window, from) = (window * 1.05, horizon / 4.0);
        let live =
            assert_weak_gradient_property(&exec, &view, &strong, &weak, oracle_window, from, 60);
        let stable = assert_stabilization(&exec, &view, &strong, oracle_window, from, 60);
        (fnum(live), fnum(stable))
    } else {
        ("-".into(), "-".into())
    };
    let mut table = Table::new(
        "e15",
        &format!(
            "Churn at O(change) cost (n = {n}, Poisson toggles of the neighbor edges at \
             rate {rate} to horizon {horizon}, seed {CHURN_SEED:#x}): compile time and \
             resident-set growth of DynamicTopology::new; at quick scale DynamicGradient \
             under the same churn passes the weak-gradient (2d + 3 stable, 8d + 6 new) \
             and stabilization oracles"
        ),
        &[
            "toggles",
            "edge_changes",
            "compile_ms",
            "rss_growth_mib",
            "worst_live_skew",
            "worst_stable_skew",
        ],
    );
    table.row_owned(vec![
        schedule.len().to_string(),
        view.edge_changes().len().to_string(),
        fnum(compile_ms),
        growth.map_or_else(|| "n/a".into(), fnum),
        live,
        stable,
    ]);
    table
}

fn rss_cell(r: &ScaleRun) -> String {
    r.peak_rss_mib.map_or_else(|| "n/a".into(), fnum)
}

/// Runs the experiment.
#[must_use]
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(scale: Scale) -> Vec<Table> {
    // Radii chosen (empirically, per seed 42) for mean degree ≈ 7–12 in
    // the normalized geometry; periods/horizons in the same units, long
    // enough that most broadcasts arrive inside the run.
    let (n, extent, radius, period, horizon): (usize, f64, f64, f64, f64) = match scale {
        Scale::Quick => (1_000, 120.0, 550.0, 60.0, 240.0),
        Scale::Full => (100_000, 1000.0, 500.0, 40.0, 200.0),
    };
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    // At least one genuinely multi-shard configuration even on
    // single-core CI machines: cross-shard handoff must be exercised
    // (and checked for determinism) regardless of host parallelism.
    let kmax = match scale {
        Scale::Quick => 4,
        Scale::Full => threads.clamp(2, 16),
    };
    // First, on a heap no simulation has grown yet, so the resident-set
    // growth is the compiled view's.
    let churn = churn_table(scale, n, extent, radius, period, horizon);

    // ── Determinism matrix: DynamicGradient on one shard and on kmax.
    //
    // One shard is the reference — the plain heap discipline — and kmax
    // shards must reproduce its observer stream bit for bit.
    let dyn_scenario = scale_scenario(
        dynamic_gradient(period, horizon / 4.0),
        n,
        extent,
        radius,
        period,
        horizon,
        42,
    );
    let mut shard_matrix = Table::new(
        "e15",
        &format!(
            "Determinism at scale (churned random-geometric, n = {n}, streaming \
             dynamic-gradient to horizon {horizon}): the shard count never changes \
             the output"
        ),
        &[
            "shards",
            "dispatched_events",
            "wall_secs",
            "events_per_sec",
            "worst_global_skew",
            "peak_rss_mib",
        ],
    );
    // Configurations run sequentially: each saturates the machine with
    // its own shard threads, so an outer fan-out would only oversubscribe.
    let mut matrix_runs: Vec<(usize, ScaleRun)> = [1, kmax]
        .into_iter()
        .map(|k| (k, run_sharded(&dyn_scenario, k, horizon)))
        .collect();
    for (k, run) in &matrix_runs {
        shard_matrix.row_owned(vec![
            k.to_string(),
            run.dispatched.to_string(),
            fnum(run.wall_secs),
            fnum(run.dispatched as f64 / run.wall_secs.max(1e-9)),
            fnum(run.worst_skew),
            rss_cell(run),
        ]);
    }

    let (_, multi) = &matrix_runs[1];
    let shards = shard_table(n, kmax, multi);
    let counted: u64 = multi.counters.shards.iter().map(|c| c.events).sum();
    assert_eq!(
        counted, multi.dispatched,
        "per-shard event counters must add up to the run's dispatched events"
    );

    let (_, reference) = &matrix_runs[0];
    assert!(
        reference.dispatched > n as u64,
        "the scale run barely ran: {} events over {n} nodes",
        reference.dispatched
    );
    assert!(
        multi.worst_skew.to_bits() == reference.worst_skew.to_bits()
            && multi.worst_at.to_bits() == reference.worst_at.to_bits(),
        "shards={kmax} diverged from the single-shard run at n = {n}: worst {} @ {} \
         vs {} @ {}",
        multi.worst_skew,
        multi.worst_at,
        reference.worst_skew,
        reference.worst_at,
    );

    // ── Coverage: every algorithm completes the churned run at kmax.
    // DynamicGradient reuses its matrix run.
    let mut coverage = Table::new(
        "e15",
        &format!(
            "Every algorithm at scale (churned random-geometric, n = {n}, \
             streaming to horizon {horizon}, shards = {kmax})"
        ),
        &[
            "algorithm",
            "dispatched_events",
            "wall_secs",
            "events_per_sec",
            "worst_global_skew",
            "peak_rss_mib",
        ],
    );
    let dyn_name = dynamic_gradient(period, horizon / 4.0).name();
    for kind in catalog(period, horizon / 4.0) {
        let name = kind.name();
        let run = if name == dyn_name {
            let (_, run) = matrix_runs.pop().expect("matrix ran");
            run
        } else {
            let scenario = scale_scenario(kind, n, extent, radius, period, horizon, 42);
            run_sharded(&scenario, kmax, horizon)
        };
        // Every algorithm must genuinely run; NoSync still dispatches its
        // n Start events plus the probe grid.
        assert!(
            run.dispatched >= n as u64,
            "algorithm {name} barely ran: {} events over {n} nodes",
            run.dispatched
        );
        coverage.row_owned(vec![
            name.to_string(),
            run.dispatched.to_string(),
            fnum(run.wall_secs),
            fnum(run.dispatched as f64 / run.wall_secs.max(1e-9)),
            fnum(run.worst_skew),
            rss_cell(&run),
        ]);
    }

    // ── O(Σ degree) state: at full scale a dense per-node neighbor map
    // would be n² slots ≈ 160 GB; the sparse layout keeps the whole
    // 100k-node suite within a CI machine's memory. The bound is loose
    // (it covers the engine, trajectories, and every prior run in this
    // process) — the claim is the *order of magnitude*.
    if scale == Scale::Full {
        if let Some(peak) = peak_rss_mib() {
            assert!(
                peak < 12_288.0,
                "full-scale peak RSS {peak:.0} MiB exceeds the O(Σ degree) \
                 budget; dense per-node state would be ~160000 MiB"
            );
        }
    }

    vec![shard_matrix, coverage, shards, churn]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_deterministic_across_shard_counts() {
        // The in-experiment assertions do the heavy lifting; this pins
        // the quick configuration's shape: one shard-matrix table (1 and
        // 4 shards), one coverage table (8 algorithms) and the wall-time
        // table (4 shards, 3 sums, wall), then the one churn-scale row.
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].rows().len(), 2);
        assert_eq!(tables[1].rows().len(), 8);
        assert_eq!(tables[2].rows().len(), 4 + 3 + 1);
        assert_eq!(tables[3].rows().len(), 1);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // On Linux the probe must parse; elsewhere it degrades to None.
        if cfg!(target_os = "linux") {
            let mib = peak_rss_mib().expect("VmHWM present on Linux");
            assert!(mib > 1.0, "implausible peak RSS {mib} MiB");
        }
    }
}
