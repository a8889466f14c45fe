//! The sharded engine's determinism contract: for every shard count
//! `k ≥ 1` the conservative-window parallel engine produces executions
//! **bit-identical** to the single-heap engine — same events, same
//! messages, same trajectories, same schedules — on every committed
//! golden scenario. This is the invariant the `shard-determinism` CI job
//! pins: the shard count trades wall-clock for thread count, never
//! output.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::{AlgorithmKind, SyncMsg};
use gradient_clock_sync::dynamic::ChurnSchedule;
use gradient_clock_sync::net::{DelayOutcome, DelayPolicy, Topology};
use gradient_clock_sync::sim::{
    Context, EventKind, EventRecord, Execution, MessageRecord, MessageStatus, Node, NodeId,
    Observer, Probe, SimError, SimulationBuilder, TimerId,
};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The canonical stochastic line scenario of the determinism goldens.
fn stochastic_line(kind: AlgorithmKind, seed: u64) -> Scenario {
    Scenario::line(6)
        .algorithm(kind)
        .drift_walk(0.03, 8.0, 0.01)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(80.0)
}

/// The canonical churn scenario (mirrors `tests/churn.rs`), pinned by the
/// `ring8_flap10_dyngradient_seed7` golden.
fn flapping_ring(seed: u64) -> Scenario {
    Scenario::ring(8)
        .named(format!("ring8_flap10_s{seed}"))
        .algorithm(AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        })
        .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 150.0))
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(160.0)
}

/// A random-geometric scenario with churn — the sharded engine's target
/// workload shape (spatial topology, many shard-crossing edges), pinned
/// by its own golden.
fn churned_geometric() -> Scenario {
    Scenario::random_geometric(24, 10.0, 4.0, 21)
        .named("rgg24_churn_seed21")
        .algorithm(AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        })
        .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 70.0))
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(21)
        .horizon(80.0)
}

/// A small random-geometric scenario under random churn of its neighbour
/// edges: the shape on which shard member sets differ most from id ranges.
fn small_churned_geometric(n: usize, seed: u64) -> Scenario {
    let topology = Topology::random_geometric(n, 10.0, 4.0, seed);
    let churn = ChurnSchedule::random_churn(&topology.neighbor_edges(), 0.2, 40.0, seed);
    Scenario::on(format!("rgg{n}_churn_s{seed}"), topology)
        .algorithm(AlgorithmKind::DynamicGradient {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 20.0,
        })
        .churn(churn)
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(40.0)
}

/// Every shard count must reproduce the single-heap execution of
/// `scenario` bit-for-bit.
fn assert_shard_invariant(scenario: &Scenario) {
    let reference = scenario.run();
    for k in SHARD_COUNTS {
        let sharded = scenario.run_sharded(k);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&sharded),
            "scenario `{}`: shards={k} diverged from the single-heap engine",
            scenario.name()
        );
        assert_bit_identical(&reference, &sharded);
    }
}

#[test]
fn sharded_matches_single_heap_on_stochastic_line() {
    assert_shard_invariant(&stochastic_line(AlgorithmKind::Max { period: 1.0 }, 99));
    assert_shard_invariant(&stochastic_line(
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.5,
        },
        7,
    ));
}

#[test]
fn sharded_matches_single_heap_on_churned_ring() {
    assert_shard_invariant(&flapping_ring(7));
}

#[test]
fn sharded_matches_single_heap_on_churned_geometric() {
    assert_shard_invariant(&churned_geometric());
}

#[test]
fn sharded_matches_committed_goldens() {
    // The goldens were recorded by the single-heap engine; every shard
    // count must reproduce their bytes. Regenerate intentionally with:
    // GCS_BLESS=1 cargo test -q
    for k in SHARD_COUNTS {
        assert_matches_golden(
            &stochastic_line(AlgorithmKind::Max { period: 1.0 }, 99).run_sharded(k),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/line6_max_seed99.snap"
            ),
        );
        assert_matches_golden(
            &flapping_ring(7).run_sharded(k),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/ring8_flap10_dyngradient_seed7.snap"
            ),
        );
        assert_matches_golden(
            &churned_geometric().run_sharded(k),
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/rgg24_churn_seed21.snap"
            ),
        );
    }
}

#[test]
fn shard_counts_beyond_node_count_clamp_and_still_match() {
    let scenario = stochastic_line(AlgorithmKind::Max { period: 1.0 }, 99);
    let reference = scenario.run();
    // 64 shards over 6 nodes: clamped to 6, output unchanged.
    assert_bit_identical(&reference, &scenario.run_sharded(64));
}

#[test]
fn sharded_streaming_observers_match_single_heap_observers() {
    // Observer streams (probes + events) must agree too, not just the
    // final record: global-skew series are compared sample for sample.
    use gradient_clock_sync::sim::GlobalSkewObserver;
    let scenario = flapping_ring(7);

    let mut single = GlobalSkewObserver::new();
    let mut sim = scenario.build();
    sim.set_probe_schedule(0.0, 5.0);
    sim.try_run_until_observed(160.0, &mut [&mut single])
        .unwrap();

    for k in SHARD_COUNTS {
        // Compaction and replay are deferred across super-window
        // boundaries, so the observer stream is checked, not just the
        // record.
        let mut sharded = GlobalSkewObserver::new();
        let mut sim =
            scenario.build_sharded_with(k, |id, n| scenario.algorithm_kind().build(id, n));
        sim.set_probe_schedule(0.0, 5.0);
        sim.try_run_until_observed(160.0, &mut [&mut sharded])
            .unwrap();
        assert_eq!(
            single.worst().to_bits(),
            sharded.worst().to_bits(),
            "shards={k}: observed worst global skew diverged"
        );
        assert_eq!(
            single.worst_at().to_bits(),
            sharded.worst_at().to_bits(),
            "shards={k}: observed worst-skew instant diverged"
        );
    }
}

/// Every delivery's `(from, to, seq)` and hardware reading, by `to_bits`.
#[derive(Default)]
struct Readings(Vec<((NodeId, NodeId, u64), u64)>);

impl Observer for Readings {
    fn on_event(&mut self, _view: &Probe<'_>, event: &EventRecord) {
        if let EventKind::Deliver { from, seq } = event.kind {
            self.0.push(((from, event.node, seq), event.hw.to_bits()));
        }
    }
}

#[test]
fn streamed_deliveries_read_the_recorded_arrival_bits() {
    // A streamed delivery reads the receiver's clock when it dispatches,
    // the log reads it at send: both must give the same bits, under
    // either clock source and on either side of a shard cut.
    let scenario = churned_geometric();
    let kind = scenario.algorithm_kind();
    let horizon = scenario.horizon_time();
    for lazy in [false, true] {
        for k in [1, 2] {
            let build = |record: bool| {
                let builder = SimulationBuilder::new_dynamic(scenario.dynamic_topology().unwrap())
                    .delay_policy(scenario.delay_policy())
                    .record_events(record)
                    .shards(k);
                let builder = if lazy {
                    builder.drift_source(scenario.lazy_walk_source().unwrap())
                } else {
                    builder.schedules(scenario.schedules())
                };
                builder.build_with(|id, n| kind.build(id, n)).unwrap()
            };
            let recorded: HashMap<_, _> = build(true)
                .try_execute_until(horizon)
                .unwrap()
                .messages()
                .iter()
                .filter(|m| m.status == MessageStatus::Delivered)
                .map(|m| ((m.from, m.to, m.seq), m.arrival_hw.unwrap().to_bits()))
                .collect();
            let mut streamed = Readings::default();
            build(false)
                .try_run_until_observed(horizon, &mut [&mut streamed])
                .unwrap();
            assert!(streamed.0.len() > 100, "lazy={lazy} k={k}: few deliveries");
            assert_eq!(streamed.0.len(), recorded.len(), "lazy={lazy} k={k}");
            for (key, bits) in streamed.0 {
                assert_eq!(
                    recorded.get(&key),
                    Some(&bits),
                    "lazy={lazy} k={k}: delivery {key:?}"
                );
            }
        }
    }
}

#[test]
fn recorded_message_layout_is_unchanged() {
    // Cross-shard deliveries travel as handoffs parked beside the
    // receiver's queue; the recorded message keeps its layout.
    assert_eq!(std::mem::size_of::<MessageRecord<SyncMsg>>(), 104);
}

/// Runs `case` on a thread of its own under a watchdog, so a hang fails
/// the test instead of stalling it; a panic in `case` is re-raised.
fn watched<T: Send + 'static>(case: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(case)));
    });
    match rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run hung past the watchdog")
    {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Arms one timer at a reading spread over the horizon by node id,
/// broadcasts when it fires, and relays the first message it receives.
#[derive(Debug)]
struct RelayOnce {
    fire_at: f64,
    relayed: bool,
}

impl Node<f64> for RelayOnce {
    fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
        ctx.set_timer(self.fire_at);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _timer: TimerId) {
        ctx.send_to_neighbors(&ctx.hw_now());
    }
    fn on_message(&mut self, ctx: &mut Context<'_, f64>, _from: NodeId, msg: &f64) {
        if !std::mem::replace(&mut self.relayed, true) {
            ctx.send_to_neighbors(msg);
        }
    }
}

/// Delays of exactly one or two lookaheads, by sequence parity.
#[derive(Debug, Clone)]
struct Lookaheads(f64);

impl DelayPolicy for Lookaheads {
    fn decide(&mut self, _from: usize, _to: usize, seq: u64, _t: f64) -> DelayOutcome {
        DelayOutcome::Delay(self.0 * (1 + seq % 2) as f64)
    }
    fn min_delay_bound(&self) -> f64 {
        self.0
    }
    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// A ring of eight `RelayOnce` nodes with perfect clocks whose spacing
/// admits delays of two `lookahead`s, run to `horizon` on `shards`
/// shards (one shard is the single heap).
fn relay_ring(lookahead: f64, horizon: f64, shards: usize) -> Result<Execution<f64>, SimError> {
    let n: usize = 8;
    let spacing = (2.0 * lookahead).max(1.0);
    let dist = (0..n * n)
        .map(|ij| {
            let hops = (ij / n).abs_diff(ij % n);
            hops.min(n - hops) as f64 * spacing
        })
        .collect();
    let topology = Topology::from_matrix(dist, spacing).expect("a valid ring");
    let builder = SimulationBuilder::new(topology).delay_policy(Lookaheads(lookahead));
    let make = |id: NodeId, n: usize| RelayOnce {
        fire_at: horizon * (id + 1) as f64 / (n + 1) as f64,
        relayed: false,
    };
    let sim = builder.shards(shards).build_with(make)?;
    assert_eq!(sim.counters().shards.len(), shards);
    sim.try_execute_until(horizon)
}

/// `2^e` for `-1074 <= e <= 1023`, exact down through the subnormals
/// (where `powi` underflows to zero).
fn pow2(e: i32) -> f64 {
    let bits = if e >= -1022 {
        u64::try_from(e + 1023).unwrap() << 52
    } else {
        1 << (e + 1074)
    };
    f64::from_bits(bits)
}

/// A 6-node line whose distances, delays, broadcast period and horizon
/// are all `10^k` times the unit-scale scenario's. Distances cannot go
/// below 1, so below unit scale the delay fractions shrink instead: the
/// lookahead is `0.1 · 10^k` either way and every scale dispatches a
/// comparable number of events.
fn scaled_line(k: i32, seed: u64) -> Scenario {
    let scale = 10f64.powi(k);
    let (spacing, frac) = if k >= 0 { (scale, 1.0) } else { (1.0, scale) };
    let n: usize = 6;
    let dist = (0..n * n)
        .map(|ij| (ij / n).abs_diff(ij % n) as f64 * spacing)
        .collect();
    let topology = Topology::from_matrix(dist, spacing).expect("a valid line");
    Scenario::on(format!("line6_scale1e{k}_s{seed}"), topology)
        .algorithm(AlgorithmKind::Gradient {
            period: scale,
            kappa: 0.5,
        })
        .spread_rates(0.02)
        .uniform_delay(0.1 * frac, 0.9 * frac)
        .seed(seed)
        .horizon(30.0 * scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Shard member sets are breadth-first chunks of the base graph, which
    // on a geometric graph cut across id ranges; the execution must not
    // depend on them at any shard count.
    #[test]
    fn churned_geometric_runs_match_the_single_heap(n in 8usize..40, seed in 0u64..1_000_000) {
        let scenario = small_churned_geometric(n, seed);
        let reference = scenario.run();
        for k in [2, 3, 8] {
            assert_bit_identical(&reference, &scenario.run_sharded(k));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The conservative window leans on monotone rounding of `t + L`
    // (see the shard module docs): at every scale from 10^-12 to 10^12 the
    // handoff assertion `arrival >= window end` holds, or the sharded run
    // panics, and the sharded record equals the single heap's.
    #[test]
    fn windows_stay_safe_across_twelve_orders_of_magnitude(seed in 1u64..10_000) {
        for k in -12..=12 {
            let scenario = scaled_line(k, seed);
            let reference = scenario.run();
            prop_assert!(reference.events().len() > 200, "scale 1e{}: too few events", k);
            for shards in [2, 3] {
                let kind = scenario.algorithm_kind();
                let sim = scenario.build_sharded_with(shards, |id, n| kind.build(id, n));
                prop_assert_eq!(sim.counters().shards.len(), shards);
                let sharded = sim.try_execute_until(scenario.horizon_time()).unwrap();
                prop_assert_eq!(
                    fingerprint(&reference),
                    fingerprint(&sharded),
                    "scale 1e{} shards {}: diverged from the single heap",
                    k,
                    shards
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Lookaheads from the smallest subnormal up, against horizons up to
    // 2^1000, drawn to straddle half an ulp of the horizon: a window from
    // any `t <= horizon` advances exactly when the lookahead exceeds it.
    // Under a watchdog, each sharded run matches the single heap bit for
    // bit, or is refused with `ShardUnsupported` exactly at or below that
    // line.
    #[test]
    fn a_window_advances_or_the_run_is_refused(
        horizon_exp in -1074i32..=1000,
        mantissa in 1.0f64..2.0,
        offset in -6i32..=6,
        shards in 2usize..=4,
    ) {
        let horizon = (mantissa * pow2(horizon_exp)).max(pow2(-1074));
        let lookahead = pow2((horizon_exp - 53 + offset).max(-1074));
        let refused = lookahead <= (horizon.next_up() - horizon) / 2.0;
        match watched(move || relay_ring(lookahead, horizon, shards)) {
            Err(SimError::ShardUnsupported { .. }) => prop_assert!(
                refused,
                "lookahead {:e} refused at horizon {:e}",
                lookahead,
                horizon
            ),
            Ok(sharded) => {
                prop_assert!(!refused, "lookahead {:e} ran at horizon {:e}", lookahead, horizon);
                let reference = watched(move || relay_ring(lookahead, horizon, 1)).unwrap();
                prop_assert!(!reference.messages().is_empty(), "horizon {:e}: no sends", horizon);
                assert_bit_identical(&reference, &sharded);
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
