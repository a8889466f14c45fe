//! What one partition and several partitions accept, and how each
//! accounts for a run. One partition (`shards(1)`, or the zero-lookahead
//! fallback) forks nothing, takes a tracer and dispatches inline; several
//! partitions need forkable clocks and delay policies and refuse a tracer.

use std::sync::mpsc;
use std::time::Duration;

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::{AlgorithmKind, SyncMsg};
use gradient_clock_sync::clocks::{ClockSource, EagerSchedule, RateSchedule};
use gradient_clock_sync::core::replay::{nominal_fallback, HwReplayDelay};
use gradient_clock_sync::dynamic::ChurnSchedule;
use gradient_clock_sync::net::{
    AdversarialDelay, DelayOutcome, DelayPolicy, Topology, UniformDelay,
};
use gradient_clock_sync::sim::{
    Execution, MessageStatus, SimError, Simulation, SimulationBuilder, TraceEvent,
};
use gradient_clock_sync::telemetry::TraceRecorder;
use proptest::prelude::*;

/// An eager clock source that cannot fork.
struct NoForkClock(EagerSchedule);

impl ClockSource for NoForkClock {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn rate_at(&self, node: usize, t: f64) -> f64 {
        self.0.rate_at(node, t)
    }
    fn value_at(&self, node: usize, t: f64) -> f64 {
        self.0.value_at(node, t)
    }
    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        self.0.time_at_value(node, value)
    }
    fn live_segments(&self) -> usize {
        self.0.live_segments()
    }
    fn materialize_prefix(&self, horizon: f64) -> Vec<RateSchedule> {
        self.0.materialize_prefix(horizon)
    }
}

/// Uniform delays with their positive lookahead, from a policy that
/// cannot fork.
#[derive(Debug)]
struct NoForkDelay(UniformDelay);

impl DelayPolicy for NoForkDelay {
    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome {
        self.0.decide(from, to, seq, send_time)
    }
    fn bind_topology(&mut self, topology: &Topology) {
        self.0.bind_topology(topology);
    }
    fn min_delay_bound(&self) -> f64 {
        self.0.min_delay_bound()
    }
}

const N: usize = 6;
const HORIZON: f64 = 30.0;

fn rates() -> Vec<RateSchedule> {
    (0..N)
        .map(|i| RateSchedule::constant(0.98 + 0.01 * i as f64))
        .collect()
}

fn max_node(id: usize, n: usize) -> Box<dyn gradient_clock_sync::sim::Node<SyncMsg> + Send> {
    AlgorithmKind::Max { period: 1.0 }.build(id, n)
}

/// A line of six max-sync nodes at spread rates; the delay policy is the
/// caller's.
fn line() -> SimulationBuilder {
    SimulationBuilder::new(Topology::line(N)).schedules(rates())
}

/// Delays from a fixed rule over `(from, to, seq)`: an adversary with no
/// lookahead and no fork.
fn adversary() -> AdversarialDelay {
    AdversarialDelay::new(|from, to, seq, _| {
        DelayOutcome::Delay(0.2 + 0.3 * ((from + 2 * to + seq as usize) % 3) as f64)
    })
}

fn reason(result: Result<Simulation<SyncMsg>, SimError>) -> String {
    match result {
        Err(SimError::ShardUnsupported { reason }) => reason,
        other => panic!("expected ShardUnsupported, got {other:?}"),
    }
}

#[test]
fn several_partitions_need_a_forkable_clock_and_delay_policy() {
    let uniform = || UniformDelay::new(0.25, 0.75, 3);
    let mut bound = uniform();
    bound.bind_topology(&Topology::line(N));
    assert!(bound.min_delay_bound() > 0.0, "no lookahead");
    let clock = reason(
        line()
            .drift_source(NoForkClock(EagerSchedule::new(rates())))
            .delay_policy(uniform())
            .shards(2)
            .build_with(max_node),
    );
    assert!(clock.contains("clock source"), "{clock}");
    let delay = reason(
        line()
            .delay_policy(NoForkDelay(uniform()))
            .shards(2)
            .build_with(max_node),
    );
    assert!(delay.contains("delay policy"), "{delay}");

    // One partition forks neither, so both build and run alike.
    let run = |builder: SimulationBuilder| {
        let exec = builder.shards(1).build_with(max_node).unwrap();
        exec.try_execute_until(HORIZON).unwrap()
    };
    let reference = run(line().delay_policy(uniform()));
    let no_fork_clock = run(line()
        .drift_source(NoForkClock(EagerSchedule::new(rates())))
        .delay_policy(uniform()));
    assert_bit_identical(&reference, &no_fork_clock);
    assert_bit_identical(
        &reference,
        &run(line().delay_policy(NoForkDelay(uniform()))),
    );
}

/// Digests of the two runs below on the single-heap engine that one
/// partition replaced; a change is a determinism regression.
const ADVERSARY_DIGEST: u64 = 0xc251_d82b_4aab_e35b;
const REPLAY_DIGEST: u64 = 0x55e6_fe53_b977_ff47;

#[test]
fn one_partition_never_forks() {
    let adversarial = |k: usize| {
        line()
            .delay_policy(adversary())
            .shards(k)
            .build_with(max_node)
            .unwrap()
            .try_execute_until(HORIZON)
            .unwrap()
    };
    let exec = adversarial(1);
    assert_eq!(digest(&exec), ADVERSARY_DIGEST);
    // No lookahead: two shards fall back to one partition.
    assert_bit_identical(&exec, &adversarial(2));

    let replay = |k: usize| -> Execution<SyncMsg> {
        let policy = HwReplayDelay::from_execution(&exec, nominal_fallback(exec.topology()));
        SimulationBuilder::new(exec.topology().clone())
            .schedules(exec.schedules().to_vec())
            .delay_policy(policy)
            .shards(k)
            .build_with(max_node)
            .unwrap()
            .try_execute_until(HORIZON + 5.0)
            .unwrap()
    };
    let replayed = replay(1);
    assert_eq!(digest(&replayed), REPLAY_DIGEST);
    assert_bit_identical(&replayed, &replay(2));
}

#[test]
fn the_replay_table_pins_every_recorded_arrival() {
    let exec = line()
        .delay_policy(adversary())
        .build_with(max_node)
        .unwrap()
        .try_execute_until(HORIZON)
        .unwrap();
    let recorded: Vec<_> = exec
        .messages()
        .iter()
        .filter(|m| m.status != MessageStatus::Dropped)
        .filter_map(|m| Some((m, m.arrival_hw?)))
        .collect();
    assert!(recorded.len() > 100, "only {} messages", recorded.len());
    let mut policy = HwReplayDelay::from_execution(&exec, nominal_fallback(exec.topology()));
    assert_eq!(policy.len(), recorded.len());
    for (m, hw) in recorded {
        assert_eq!(
            policy.decide(m.from, m.to, m.seq, m.send_time),
            DelayOutcome::ArriveAtHw(hw)
        );
    }
}

/// Runs `case` on a thread of its own under a watchdog, so a hang fails
/// the test instead of stalling it.
fn watched<T: Send + 'static>(case: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(case());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run hung or panicked")
}

#[test]
fn a_tracer_needs_one_partition() {
    let (err, dispatched, traced) = watched(|| {
        let recorder = TraceRecorder::recorded();
        let mut sim = line()
            .delay_policy(UniformDelay::new(0.25, 0.75, 3))
            .shards(2)
            .build_with(max_node)
            .unwrap();
        assert_eq!(sim.counters().shards.len(), 2);
        sim.set_tracer(Box::new(recorder.clone()));
        let err = sim.try_run_until_observed(HORIZON, &mut []).unwrap_err();
        (err, sim.stats().dispatched, recorder.total_recorded())
    });
    assert!(
        matches!(&err, SimError::ShardUnsupported { reason } if reason.contains("tracer")),
        "{err:?}"
    );
    assert_eq!((dispatched, traced), (0, 0));
}

#[test]
fn zero_lookahead_traces_like_one_shard() {
    let trace = |k: usize| -> Vec<TraceEvent> {
        let recorder = TraceRecorder::recorded();
        let mut sim = line()
            .delay_policy(adversary())
            .shards(k)
            .build_with(max_node)
            .unwrap();
        assert_eq!(sim.counters().shards.len(), 1);
        sim.set_tracer(Box::new(recorder.clone()));
        sim.set_probe_schedule(0.0, 2.5);
        sim.try_run_until_observed(HORIZON, &mut []).unwrap();
        recorder.events()
    };
    let one = trace(1);
    assert!(one.len() > 100, "only {} trace events", one.len());
    assert_eq!(one, trace(2));
}

/// A lossy ring whose links flap, so that both loss and link-down drops
/// happen.
fn lossy_churn() -> Scenario {
    Scenario::ring(12)
        .named("ring12_lossy_flap")
        .algorithm(AlgorithmKind::Max { period: 1.0 })
        .churn(ChurnSchedule::periodic_flap(0, 1, 4.0, 40.0))
        .spread_rates(0.02)
        .uniform_delay(0.3, 0.9)
        .message_loss(0.2)
        .seed(11)
        .horizon(40.0)
}

#[test]
fn one_partition_accounts_one_window_per_run_call() {
    let scenario = lossy_churn();
    let kind = scenario.algorithm_kind();
    let run = |k: usize| {
        let mut sim = scenario.build_sharded_with(k, |id, n| kind.build(id, n));
        assert_eq!(sim.counters().shards.len(), k);
        for until in [10.0, 25.0, 40.0] {
            sim.try_run_until_observed(until, &mut []).unwrap();
        }
        sim
    };
    let one = run(1);
    let counters = one.counters();
    assert_eq!(counters.finish_ns, 0);
    assert_eq!(counters.shards[0].windows, 3);
    let stats = one.stats();
    assert!(
        stats.dropped_loss > 0 && stats.dropped_link_down > 0,
        "{stats:?}"
    );

    let two = run(2).stats();
    let account = |s: gradient_clock_sync::sim::SimStats| {
        (
            s.dispatched,
            s.dropped_loss,
            s.dropped_link_down,
            s.recorded_events,
            s.message_slots,
        )
    };
    assert_eq!(account(two), account(stats));
}

/// The run calls of [`run_calls_slice_nothing`]: ascending seed-chosen
/// cuts, one of them repeated and followed by a horizon below it, then the
/// scenario's horizon.
fn run_calls(mut cuts: Vec<f64>, at: usize) -> Vec<f64> {
    cuts.sort_by(f64::total_cmp);
    let at = at % cuts.len();
    let (repeat, below) = (cuts[at], cuts[at] * 0.5);
    cuts.splice(at + 1..at + 1, [repeat, below]);
    cuts.push(40.0);
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // How a run is cut into run calls changes nothing it records or
    // counts: the execution, the dispatched and still-queued events and
    // the queue's high-water mark equal those of one call.
    fn run_calls_slice_nothing(
        cuts in proptest::collection::vec(0.0f64..40.0, 1..6),
        at in 0usize..8,
    ) {
        let scenario = lossy_churn();
        let kind = scenario.algorithm_kind();
        let calls = run_calls(cuts, at);
        for k in [1, 2] {
            let run = |horizons: &[f64]| {
                let mut sim = scenario.build_sharded_with(k, |id, n| kind.build(id, n));
                for &until in horizons {
                    sim.try_run_until_observed(until, &mut []).unwrap();
                }
                let s = sim.stats();
                let account = (s.dispatched, s.queued_events, s.peak_queued_events);
                (digest(&sim.into_execution()), account)
            };
            prop_assert_eq!(run(&calls), run(&[40.0]), "k = {}, calls {:?}", k, calls);
        }
    }
}
