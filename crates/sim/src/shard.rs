//! How a [`Simulation`] with more than one partition runs:
//! conservative-window dispatch over `k` partitions of the topology.
//!
//! # The window protocol
//!
//! The topology is split into `k` member sets, each one dispatch core
//! ([`crate::partition`]) with its own `BinaryHeap` of pending events, a
//! forked clock source and a forked delay policy. The sets are
//! breadth-first chunks of the static base graph ([`crate::placement`]):
//! on a spatial graph each is a region, so few sends cross shards, and
//! node ids are spread evenly over the shards. Let `L` be the delay
//! policy's [`gcs_net::DelayPolicy::min_delay_bound`] — the *lookahead*:
//! every message takes at least `L` real time. A round
//! starts at the globally earliest pending event time `t_min` and
//! dispatches, one thread per shard, every event strictly before
//! `W = t_min + L`. This is safe — no cross-shard message sent inside the
//! window can arrive inside it — because a send at `s ≥ t_min` arrives at
//! `s + delay ≥ t_min + L`, and rounding-to-nearest is monotone, so the
//! floating-point arrival is `≥ W` exactly as computed (every handoff
//! asserts this).
//!
//! Rounds run in **super-windows**: one thread scope runs consecutive
//! rounds, each three barriers: (1) run the window and deposit
//! cross-shard sends in the destination shard's mailbox; (2) drain the
//! own mailbox — sorted by `(arrival time, from, to, seq)`, so the order
//! does not depend on which shard deposited first — parking each send
//! time and payload in the receiver's in-flight slab and queueing its
//! delivery; (3) one leader takes the next global `t_min` and publishes
//! the next window, or ends the super-window. A streamed delivery's
//! hardware reading is taken by the receiver's clock fork when it
//! dispatches; the fork contract makes it the reading the sender's clock
//! would give, bit for bit. A super-window spans at most `window_mult`
//! lookaheads.
//! The multiplier adapts to event density: it doubles (up to `MAX_MULT`)
//! while rounds average fewer than `DENSITY` events — the sparse regime,
//! where barriers and merges dominate — and halves when a super-window
//! reaches `BATCH_CAP` events, which also bounds the records buffered
//! between merges. Where a super-window ends never changes what a round
//! contains.
//!
//! # Deterministic merge
//!
//! Simultaneous events are ordered by the same canonical
//! [`crate::EventKind::tie_key`] one partition uses; the key is unique
//! among distinct simultaneous events, so the handoff insertion order
//! cannot influence dispatch order — which is what makes executions
//! bit-identical for every shard count. After each super-window the
//! coordinator applies the status write-backs for
//! messages logged by another shard, merges the shards' event records by
//! `(time, tie_key)`, and replays them through the observers with probes
//! interleaved; `on_event` views are evaluated there, under the rule
//! stated on [`crate::Observer::on_event`]. When recording, per-shard
//! message logs are merged at finalization by `(send_time, sender event
//! tie_key, intra-event index)` — the exact append order of one
//! partition.
//!
//! # Failures
//!
//! Worker panics (node panics, delay-model violations) and typed errors
//! are caught per phase, so every worker still reaches the barrier; the
//! leader ends the super-window and the coordinator re-raises the first
//! failure in shard order. The event cap is a budget: a shard stops at
//! the event that would pass it, and the coordinator panics with one
//! partition's message at the first event past the cap in the merged
//! order.
//!
//! # What more than one partition does not support
//!
//! Each partition needs its own clock source and delay policy, so both
//! must support [`gcs_clocks::ClockSource::fork`] /
//! [`gcs_net::DelayPolicy::fork`]; the build is
//! [`SimError::ShardUnsupported`] otherwise. One partition forks nothing
//! and takes every source and policy.
//!
//! A tracer observes the live global interleaving, which windowed
//! dispatch does not produce: with a tracer attached, the next run call
//! is [`SimError::ShardUnsupported`] and dispatches nothing.
//!
//! A policy with zero lookahead cannot overlap shards; the build falls
//! back to one partition. A lookahead at or below half an ulp of the
//! horizon cannot advance a window either; that run call is a
//! [`SimError::ShardUnsupported`].
//!
//! # Where the wall time went
//!
//! Every run counts, per shard, the windows it entered, the events it
//! dispatched, the cross-shard sends it handed off and the nanoseconds it
//! spent dispatching and draining its mailbox, and on the coordinator the
//! time spent merging between super-windows and firing probes
//! ([`Simulation::counters`]). The cost is two clock reads per shard per
//! phase per window; handoffs are counted per window, as the outbox
//! drains. Busy time summed over shards against the run's wall time says
//! whether the shards overlapped or took turns; E15 prints the table. One
//! partition gives its account in the same type: one row with one window
//! per run call.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as MemOrder};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gcs_clocks::PiecewiseLinear;

use crate::engine::{coordinator_clock, SimError, Simulation};
use crate::event::EventRecord;
use crate::observer::Observer;
use crate::partition::{canonical_order, cap_exceeded, settle, Env, Halt, Handoff, Part};

/// Adds the wall-clock nanoseconds since `started` to `acc`; `None`
/// (nothing was timed) adds nothing.
pub(crate) fn add_elapsed(acc: &mut u64, started: Option<Instant>) {
    if let Some(t0) = started {
        *acc += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

/// Wall-clock accounting of one shard: what it did and how long it was
/// busy doing it. Always on: the cost is two clock reads per shard per
/// window and per mailbox drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Conservative windows this shard entered (one per round; with one
    /// partition, one per run call).
    pub windows: u64,
    /// Events this shard dispatched.
    pub events: u64,
    /// Nanoseconds inside the window's dispatch loop.
    pub run_ns: u64,
    /// Nanoseconds sorting and enqueuing cross-shard deliveries (zero
    /// with one partition).
    pub drain_ns: u64,
    /// Cross-shard sends this shard deposited in other shards' mailboxes
    /// (zero with one partition).
    pub handoffs: u64,
}

/// Where a run's wall time went, from [`Simulation::counters`]: per-shard
/// busy time beside the coordinator's serial phases. Shards whose
/// `run_ns` sum to the run's wall time took turns; shards that each come
/// close to it overlapped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedCounters {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardCounters>,
    /// Coordinator nanoseconds between super-windows: status write-backs,
    /// event merge and observer replay (probes excluded; zero with one
    /// partition, whose observers run inline in `run_ns`).
    pub finish_ns: u64,
    /// Coordinator nanoseconds firing probes: trajectory compaction and
    /// the observers' `on_probe`.
    pub probe_ns: u64,
}

/// Ceiling on the super-window multiplier: a super-window spans at most
/// this many lookaheads.
const MAX_MULT: u64 = 64;
/// Events-per-round density below which the multiplier doubles: windows
/// this sparse are dominated by barrier and merge overhead.
const DENSITY: u64 = 256;
/// Event budget per super-window: reaching it ends the super-window and
/// halves the multiplier. Also bounds the event records buffered between
/// coordinator merges in streaming mode.
const BATCH_CAP: u64 = 65_536;

/// What stopped a worker: a typed error, or a caught panic to re-raise.
enum Failure {
    Error(SimError),
    Panic(Box<dyn Any + Send>),
}

/// Runs one phase of a worker unless it already failed, catching a panic
/// so that the worker still reaches the barrier.
fn guard(failure: &mut Option<Failure>, phase: impl FnOnce() -> Result<(), SimError>) {
    if failure.is_none() {
        *failure = match catch_unwind(AssertUnwindSafe(phase)) {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(Failure::Error(e)),
            Err(payload) => Some(Failure::Panic(payload)),
        };
    }
}

/// Locks a mailbox, ignoring poisoning: worker panics are caught and
/// re-raised by the round protocol, so a poisoned lock only means "some
/// shard already failed", never torn data we would misread.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<M: Clone> Part<M> {
    /// Dispatches every event strictly before `end` and at or before
    /// `horizon`, buffering records and cross-shard sends for the
    /// barrier. Stops at the event that would take the shard past `cap`
    /// dispatched events, leaving it in `overrun`.
    fn run_window(
        &mut self,
        env: &Env<'_>,
        trajectories: &mut [PiecewiseLinear],
        end: f64,
        horizon: f64,
        cap: u64,
    ) -> Result<(), SimError> {
        let started = Instant::now();
        if !env.record_events {
            // No query in this or any later window reaches behind the
            // window start; a windowing clock fork can drop the past.
            if let Some(t) = self.next_time() {
                self.clock.compact_before(t);
            }
        }
        let result = loop {
            if !self.next_time().is_some_and(|t| t < end && t <= horizon) {
                break Ok(());
            }
            let ev = self.queue.pop().expect("peeked above");
            match self.dispatch(ev, env, trajectories, cap, None) {
                Ok(Some(record)) => self.window_events.push(record),
                Ok(None) => {}
                Err(Halt::Cap(record)) => {
                    self.overrun = Some(record);
                    break Ok(());
                }
                Err(Halt::Error(e)) => break Err(e),
            }
        };
        self.counters.windows += 1;
        self.counters.events = self.dispatched;
        add_elapsed(&mut self.counters.run_ns, Some(started));
        result
    }

    /// Queues the deliveries deposited in this shard's mailbox.
    fn drain(&mut self, inbox: &mut Vec<Handoff<M>>) {
        let started = Instant::now();
        inbox.sort_by(|a, b| {
            a.arrival_time
                .total_cmp(&b.arrival_time)
                .then_with(|| (a.from, a.to, a.seq).cmp(&(b.from, b.to, b.seq)))
        });
        for h in inbox.drain(..) {
            self.accept(h);
        }
        add_elapsed(&mut self.counters.drain_ns, Some(started));
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> Simulation<M> {
    /// What a run call to `horizon` with several partitions refuses before
    /// dispatching anything: an attached tracer, and a lookahead lost to
    /// rounding.
    pub(crate) fn check_windows(&self, horizon: f64) -> Result<(), SimError> {
        // A window from `t` ends at `t + L` rounded, and dispatches nothing
        // unless that lies past `t`. It does for every `t <= horizon` iff
        // `L` exceeds half an ulp of the horizon (exactly half rounds a tie
        // to even, so down half the time).
        let reason = if self.frame.tracer.is_some() {
            "a tracer needs the live interleaving of one partition".to_string()
        } else if self.lookahead <= (horizon.next_up() - horizon) / 2.0 {
            format!(
                "the lookahead {} is at most half an ulp of the horizon {horizon}",
                self.lookahead
            )
        } else {
            return Ok(());
        };
        Err(SimError::ShardUnsupported { reason })
    }

    /// Dispatches every event at or before `horizon`, one super-window at
    /// a time, with the probes due before each super-window and between
    /// its merged events.
    pub(crate) fn run_windows(
        &mut self,
        horizon: f64,
        observers: &mut [&mut dyn Observer],
    ) -> Result<(), SimError> {
        while let Some(t_min) = self
            .parts
            .iter()
            .filter_map(|s| s.next_time())
            .min_by(f64::total_cmp)
        {
            if t_min > horizon {
                break;
            }
            let clock = coordinator_clock(&self.clock, &self.parts);
            self.frame.emit_probes(t_min, false, clock, observers);
            // The events all shards together may dispatch before the cap.
            let budget = self.frame.event_cap.saturating_sub(self.dispatched());
            let rounds = self.run_super_window(t_min, horizon, budget)?;
            self.finish_super_window(rounds, budget, observers);
        }
        Ok(())
    }

    /// Runs one super-window from `t_min` and returns the number of
    /// rounds completed — see the module docs for the three-barrier
    /// round. On `Err` or a re-raised panic the simulation is poisoned.
    #[allow(clippy::too_many_lines)]
    fn run_super_window(&mut self, t_min: f64, horizon: f64, budget: u64) -> Result<u64, SimError> {
        let lookahead = self.lookahead;
        // The first window, computed with the same float addition the
        // arrival times use, so the handoff assertion is exact.
        let first_end = t_min + lookahead;
        let super_end = lookahead.mul_add(self.window_mult as f64, t_min);
        let (env, mut trajectories, _) = self.frame.split();
        let k = self.parts.len();
        let mailboxes: &[Mutex<Vec<Handoff<M>>>] =
            &(0..k).map(|_| Mutex::default()).collect::<Vec<_>>();
        // Per shard, after each round: its next event time and the events
        // it dispatched this super-window.
        let next_times: &[AtomicU64] = &(0..k).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let counts: &[AtomicU64] = &(0..k).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let barrier = &Barrier::new(k);
        let window_end = &AtomicU64::new(first_end.to_bits());
        let failed = &AtomicBool::new(false);
        let stop = &AtomicBool::new(false);
        let rounds = &AtomicU64::new(0);
        let env = &env;

        let failures: Vec<Option<Failure>> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .parts
                .iter_mut()
                .enumerate()
                .map(|(i, shard)| {
                    let (own, rest) =
                        std::mem::take(&mut trajectories).split_at_mut(shard.span.len());
                    trajectories = rest;
                    let start = shard.dispatched;
                    scope.spawn(move || {
                        let mut failure = None;
                        loop {
                            let end = f64::from_bits(window_end.load(MemOrder::SeqCst));
                            // Phase 1: run the window, deposit cross-shard
                            // sends into destination mailboxes.
                            guard(&mut failure, || {
                                shard.run_window(env, own, end, horizon, start + budget)?;
                                shard.counters.handoffs += shard.outbox.len() as u64;
                                for h in shard.outbox.drain(..) {
                                    assert!(
                                        h.arrival_time >= end,
                                        "conservative-window violation: cross-shard \
                                         arrival at {} before the window boundary \
                                         {end} ({} -> {}); the delay policy's \
                                         min_delay_bound() is wrong",
                                        h.arrival_time,
                                        h.from,
                                        h.to
                                    );
                                    lock(&mailboxes[env.placement.owner(h.to)]).push(h);
                                }
                                Ok(())
                            });
                            barrier.wait();

                            // Phase 2: drain the own mailbox.
                            guard(&mut failure, || {
                                shard.drain(&mut lock(&mailboxes[i]));
                                Ok(())
                            });
                            let next = shard.next_time().unwrap_or(f64::INFINITY);
                            next_times[i].store(next.to_bits(), MemOrder::SeqCst);
                            counts[i].store(shard.dispatched - start, MemOrder::SeqCst);
                            if failure.is_some() || shard.overrun.is_some() {
                                failed.store(true, MemOrder::SeqCst);
                            }

                            // Phase 3: one leader decides continue-vs-stop
                            // and publishes the next window while everyone
                            // else holds at the closing barrier.
                            if barrier.wait().is_leader() {
                                rounds.fetch_add(1, MemOrder::SeqCst);
                                let events: u64 =
                                    counts.iter().map(|c| c.load(MemOrder::SeqCst)).sum();
                                let next = next_times
                                    .iter()
                                    .map(|t| f64::from_bits(t.load(MemOrder::SeqCst)))
                                    .fold(f64::INFINITY, f64::min);
                                if !failed.load(MemOrder::SeqCst)
                                    && events < BATCH_CAP
                                    && events <= budget
                                    && next <= horizon
                                    && next < super_end
                                {
                                    window_end
                                        .store((next + lookahead).to_bits(), MemOrder::SeqCst);
                                } else {
                                    stop.store(true, MemOrder::SeqCst);
                                }
                            }
                            barrier.wait();
                            if stop.load(MemOrder::SeqCst) {
                                return failure;
                            }
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panics are caught per phase"))
                .collect()
        });

        match failures.into_iter().flatten().next() {
            Some(Failure::Panic(payload)) => resume_unwind(payload),
            Some(Failure::Error(e)) => return Err(e),
            None => {}
        }
        Ok(rounds.load(MemOrder::SeqCst))
    }

    /// The super-window barrier work: foreign status write-backs, event
    /// merge, observer replay, and the multiplier update.
    fn finish_super_window(
        &mut self,
        rounds: u64,
        budget: u64,
        observers: &mut [&mut dyn Observer],
    ) {
        let started = Instant::now();
        let probe_ns_before = self.frame.probe_ns;
        // 1. Status write-backs for messages logged by another shard.
        // Deferring them to the super-window boundary is safe: nothing
        // reads a message's status before finalization, and such messages
        // are logged only when recording, where slots are never recycled.
        let updates: Vec<_> = self
            .parts
            .iter_mut()
            .flat_map(|s| s.status_updates.drain(..))
            .collect();
        for (owner, slot, delivered) in updates {
            settle(&mut self.parts[owner].messages[slot], delivered);
        }

        // 2. Merge the super-window's event records by the canonical order
        // and replay them through the observers with probes interleaved.
        // Rounds cover disjoint ascending time ranges, so one global sort
        // equals the per-window sorts concatenated.
        let mut merged: Vec<EventRecord> = self
            .parts
            .iter_mut()
            .flat_map(|s| s.window_events.drain(..))
            .collect();
        let overruns: Vec<EventRecord> = self
            .parts
            .iter_mut()
            .filter_map(|s| s.overrun.take())
            .collect();
        let over = !overruns.is_empty() || merged.len() as u64 > budget;
        merged.extend(overruns);
        merged.sort_by(canonical_order);
        if over {
            // Every shard dispatched in order up to where it stopped, so
            // the merged prefix is one partition's: its event number
            // `budget` is the first one past the cap.
            let first_past = usize::try_from(budget).expect("fewer events than memory");
            cap_exceeded(self.frame.event_cap, merged[first_past].time);
        }
        let window_total = merged.len() as u64;
        let clock = coordinator_clock(&self.clock, &self.parts);
        for record in merged {
            self.frame.emit_probes(record.time, false, clock, observers);
            self.frame.ran_to = self.frame.ran_to.max(record.time);
            self.frame.observe(&record, clock, observers);
        }

        // 3. Adapt the super-window multiplier to the observed density.
        if window_total >= BATCH_CAP {
            self.window_mult = (self.window_mult / 2).max(1);
        } else if window_total < DENSITY.saturating_mul(rounds) {
            self.window_mult = (self.window_mult * 2).min(MAX_MULT);
        }
        // Probes fired between merged records are `probe_ns`, not this.
        add_elapsed(&mut self.finish_ns, Some(started));
        self.finish_ns = self
            .finish_ns
            .saturating_sub(self.frame.probe_ns - probe_ns_before);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    use gcs_net::{DelayOutcome, DelayPolicy, FixedFractionDelay, Topology, UniformDelay};

    use crate::placement::Placement;
    use crate::{
        observe_execution, Context, EventRecord, Node, NodeId, Observer, Probe, SimError,
        SimulationBuilder, TimerId,
    };

    /// Starts its logical clock at `10 · id`, broadcasts it every hardware
    /// unit and, on every delivery, writes the larger of its own and the
    /// received value back at the delivery's reading. Optionally panics on
    /// a delivery at or after a chosen reading.
    #[derive(Debug)]
    struct Adopt {
        id: NodeId,
        panic_at: Option<f64>,
    }

    impl Node<f64> for Adopt {
        fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
            ctx.set_logical(10.0 * self.id as f64);
            ctx.set_timer(1.0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _timer: TimerId) {
            let v = ctx.logical_now();
            ctx.send_to_neighbors(&v);
            ctx.set_timer(1.0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, f64>, _from: NodeId, msg: &f64) {
            if self.panic_at.is_some_and(|at| ctx.hw_now() >= at) {
                panic!("node {} failed at hw {}", self.id, ctx.hw_now());
            }
            let v = ctx.logical_now().max(*msg);
            ctx.set_logical(v);
        }
    }

    /// Logs every `on_event` view of the acting node's logical clock and
    /// every probe of all clocks, by `to_bits`.
    #[derive(Default)]
    struct Log {
        events: Vec<(u64, NodeId, u64)>,
        probes: Vec<Vec<u64>>,
    }

    impl Observer for Log {
        fn on_event(&mut self, view: &Probe<'_>, event: &EventRecord) {
            let logical = view.logical(event.node).to_bits();
            self.events
                .push((event.time.to_bits(), event.node, logical));
        }
        fn on_probe(&mut self, view: &Probe<'_>) {
            let clocks = (0..view.node_count()).map(|i| view.logical(i).to_bits());
            self.probes.push(
                std::iter::once(view.time().to_bits())
                    .chain(clocks)
                    .collect(),
            );
        }
    }

    /// A line of three at unit distances under half-distance delays: the
    /// two ends broadcast at the same instants, so their messages reach
    /// the middle node together, from two different shards at `k = 2`.
    fn line3() -> SimulationBuilder {
        let topology = Topology::line(3);
        let delay = FixedFractionDelay::for_topology(&topology, 0.5);
        SimulationBuilder::new(topology).delay_policy(delay)
    }

    fn adopt(id: NodeId, _n: usize) -> Adopt {
        Adopt { id, panic_at: None }
    }

    #[test]
    fn simultaneous_deliveries_follow_the_one_observer_rule() {
        let horizon = 6.0;
        let mut live = Log::default();
        let mut sim = line3().build_with(adopt).unwrap();
        sim.set_probe_schedule(0.0, 0.5);
        sim.try_run_until_observed(horizon, &mut [&mut live])
            .unwrap();

        let mut sharded = Log::default();
        let mut sim = line3().shards(2).build_with(adopt).unwrap();
        assert_eq!(sim.counters().shards.len(), 2);
        sim.set_probe_schedule(0.0, 0.5);
        sim.try_run_until_observed(horizon, &mut [&mut sharded])
            .unwrap();

        let mut replay = Log::default();
        let exec = line3()
            .build_with(adopt)
            .unwrap()
            .try_execute_until(horizon)
            .unwrap();
        observe_execution(&exec, 0.0, 0.5, &mut [&mut replay]);

        // Two shards evaluate views at the barrier, the replay at the end
        // of the run: both follow the rule, so their streams agree.
        assert_eq!(sharded.events, replay.events);
        // Probe views are final for their instant on every path.
        assert_eq!(live.probes, replay.probes);
        assert_eq!(sharded.probes, replay.probes);
        // The live single heap differs exactly where the rule says: at an
        // event whose node has another event at the same instant, which
        // overwrites the trajectory point at that reading.
        assert_eq!(live.events.len(), replay.events.len());
        let differing: Vec<_> = (0..live.events.len())
            .filter(|&i| live.events[i] != replay.events[i])
            .collect();
        assert!(
            !differing.is_empty(),
            "the fixture has no overwritten reading"
        );
        for i in differing {
            let (time, node, _) = replay.events[i];
            let at_once = replay.events.iter().filter(|e| (e.0, e.1) == (time, node));
            assert!(
                at_once.count() > 1,
                "event {i} differs without a simultaneous event"
            );
        }
    }

    #[test]
    fn handoffs_count_exactly_the_cross_shard_sends() {
        let topology = Topology::random_geometric(40, 10.0, 3.0, 3);
        let setup = || {
            SimulationBuilder::new(topology.clone()).delay_policy(UniformDelay::new(0.25, 0.75, 9))
        };
        let horizon = 12.0;
        let handoffs = |k: usize| {
            let mut sim = setup().shards(k).build_with(adopt).unwrap();
            assert_eq!(sim.counters().shards.len(), k);
            sim.try_run_until_observed(horizon, &mut []).unwrap();
            let counted: Vec<u64> = sim.counters().shards.iter().map(|s| s.handoffs).collect();
            (counted, sim.into_execution())
        };
        let (one, _) = handoffs(1);
        assert_eq!(one, vec![0]);
        let single = setup().build_with(adopt).unwrap();
        single
            .counters()
            .shards
            .iter()
            .for_each(|s| assert_eq!(s.handoffs, 0));

        // Every logged message that arrives and whose endpoints sit in
        // different shards was handed off exactly once.
        let (two, exec) = handoffs(2);
        let placement = Placement::new(&topology, 2);
        let crossing = exec
            .messages()
            .iter()
            .filter(|m| m.arrival_time.is_some())
            .filter(|m| placement.owner(m.from) != placement.owner(m.to))
            .count() as u64;
        assert!(crossing > 0, "the fixture crosses no cut");
        assert_eq!(two.iter().sum::<u64>(), crossing);
    }

    /// Runs `case` on a thread of its own under a watchdog, so a hang
    /// fails the test instead of stalling it; returns the case's result or
    /// its panic message.
    fn watched<T: Send + 'static>(case: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(case)).map_err(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default()
            });
            let _ = tx.send(outcome);
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the run hung past the watchdog")
    }

    /// The same failing run on the single heap and on two shards: the
    /// recorded event count or the typed error, or the panic message.
    fn single_and_sharded<N: Node<f64> + Send + 'static>(
        setup: fn() -> SimulationBuilder,
        make: fn(NodeId, usize) -> N,
        horizon: f64,
    ) -> [Result<Result<usize, SimError>, String>; 2] {
        let count = |exec: crate::Execution<f64>| exec.events().len();
        [
            watched(move || {
                let sim = setup().build_with(make).unwrap();
                sim.try_execute_until(horizon).map(count)
            }),
            watched(move || {
                let sim = setup().shards(2).build_with(make).unwrap();
                assert_eq!(sim.counters().shards.len(), 2);
                sim.try_execute_until(horizon).map(count)
            }),
        ]
    }

    fn line4() -> SimulationBuilder {
        let topology = Topology::line(4);
        let delay = FixedFractionDelay::for_topology(&topology, 0.5);
        SimulationBuilder::new(topology).delay_policy(delay)
    }

    #[test]
    fn a_node_panic_surfaces_with_the_single_heap_message() {
        let make = |id, _| Adopt {
            id,
            panic_at: (id == 2).then_some(7.0),
        };
        let [single, sharded] = single_and_sharded(line4, make, 20.0);
        assert_eq!(single, Err("node 2 failed at hw 7.5".to_string()));
        assert_eq!(sharded, single);
    }

    #[test]
    fn an_event_cap_trip_names_the_single_heap_event() {
        /// Every delivery triggers two broadcasts: a storm.
        #[derive(Debug)]
        struct Storm;
        impl Node<f64> for Storm {
            fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
                ctx.send_to_neighbors(&0.0);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, f64>, _from: NodeId, _msg: &f64) {
                ctx.send_to_neighbors(&0.0);
                ctx.send_to_neighbors(&0.0);
            }
        }
        /// Node 3 sets twenty timers a hundredth apart and node 0 one in
        /// between, all inside the first window.
        #[derive(Debug)]
        struct Burst {
            id: NodeId,
        }
        impl Node<f64> for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
                match self.id {
                    0 => {
                        ctx.set_timer(0.035);
                    }
                    3 => (1..=20).for_each(|k| {
                        ctx.set_timer(0.01 * f64::from(k));
                    }),
                    _ => {}
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, f64>, _from: NodeId, _msg: &f64) {}
        }
        fn capped<const CAP: u64>() -> SimulationBuilder {
            line4().event_cap(CAP)
        }
        // Caps that trip early and late in a storm over both shards.
        for [single, sharded] in [
            single_and_sharded(capped::<4>, |_, _| Storm, 1e6),
            single_and_sharded(capped::<37>, |_, _| Storm, 1e6),
            single_and_sharded(capped::<500>, |_, _| Storm, 1e6),
            single_and_sharded(capped::<4001>, |_, _| Storm, 1e6),
        ] {
            let message = single.clone().unwrap_err();
            assert!(message.starts_with("event cap of "), "{message}");
            assert_eq!(sharded, single);
        }
        // Shard 1 alone dispatches seven events and stops at its timer at
        // 0.06, but the eighth event of the run is node 0's, in shard 0.
        let [single, sharded] = single_and_sharded(capped::<7>, |id, _| Burst { id }, 1.0);
        let message = single.clone().unwrap_err();
        assert!(
            message.starts_with("event cap of 7 exceeded at t = 0.035"),
            "{message}"
        );
        assert_eq!(sharded, single);
    }

    #[test]
    fn a_non_finite_delay_is_the_single_heap_error() {
        /// Half-distance delays until node 2 sends at or after t = 3,
        /// then NaN.
        #[derive(Debug, Clone)]
        struct NanFromNode2;
        impl DelayPolicy for NanFromNode2 {
            fn decide(&mut self, from: usize, _to: usize, _seq: u64, t: f64) -> DelayOutcome {
                DelayOutcome::Delay(if from == 2 && t >= 3.0 { f64::NAN } else { 0.5 })
            }
            fn min_delay_bound(&self) -> f64 {
                0.5
            }
            fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
                Some(Box::new(self.clone()))
            }
        }
        let setup = || SimulationBuilder::new(Topology::line(4)).delay_policy(NanFromNode2);
        let [single, sharded] = single_and_sharded(setup, adopt, 20.0);
        assert_eq!(
            single,
            Ok(Err(SimError::NonFiniteDelay {
                from: 2,
                to: 1,
                send_time: 3.0
            }))
        );
        assert_eq!(sharded, single);
    }

    #[test]
    fn a_lookahead_lost_to_rounding_is_an_error_not_a_hang() {
        /// Arms one timer at its reading and broadcasts once when it fires.
        #[derive(Debug)]
        struct Late(f64);
        impl Node<f64> for Late {
            fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
                ctx.set_timer(self.0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _timer: TimerId) {
                ctx.send_to_neighbors(&0.0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, f64>, _from: NodeId, _msg: &f64) {}
        }
        /// Half-distance delays that claim a subnormal lookahead.
        #[derive(Debug, Clone)]
        struct Subnormal;
        impl DelayPolicy for Subnormal {
            fn decide(&mut self, _from: usize, _to: usize, _seq: u64, _t: f64) -> DelayOutcome {
                DelayOutcome::Delay(0.5)
            }
            fn min_delay_bound(&self) -> f64 {
                f64::from_bits(1)
            }
            fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
                Some(Box::new(self.clone()))
            }
        }
        let ring8 = || {
            SimulationBuilder::new(Topology::ring(8)).delay_policy(UniformDelay::new(0.25, 0.75, 9))
        };
        // At 1e14 an ulp is 1/64 and a quarter still moves the window.
        let [single, sharded] = single_and_sharded(ring8, |_, _| Late(1e14), 1e14 + 5.0);
        assert_eq!(single, Ok(Ok(32)));
        assert_eq!(sharded, single);
        // At 1e16 an ulp is 2, so `t + 0.25 == t`; a subnormal lookahead
        // is lost at every normal `t`.
        let subnormal = || SimulationBuilder::new(Topology::line(4)).delay_policy(Subnormal);
        for [single, sharded] in [
            single_and_sharded(ring8, |_, _| Late(1e16), 1e16 + 5.0),
            single_and_sharded(subnormal, adopt, 20.0),
        ] {
            assert!(matches!(single, Ok(Ok(_))), "{single:?}");
            assert!(
                matches!(sharded, Ok(Err(SimError::ShardUnsupported { .. }))),
                "{sharded:?}"
            );
        }
    }
}
