//! The sharded parallel engine: conservative-window dispatch over
//! partitioned topology shards.
//!
//! # The window protocol
//!
//! The topology is partitioned into `k` contiguous shards, each owning
//! its nodes' event queue (a [`CalendarQueue`]), a forked clock source,
//! and a forked delay policy. Let `L` be the delay policy's
//! [`DelayPolicy::min_delay_bound`] — the *lookahead*: every message
//! takes at least `L` real time. Each round the coordinator computes the
//! globally earliest pending event time `t_min` and the window boundary
//! `W = t_min + L`; every event strictly before `W` is then dispatched,
//! shard-parallel, on scoped threads. This is safe — no cross-shard
//! message sent inside the window can arrive inside it — because a send
//! at `s ≥ t_min` arrives at `s + delay ≥ t_min + L`, and
//! rounding-to-nearest is monotone, so the floating-point arrival is
//! `≥ W` exactly as computed (the router asserts this invariant for
//! every handoff).
//!
//! # Deterministic handoff
//!
//! At the window barrier, cross-shard sends are exchanged and enqueued
//! at their destination shards. Simultaneous events are ordered by the
//! same canonical [`EventKind::tie_key`] the single-heap engine uses; the
//! key is unique among distinct simultaneous events, so the handoff
//! insertion order cannot influence dispatch order — which is what makes
//! executions bit-identical for every shard count, including `k = 1`.
//! Per-shard window event buffers are merged by `(time, tie_key)` into
//! the global event log and replayed through observers with probes
//! interleaved, and per-shard message logs are merged at finalization by
//! `(send_time, sender event tie_key, intra-event index)` — the exact
//! append order of the single-heap engine.
//!
//! # Adaptive windows and work stealing
//!
//! Two builder knobs tune *throughput only* — both leave the dispatch
//! schedule, and therefore the [`Execution`], bit-identical at every
//! setting, because neither ever changes what a window contains or how
//! its results are merged:
//!
//! - [`SimulationBuilder::adaptive_window`] batches consecutive
//!   conservative windows into one **super-window**: a single thread
//!   scope runs up to `window_mult` rounds of the exact `[t_min, t_min +
//!   L)` window protocol, exchanging cross-shard handoffs through
//!   per-shard mailboxes at an in-scope barrier instead of returning to
//!   the coordinator after every window. Each round is *identical* to a
//!   non-adaptive window — the knob only moves thread-spawn and
//!   merge/replay boundaries. The multiplier adapts by event density:
//!   it doubles (up to `ADAPTIVE_MAX_MULT`) while super-windows average
//!   fewer than `ADAPTIVE_DENSITY` events per round — the sparse regime
//!   where barrier overhead dominates — and halves when a super-window
//!   hits the `ADAPTIVE_BATCH_CAP` event budget (barriers are cheap
//!   relative to dispatch there, and bounding the batch also bounds
//!   buffered record memory in streaming mode).
//! - [`SimulationBuilder::steal`] turns the shard set into a claimable
//!   task pool. By default one worker thread is pinned per shard; with
//!   stealing, `min(available_parallelism, k)` workers repeatedly claim
//!   the next unprocessed shard via an atomic counter, in both the
//!   dispatch phase and the mailbox-drain phase, so a worker whose
//!   shard drained early picks up a loaded shard instead of idling at
//!   the barrier. Shard *state* never migrates — a claim decides which
//!   thread runs a shard's window, not which shard owns a node — and
//!   every shard's window output is independent of the claiming thread,
//!   so the merge sees byte-identical inputs.
//!
//! Each super-window round is three barriers: (1) run windows and
//! deposit cross-shard sends into destination mailboxes, (2) drain own
//! mailbox (sorted by `(arrival time, from, to, seq)` so tie counters
//! stay deterministic) and enqueue the deliveries, then (3) one leader
//! thread computes the next global `t_min`, decides
//! continue-vs-stop, and publishes the next window boundary. Worker
//! panics (event-cap trips, delay-model violations, node panics) are
//! caught per phase so every worker still reaches the barrier — the
//! leader then stops the super-window and the coordinator re-raises the
//! first panic in shard order.
//!
//! # What sharded runs do not support
//!
//! Tracers and profiling observe the live global interleaving, which
//! sharded dispatch does not produce — attaching either is a
//! [`SimError::ShardUnsupported`]. Clock sources and delay policies must
//! support [`ClockSource::fork`] / [`DelayPolicy::fork`]. Observer
//! `on_event` views are evaluated at the barrier: when several events
//! hit the *same node* at the *same timestamp*, intermediate views
//! reflect that instant's final state (probe views are always exact).
//!
//! A policy with zero lookahead cannot overlap shards; the build falls
//! back to a single shard (whose window is unbounded), which keeps the
//! calendar-queue path exact while giving up parallelism.
//!
//! # Where the wall time went
//!
//! Every run counts, per shard, the windows it entered, the events it
//! dispatched and the nanoseconds it spent dispatching and draining its
//! mailbox, and on the coordinator the time spent merging between
//! super-windows and firing probes ([`ShardedSimulation::counters`]). The
//! cost is two clock reads per shard per phase per window. Busy time
//! summed over shards against the run's wall time says whether the
//! shards overlapped or took turns; E15 prints the table.

use std::cmp::Ordering;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as MemOrder};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::Instant;

use gcs_clocks::{ClockSource, EagerSchedule, PiecewiseLinear, RateSchedule};
use gcs_dynamic::DynamicTopology;
use gcs_net::{DelayOutcome, DelayPolicy, FixedFractionDelay, Topology};

use crate::calendar::{CalendarItem, CalendarQueue};
use crate::engine::{SimError, SimulationBuilder};
use crate::event::{EventKind, EventRecord, MessageRecord, MessageStatus};
use crate::execution::Execution;
use crate::node::{Actions, Context, Node};
use crate::observer::{Observer, Probe};
use crate::profile::add_elapsed;
use crate::send_seq::SendSeq;
use crate::{NodeId, TimerId};

/// A queued event in a shard's calendar queue. Mirrors the single-heap
/// engine's queued event, with two delivery flavors: locally-sent
/// messages reference the shard's own message log, while cross-shard
/// deliveries carry their payload (and an owner pointer for the status
/// write-back) across the window barrier.
struct ShardEvent<M> {
    time: f64,
    /// Shard-local monotonic tie-breaker. Only consulted when two events
    /// share `(time, tie_key)`, which distinct events never do.
    tie: u64,
    node: NodeId,
    hw: f64,
    kind: ShardEventKind<M>,
}

enum ShardEventKind<M> {
    Start,
    Timer {
        id: TimerId,
    },
    TopoChange {
        peer: NodeId,
        up: bool,
    },
    /// Delivery of a message sent by a node of this shard.
    DeliverLocal {
        from: NodeId,
        seq: u64,
        msg_index: usize,
    },
    /// Delivery of a message sent from another shard.
    DeliverRemote {
        from: NodeId,
        seq: u64,
        send_time: f64,
        /// `(shard index, message slot)` in the sender's log; the slot is
        /// [`NO_SLOT`] in streaming mode.
        owner: (usize, usize),
        payload: M,
    },
}

impl<M> ShardEvent<M> {
    fn record_kind(&self) -> EventKind {
        match &self.kind {
            ShardEventKind::Start => EventKind::Start,
            ShardEventKind::Timer { id } => EventKind::Timer { id: *id },
            ShardEventKind::TopoChange { peer, up } => EventKind::TopologyChange {
                peer: *peer,
                up: *up,
            },
            ShardEventKind::DeliverLocal { from, seq, .. }
            | ShardEventKind::DeliverRemote { from, seq, .. } => EventKind::Deliver {
                from: *from,
                seq: *seq,
            },
        }
    }

    fn tie_key(&self) -> (NodeId, u8, u64, u64) {
        self.record_kind().tie_key(self.node)
    }
}

impl<M> PartialEq for ShardEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tie == other.tie
    }
}
impl<M> Eq for ShardEvent<M> {}
impl<M> PartialOrd for ShardEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for ShardEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Identical to the single-heap engine's reversed comparator:
        // earliest time first, canonical tie key, insertion order last.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or_else(|| other.time.total_cmp(&self.time))
            .then_with(|| other.tie_key().cmp(&self.tie_key()))
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

impl<M> CalendarItem for ShardEvent<M> {
    fn axis(&self) -> f64 {
        self.time
    }
}

/// A cross-shard message in transit at a window barrier.
struct Handoff<M> {
    from: NodeId,
    to: NodeId,
    seq: u64,
    send_time: f64,
    arrival_time: f64,
    arrival_hw: f64,
    /// `(shard index, message slot)` in the sender's log; the slot is
    /// [`NO_SLOT`] in streaming mode.
    owner: (usize, usize),
    payload: M,
}

/// The slot of a cross-shard message that is in no log. A streaming run
/// reads a message record only to deliver it, and a cross-shard delivery
/// reads the handoff instead, so such a send is neither logged by the
/// sender nor written back by the receiver.
const NO_SLOT: usize = usize::MAX;

/// A deferred status write-back for a message owned by another shard's
/// log: `(owner shard, slot, delivered?)`. `delivered == false` means
/// the in-flight message was dropped by a link outage.
type StatusUpdate = (usize, usize, bool);

/// Merge key reproducing the single-heap engine's message-log append
/// order: sends are appended per dispatched event (events are totally
/// ordered by `(time, tie_key)`), in action order within one event.
#[derive(Clone, Copy)]
struct MsgKey {
    send_time: f64,
    sender_key: (NodeId, u8, u64, u64),
    action_index: usize,
}

impl MsgKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.send_time
            .total_cmp(&other.send_time)
            .then_with(|| self.sender_key.cmp(&other.sender_key))
            .then_with(|| self.action_index.cmp(&other.action_index))
    }
}

/// Wall-clock accounting of one shard: what it did and how long it was
/// busy doing it. Always on: the cost is two clock reads per shard per
/// window and per mailbox drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Conservative windows this shard entered (one per round).
    pub windows: u64,
    /// Events this shard dispatched.
    pub events: u64,
    /// Nanoseconds inside the window's dispatch loop.
    pub run_ns: u64,
    /// Nanoseconds sorting and enqueuing cross-shard deliveries.
    pub drain_ns: u64,
}

/// Where a sharded run's wall time went, from
/// [`ShardedSimulation::counters`]: per-shard busy time beside the
/// coordinator's serial phases. Shards whose `run_ns` sum to the run's
/// wall time took turns; shards that each come close to it overlapped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedCounters {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardCounters>,
    /// Coordinator nanoseconds between super-windows: status write-backs,
    /// event merge and observer replay (probes excluded).
    pub finish_ns: u64,
    /// Coordinator nanoseconds firing probes: trajectory compaction and
    /// the observers' `on_probe`.
    pub probe_ns: u64,
}

/// Ceiling on the adaptive super-window multiplier: at most this many
/// consecutive conservative windows run inside one thread scope.
const ADAPTIVE_MAX_MULT: u64 = 64;
/// Events-per-round density below which the adaptive multiplier doubles:
/// windows this sparse are dominated by barrier/merge overhead.
const ADAPTIVE_DENSITY: u64 = 256;
/// Event budget per super-window: hitting it stops the current
/// super-window and halves the multiplier. Also bounds the event records
/// buffered between coordinator merges in streaming mode.
const ADAPTIVE_BATCH_CAP: u64 = 65_536;

/// Locks a mutex, ignoring poisoning: worker panics are caught and
/// re-raised explicitly by the round protocol, so a poisoned lock only
/// means "some shard already failed", never torn data we would misread.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Read-only super-window parameters shared by every shard worker.
struct WindowCtx<'a> {
    topology: &'a Topology,
    dynamic: Option<&'a DynamicTopology>,
    drop_on_link_down: bool,
    record_events: bool,
    /// Run horizon (inclusive).
    horizon: f64,
    /// Events dispatched globally before this super-window.
    baseline_dispatched: u64,
    event_cap: u64,
}

/// One shard: a contiguous node range, its event queue, and its forked
/// clock and delay handles.
struct Shard<M> {
    index: usize,
    /// Owned node range `[lo, hi)`.
    lo: usize,
    hi: usize,
    queue: CalendarQueue<ShardEvent<M>>,
    tie: u64,
    clock: Box<dyn ClockSource + Send>,
    delay: Box<dyn DelayPolicy + Send>,
    send_seq: SendSeq,
    messages: Vec<MessageRecord<M>>,
    /// Merge keys, parallel to `messages`.
    msg_keys: Vec<MsgKey>,
    /// Recycled slots (streaming mode).
    free_slots: Vec<usize>,
    actions: Actions<M>,
    /// Events dispatched this window, in shard-local (= globally
    /// comparator-consistent) order. Drained at the barrier.
    window_events: Vec<EventRecord>,
    /// Cross-shard sends this window. Drained at the barrier.
    outbox: Vec<Handoff<M>>,
    /// Status write-backs for foreign-owned messages this window.
    status_updates: Vec<StatusUpdate>,
    /// Events dispatched this window.
    window_dispatched: u64,
    dropped_loss: u64,
    dropped_link_down: u64,
    counters: ShardCounters,
}

impl<M: Clone + fmt::Debug + Send + 'static> Shard<M> {
    fn bump_tie(&mut self) -> u64 {
        let t = self.tie;
        self.tie += 1;
        t
    }

    fn owns(&self, node: NodeId) -> bool {
        (self.lo..self.hi).contains(&node)
    }

    /// Queues the status write-back for a delivered or churn-dropped
    /// message whose record lives in another shard's log, if it has one.
    fn write_back(&mut self, owner: (usize, usize), delivered: bool) {
        if owner.1 != NO_SLOT {
            self.status_updates.push((owner.0, owner.1, delivered));
        }
    }

    /// Time of this shard's next pending event.
    fn next_time(&mut self) -> Option<f64> {
        self.queue.peek().map(|ev| ev.time)
    }

    /// Dispatches every local event strictly before `window_end` and
    /// at or before `ctx.horizon`, buffering records, cross-shard sends,
    /// and foreign status updates for the barrier.
    fn run_window(
        &mut self,
        ctx: &WindowCtx<'_>,
        window_end: f64,
        nodes: &mut [Box<dyn Node<M> + Send>],
        trajectories: &mut [PiecewiseLinear],
        neighbors: &mut [Vec<NodeId>],
        next_timer: &mut [TimerId],
    ) -> Result<(), SimError> {
        if !ctx.record_events {
            // No query in this or any later window reaches behind the
            // window start; a windowing clock fork can drop the past.
            if let Some(t) = self.next_time() {
                self.clock.compact_before(t);
            }
        }
        loop {
            let due = match self.queue.peek() {
                Some(ev) => ev.time < window_end && ev.time <= ctx.horizon,
                None => false,
            };
            if !due {
                return Ok(());
            }
            let ev = self.queue.pop().expect("peeked above");
            self.dispatch(ev, ctx, nodes, trajectories, neighbors, next_timer)?;
        }
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(
        &mut self,
        ev: ShardEvent<M>,
        ctx: &WindowCtx<'_>,
        nodes: &mut [Box<dyn Node<M> + Send>],
        trajectories: &mut [PiecewiseLinear],
        neighbors: &mut [Vec<NodeId>],
        next_timer: &mut [TimerId],
    ) -> Result<(), SimError> {
        let ShardEvent {
            time,
            node,
            hw,
            kind,
            ..
        } = ev;
        let local = node - self.lo;
        // Topology changes enqueue with a placeholder reading; resolve it
        // at dispatch, like the single-heap engine.
        let hw = if matches!(kind, ShardEventKind::TopoChange { .. }) {
            self.clock.value_at(node, time)
        } else {
            hw
        };

        // In-flight link-outage drops, resolved at delivery time from the
        // churn timeline — identical to the single-heap engine, with the
        // status write-back deferred when the sender's log lives on
        // another shard.
        if let Some(view) = ctx.dynamic {
            if ctx.drop_on_link_down {
                let dropped = match &kind {
                    ShardEventKind::DeliverLocal {
                        from, msg_index, ..
                    } => {
                        let sent = self.messages[*msg_index].send_time;
                        view.link_interrupted(*from, node, sent, time)
                            .then_some(Ok(*msg_index))
                    }
                    ShardEventKind::DeliverRemote {
                        from,
                        send_time,
                        owner,
                        ..
                    } => view
                        .link_interrupted(*from, node, *send_time, time)
                        .then_some(Err(*owner)),
                    _ => None,
                };
                if let Some(where_) = dropped {
                    match where_ {
                        Ok(msg_index) => {
                            let m = &mut self.messages[msg_index];
                            m.status = MessageStatus::Dropped;
                            m.arrival_time = None;
                            m.arrival_hw = None;
                            if !ctx.record_events {
                                self.free_slots.push(msg_index);
                            }
                        }
                        Err(owner) => self.write_back(owner, false),
                    }
                    self.dropped_link_down += 1;
                    return Ok(());
                }
            }
        }

        self.window_dispatched += 1;
        assert!(
            ctx.baseline_dispatched + self.window_dispatched <= ctx.event_cap,
            "event cap of {} exceeded at t = {}; the algorithm may be \
             generating an unbounded message storm",
            ctx.event_cap,
            time
        );

        if let ShardEventKind::TopoChange { peer, up } = kind {
            let list = &mut neighbors[local];
            if up {
                if let Err(pos) = list.binary_search(&peer) {
                    list.insert(pos, peer);
                }
            } else if let Ok(pos) = list.binary_search(&peer) {
                list.remove(pos);
            }
        }

        let record = EventRecord {
            time,
            node,
            hw,
            kind: ev_record_kind(&kind),
        };
        let sender_key = record.kind.tie_key(node);
        self.window_events.push(record);

        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut cb = Context::new(
                node,
                ctx.topology.len(),
                hw,
                &neighbors[local],
                ctx.topology,
                &mut trajectories[local],
                &mut next_timer[local],
                &mut actions,
            );
            match kind {
                ShardEventKind::Start => nodes[local].on_start(&mut cb),
                ShardEventKind::Timer { id } => nodes[local].on_timer(&mut cb, id),
                ShardEventKind::TopoChange { peer, up } => {
                    nodes[local].on_topology_change(&mut cb, peer, up);
                }
                ShardEventKind::DeliverLocal {
                    from, msg_index, ..
                } => {
                    let payload = self.messages[msg_index].payload.clone();
                    self.messages[msg_index].status = MessageStatus::Delivered;
                    if !ctx.record_events {
                        self.free_slots.push(msg_index);
                    }
                    nodes[local].on_message(&mut cb, from, &payload);
                }
                ShardEventKind::DeliverRemote {
                    from,
                    owner,
                    payload,
                    ..
                } => {
                    self.write_back(owner, true);
                    nodes[local].on_message(&mut cb, from, &payload);
                }
            }
        }

        let mut err = None;
        for (action_index, (to, payload)) in actions.sends.drain(..).enumerate() {
            if err.is_none() {
                let key = MsgKey {
                    send_time: time,
                    sender_key,
                    action_index,
                };
                err = self
                    .try_send_message(ctx, node, to, payload, time, hw, key)
                    .err();
            }
        }
        for (id, target_hw) in actions.timers.drain(..) {
            if err.is_some() {
                continue;
            }
            if !target_hw.is_finite() {
                err = Some(SimError::NonFiniteTimer { node, target_hw });
                continue;
            }
            let fire_time = self.clock.time_at_value(node, target_hw);
            if !fire_time.is_finite() {
                err = Some(SimError::NonFiniteTimer { node, target_hw });
                continue;
            }
            let tie = self.bump_tie();
            self.queue.push(ShardEvent {
                time: fire_time,
                tie,
                node,
                hw: target_hw,
                kind: ShardEventKind::Timer { id },
            });
        }
        self.actions = actions;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn try_send_message(
        &mut self,
        ctx: &WindowCtx<'_>,
        from: NodeId,
        to: NodeId,
        payload: M,
        time: f64,
        hw: f64,
        key: MsgKey,
    ) -> Result<(), SimError> {
        let seq = self.send_seq.next(from, to);

        let d = ctx.topology.distance(from, to);
        let outcome = self.delay.decide(from, to, seq, time);
        let (arrival, arrival_hw, status) = match outcome {
            DelayOutcome::Delay(delay) => {
                if !delay.is_finite() {
                    return Err(SimError::NonFiniteDelay {
                        from,
                        to,
                        send_time: time,
                    });
                }
                assert!(
                    (0.0..=d + 1e-9).contains(&delay),
                    "delay policy violated the model: delay {delay} for \
                     {from}->{to} with distance {d}"
                );
                let t = time + delay;
                (Some(t), Some(self.clock.value_at(to, t)), None)
            }
            DelayOutcome::ArriveAt(t) => {
                if !t.is_finite() {
                    return Err(SimError::NonFiniteDelay {
                        from,
                        to,
                        send_time: time,
                    });
                }
                assert!(
                    t >= time - 1e-9 && t <= time + d + 1e-9,
                    "delay policy violated the model: arrival {t} for \
                     {from}->{to} sent at {time} with distance {d}"
                );
                (Some(t), Some(self.clock.value_at(to, t)), None)
            }
            DelayOutcome::ArriveAtHw(h) => {
                if !h.is_finite() {
                    return Err(SimError::NonFiniteDelay {
                        from,
                        to,
                        send_time: time,
                    });
                }
                let t = self.clock.time_at_value(to, h);
                if !t.is_finite() {
                    return Err(SimError::NonFiniteDelay {
                        from,
                        to,
                        send_time: time,
                    });
                }
                assert!(
                    t >= time - 1e-9 && t <= time + d + 1e-9,
                    "delay policy violated the model: hw arrival {h} (real \
                     {t}) for {from}->{to} sent at {time} with distance {d}"
                );
                (Some(t), Some(h), None)
            }
            DelayOutcome::Drop => (None, None, Some(MessageStatus::Dropped)),
        };

        let status = status.unwrap_or(MessageStatus::InFlight);
        let dropped = status == MessageStatus::Dropped;
        if dropped {
            self.dropped_loss += 1;
        }
        if dropped && !ctx.record_events {
            return Ok(());
        }

        let remote = arrival.is_some() && !self.owns(to);
        let (msg_index, carried) = if remote && !ctx.record_events {
            // Streaming: the handoff carries the message whole.
            (NO_SLOT, Some(payload))
        } else {
            // Only a recorded cross-shard send needs two copies of the
            // payload: one stays in this shard's log, one crosses the
            // barrier in the handoff.
            let carried = remote.then(|| payload.clone());
            let record = MessageRecord {
                from,
                to,
                seq,
                send_time: time,
                send_hw: hw,
                arrival_time: arrival,
                arrival_hw,
                status,
                payload,
            };
            // Slots are recycled in streaming mode only, and merge keys
            // are read by `into_execution` in recording mode only.
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    self.messages[slot] = record;
                    slot
                }
                None => {
                    self.messages.push(record);
                    if ctx.record_events {
                        self.msg_keys.push(key);
                    }
                    self.messages.len() - 1
                }
            };
            (slot, carried)
        };

        if let (Some(t), Some(h)) = (arrival, arrival_hw) {
            match carried {
                None => {
                    let tie = self.bump_tie();
                    self.queue.push(ShardEvent {
                        time: t,
                        tie,
                        node: to,
                        hw: h,
                        kind: ShardEventKind::DeliverLocal {
                            from,
                            seq,
                            msg_index,
                        },
                    });
                }
                Some(payload) => self.outbox.push(Handoff {
                    from,
                    to,
                    seq,
                    send_time: time,
                    arrival_time: t,
                    arrival_hw: h,
                    owner: (self.index, msg_index),
                    payload,
                }),
            }
        }
        Ok(())
    }
}

fn ev_record_kind<M>(kind: &ShardEventKind<M>) -> EventKind {
    match kind {
        ShardEventKind::Start => EventKind::Start,
        ShardEventKind::Timer { id } => EventKind::Timer { id: *id },
        ShardEventKind::TopoChange { peer, up } => EventKind::TopologyChange {
            peer: *peer,
            up: *up,
        },
        ShardEventKind::DeliverLocal { from, seq, .. }
        | ShardEventKind::DeliverRemote { from, seq, .. } => EventKind::Deliver {
            from: *from,
            seq: *seq,
        },
    }
}

/// One claimable unit of super-window work: a shard plus the disjoint
/// per-node state slices it owns. Workers take the mutex to run a
/// shard's window or drain its mailbox; the leader takes it to peek the
/// shard's next event time between rounds.
struct ShardTask<'a, M> {
    shard: &'a mut Shard<M>,
    nodes: &'a mut [Box<dyn Node<M> + Send>],
    trajectories: &'a mut [PiecewiseLinear],
    neighbors: &'a mut [Vec<NodeId>],
    next_timer: &'a mut [TimerId],
}

impl<M: Clone + fmt::Debug + Send + 'static> ShardTask<'_, M> {
    fn run_window(&mut self, ctx: &WindowCtx<'_>, window_end: f64) -> Result<(), SimError> {
        let started = Instant::now();
        let before = self.shard.window_dispatched;
        let result = self.shard.run_window(
            ctx,
            window_end,
            self.nodes,
            self.trajectories,
            self.neighbors,
            self.next_timer,
        );
        let counters = &mut self.shard.counters;
        counters.windows += 1;
        counters.events += self.shard.window_dispatched - before;
        add_elapsed(&mut counters.run_ns, Some(started));
        result
    }
}

/// Hands out the shard a worker should process next within one phase:
/// with stealing, the next unclaimed index from the shared counter; with
/// static assignment, the worker's own shard exactly once.
fn claim_shard(
    steal: bool,
    counter: &AtomicUsize,
    worker: usize,
    k: usize,
    done_own: &mut bool,
) -> Option<usize> {
    if steal {
        let i = counter.fetch_add(1, MemOrder::SeqCst);
        (i < k).then_some(i)
    } else if *done_own {
        None
    } else {
        *done_own = true;
        Some(worker)
    }
}

/// A sharded simulation: the conservative-window parallel counterpart of
/// [`crate::Simulation`], built by
/// [`SimulationBuilder::build_sharded_with`] /
/// [`SimulationBuilder::build_sharded_boxed`] with the shard count from
/// [`SimulationBuilder::shards`].
///
/// For every shard count `k ≥ 1` the produced [`Execution`] is
/// bit-identical to the single-heap engine's — the invariant the
/// `shard-determinism` CI job pins. The module-level documentation at the
/// top of `shard.rs` describes the window protocol.
pub struct ShardedSimulation<M> {
    topology: Topology,
    dynamic: Option<DynamicTopology>,
    drop_on_link_down: bool,
    /// Coordinator clock: probe views, streaming compaction, and final
    /// schedule materialization. Bit-answer-identical to every shard
    /// fork.
    clock: Box<dyn ClockSource>,
    /// The delay policy's lookahead `L` (`∞` when running one shard).
    lookahead: f64,
    shards: Vec<Shard<M>>,
    /// Owning shard of each node.
    node_shard: Vec<u32>,
    nodes: Vec<Box<dyn Node<M> + Send>>,
    neighbors: Vec<Vec<NodeId>>,
    trajectories: Vec<PiecewiseLinear>,
    next_timer: Vec<TimerId>,
    events: Vec<EventRecord>,
    event_cap: u64,
    record_events: bool,
    started: bool,
    ran_to: f64,
    dispatched: u64,
    probe_from: f64,
    probe_every: Option<f64>,
    next_probe: u64,
    /// Adaptive super-window batching enabled
    /// ([`SimulationBuilder::adaptive_window`]).
    adaptive: bool,
    /// Work stealing enabled ([`SimulationBuilder::steal`]).
    steal: bool,
    /// Current super-window multiplier, in `[1, ADAPTIVE_MAX_MULT]`;
    /// stays 1 unless `adaptive` is on.
    window_mult: u64,
    /// Coordinator time in `finish_super_window`, probes excluded.
    finish_ns: u64,
    /// Coordinator time in `emit_probes`.
    probe_ns: u64,
}

impl<M> fmt::Debug for ShardedSimulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("topology", &self.topology)
            .field("shards", &self.shards.len())
            .field("lookahead", &self.lookahead)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> ShardedSimulation<M> {
    pub(crate) fn from_builder(
        builder: SimulationBuilder,
        nodes: Vec<Box<dyn Node<M> + Send>>,
    ) -> Result<Self, SimError> {
        let n = builder.topology.len();
        if nodes.len() != n {
            return Err(SimError::NodeCount {
                expected: n,
                got: nodes.len(),
            });
        }
        if builder.tracer.is_some() {
            return Err(SimError::ShardUnsupported {
                reason: "a tracer is attached (tracing observes the live global \
                         interleaving; use the single-heap engine)"
                    .into(),
            });
        }
        if builder.profile {
            return Err(SimError::ShardUnsupported {
                reason: "profiling is armed (use the single-heap engine)".into(),
            });
        }
        let clock = builder
            .clock
            .unwrap_or_else(|| Box::new(EagerSchedule::new(vec![RateSchedule::default(); n])));
        if clock.node_count() != n {
            return Err(SimError::ScheduleCount {
                expected: n,
                got: clock.node_count(),
            });
        }
        if let Some(node) = clock.find_non_finite() {
            return Err(SimError::NonFiniteRate { node });
        }
        let mut delay = builder
            .delay
            .unwrap_or_else(|| Box::new(FixedFractionDelay::for_topology(&builder.topology, 0.5)));
        delay.bind_topology(&builder.topology);

        // Zero lookahead cannot overlap shards: fall back to one shard,
        // whose window is unbounded (exact, calendar-queued, serial).
        let lookahead = delay.min_delay_bound();
        assert!(
            lookahead >= 0.0,
            "delay policy reported a negative lookahead {lookahead}"
        );
        let mut k = builder.shards.min(n.max(1));
        if lookahead <= 0.0 {
            k = 1;
        }

        let mut shards = Vec::with_capacity(k);
        for index in 0..k {
            let forked_clock = clock.fork().ok_or_else(|| SimError::ShardUnsupported {
                reason: "the clock source does not support fork()".into(),
            })?;
            let forked_delay = delay.fork().ok_or_else(|| SimError::ShardUnsupported {
                reason: "the delay policy does not support fork()".into(),
            })?;
            let (lo, hi) = (index * n / k, (index + 1) * n / k);
            shards.push(Shard {
                index,
                lo,
                hi,
                queue: CalendarQueue::new(),
                tie: 0,
                clock: forked_clock,
                delay: forked_delay,
                send_seq: SendSeq::new(lo..hi),
                messages: Vec::new(),
                msg_keys: Vec::new(),
                free_slots: Vec::new(),
                actions: Actions::default(),
                window_events: Vec::new(),
                outbox: Vec::new(),
                status_updates: Vec::new(),
                window_dispatched: 0,
                dropped_loss: 0,
                dropped_link_down: 0,
                counters: ShardCounters::default(),
            });
        }
        let mut node_shard = vec![0u32; n];
        for (s, shard) in shards.iter().enumerate() {
            for slot in &mut node_shard[shard.lo..shard.hi] {
                #[allow(clippy::cast_possible_truncation)]
                {
                    *slot = s as u32;
                }
            }
        }

        let neighbors: Vec<Vec<NodeId>> = match &builder.dynamic {
            Some(view) => (0..n).map(|i| view.neighbors_at(i, 0.0).to_vec()).collect(),
            None => (0..n).map(|i| builder.topology.neighbors(i)).collect(),
        };

        Ok(Self {
            topology: builder.topology,
            dynamic: builder.dynamic,
            drop_on_link_down: builder.drop_on_link_down,
            clock,
            lookahead: if k == 1 { f64::INFINITY } else { lookahead },
            shards,
            node_shard,
            nodes,
            neighbors,
            trajectories: (0..n)
                .map(|_| PiecewiseLinear::new(0.0, 0.0, 1.0))
                .collect(),
            next_timer: vec![0; n],
            events: Vec::new(),
            event_cap: builder.event_cap,
            record_events: builder.record_events,
            started: false,
            ran_to: 0.0,
            dispatched: 0,
            probe_from: builder.probe_from,
            probe_every: builder.probe_every,
            next_probe: 0,
            adaptive: builder.adaptive_window,
            steal: builder.steal,
            window_mult: 1,
            finish_ns: 0,
            probe_ns: 0,
        })
    }

    /// The number of simulated nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The actual shard count (after clamping to the node count and the
    /// zero-lookahead fallback).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lookahead window `L` (`∞` when running one shard).
    #[must_use]
    pub fn lookahead(&self) -> f64 {
        self.lookahead
    }

    /// The furthest simulated time this run has been driven to.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.ran_to
    }

    /// Events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Where the wall time went so far: per-shard busy time and the
    /// coordinator's serial phases — see [`ShardedCounters`].
    #[must_use]
    pub fn counters(&self) -> ShardedCounters {
        ShardedCounters {
            shards: self.shards.iter().map(|s| s.counters).collect(),
            finish_ns: self.finish_ns,
            probe_ns: self.probe_ns,
        }
    }

    /// Configures observer probes — identical semantics to
    /// [`crate::Simulation::set_probe_schedule`].
    ///
    /// # Panics
    ///
    /// Panics unless `every` is finite and strictly positive and `from`
    /// is finite and nonnegative.
    pub fn set_probe_schedule(&mut self, from: f64, every: f64) {
        assert!(
            every.is_finite() && every > 0.0,
            "probe interval must be positive, got {every}"
        );
        assert!(
            from.is_finite() && from >= 0.0,
            "probe start must be finite and nonnegative, got {from}"
        );
        self.probe_from = from;
        self.probe_every = Some(every);
        self.next_probe = 0;
    }

    /// Runs through `horizon`, consumes the simulation, and returns the
    /// recorded execution — the sharded counterpart of
    /// [`crate::Simulation::execute_until`].
    ///
    /// # Panics
    ///
    /// As [`crate::Simulation::execute_until`].
    #[must_use]
    pub fn execute_until(mut self, horizon: f64) -> Execution<M> {
        self.run_until(horizon);
        self.into_execution()
    }

    /// Non-panicking [`ShardedSimulation::execute_until`].
    ///
    /// # Errors
    ///
    /// As [`crate::Simulation::try_execute_until`]. On error the
    /// partially-advanced simulation is consumed; its state is not a
    /// coherent execution.
    pub fn try_execute_until(mut self, horizon: f64) -> Result<Execution<M>, SimError> {
        self.try_run_until(horizon)?;
        Ok(self.into_execution())
    }

    /// Advances through every event at time ≤ `horizon` without
    /// consuming the simulation; callable repeatedly with growing
    /// horizons.
    ///
    /// # Panics
    ///
    /// As [`crate::Simulation::execute_until`].
    pub fn run_until(&mut self, horizon: f64) {
        self.run_until_observed(horizon, &mut []);
    }

    /// Non-panicking [`ShardedSimulation::run_until`].
    ///
    /// # Errors
    ///
    /// As [`crate::Simulation::try_run_until`]; the simulation is
    /// poisoned on error.
    pub fn try_run_until(&mut self, horizon: f64) -> Result<(), SimError> {
        self.try_run_until_observed(horizon, &mut [])
    }

    /// [`ShardedSimulation::run_until`], streaming every dispatched
    /// event (at window barriers) and every due probe through
    /// `observers`.
    ///
    /// # Panics
    ///
    /// As [`crate::Simulation::execute_until`].
    pub fn run_until_observed(&mut self, horizon: f64, observers: &mut [&mut dyn Observer]) {
        self.try_run_until_observed(horizon, observers)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`ShardedSimulation::run_until_observed`].
    ///
    /// # Errors
    ///
    /// As [`crate::Simulation::try_run_until`]; the simulation is
    /// poisoned on error.
    pub fn try_run_until_observed(
        &mut self,
        horizon: f64,
        observers: &mut [&mut dyn Observer],
    ) -> Result<(), SimError> {
        if !horizon.is_finite() || horizon < 0.0 {
            return Err(SimError::InvalidHorizon { horizon });
        }
        self.ensure_started();
        loop {
            let t_min = self
                .shards
                .iter_mut()
                .filter_map(Shard::next_time)
                .min_by(f64::total_cmp);
            let Some(t_min) = t_min else { break };
            if t_min > horizon {
                break;
            }
            self.emit_probes(t_min, false, observers);
            // The first conservative window: every event strictly before
            // `t_min + L` is safe to dispatch in parallel. Computed with
            // the same float addition the arrival times use, so the
            // handoff assertion is exact (rounding is monotone).
            let first_window_end = t_min + self.lookahead;
            // The super-window budget: up to `window_mult` consecutive
            // windows run inside one thread scope. The budget only
            // decides when control returns to the coordinator — every
            // round inside is the exact `[t_min, t_min + L)` protocol.
            let mult = if self.adaptive { self.window_mult } else { 1 };
            let super_end = if self.lookahead.is_finite() {
                self.lookahead.mul_add(mult as f64, t_min)
            } else {
                f64::INFINITY
            };
            let rounds = self.run_super_window(first_window_end, super_end, horizon)?;
            self.finish_super_window(rounds, observers);
        }
        self.emit_probes(horizon, true, observers);
        self.ran_to = self.ran_to.max(horizon);
        Ok(())
    }

    /// Runs one super-window — `1..=window_mult` consecutive conservative
    /// windows — inside a single thread scope, returning the number of
    /// rounds completed. See the module docs for the three-barrier round
    /// protocol. On `Err` or a re-raised panic the simulation is
    /// poisoned, exactly like the per-window engine before it.
    #[allow(clippy::too_many_lines)]
    fn run_super_window(
        &mut self,
        first_window_end: f64,
        super_end: f64,
        horizon: f64,
    ) -> Result<u64, SimError> {
        let ctx = WindowCtx {
            topology: &self.topology,
            dynamic: self.dynamic.as_ref(),
            drop_on_link_down: self.drop_on_link_down,
            record_events: self.record_events,
            horizon,
            baseline_dispatched: self.dispatched,
            event_cap: self.event_cap,
        };
        let k = self.shards.len();
        let steal = self.steal;
        let lookahead = self.lookahead;
        let workers = if steal {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .clamp(1, k)
        } else {
            k
        };

        // Split the coordinator's per-node arrays into disjoint per-shard
        // mutable slices (the struct-of-arrays hot state) and pair each
        // with its shard as a claimable task.
        let mut tasks: Vec<Mutex<ShardTask<'_, M>>> = Vec::with_capacity(k);
        {
            let mut nodes: &mut [Box<dyn Node<M> + Send>] = &mut self.nodes;
            let mut trajs: &mut [PiecewiseLinear] = &mut self.trajectories;
            let mut neigh: &mut [Vec<NodeId>] = &mut self.neighbors;
            let mut timers: &mut [TimerId] = &mut self.next_timer;
            for shard in &mut self.shards {
                let len = shard.hi - shard.lo;
                let (a, rest_a) = nodes.split_at_mut(len);
                let (b, rest_b) = trajs.split_at_mut(len);
                let (c, rest_c) = neigh.split_at_mut(len);
                let (d, rest_d) = timers.split_at_mut(len);
                nodes = rest_a;
                trajs = rest_b;
                neigh = rest_c;
                timers = rest_d;
                tasks.push(Mutex::new(ShardTask {
                    shard,
                    nodes: a,
                    trajectories: b,
                    neighbors: c,
                    next_timer: d,
                }));
            }
        }
        let tasks = &tasks;
        let node_shard: &[u32] = &self.node_shard;
        let mailboxes: Vec<Mutex<Vec<Handoff<M>>>> =
            (0..k).map(|_| Mutex::new(Vec::new())).collect();
        let mailboxes = &mailboxes;
        let barrier = &Barrier::new(workers);
        let window_end_bits = &AtomicU64::new(first_window_end.to_bits());
        let stop = &AtomicBool::new(false);
        let claim_run = &AtomicUsize::new(0);
        let claim_drain = &AtomicUsize::new(0);
        let rounds = &AtomicU64::new(0);
        let errors: &Mutex<Vec<(usize, SimError)>> = &Mutex::new(Vec::new());
        type PanicPayload = Box<dyn std::any::Any + Send>;
        let first_panic: &Mutex<Option<(usize, PanicPayload)>> = &Mutex::new(None);

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let ctx = &ctx;
                scope.spawn(move || {
                    loop {
                        let window_end = f64::from_bits(window_end_bits.load(MemOrder::SeqCst));

                        // Phase 1: run windows, deposit cross-shard sends
                        // into destination mailboxes.
                        let mut done_own = false;
                        while let Some(i) = claim_shard(steal, claim_run, worker, k, &mut done_own)
                        {
                            let mut task = lock_unpoisoned(&tasks[i]);
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| -> Result<(), SimError> {
                                    task.run_window(ctx, window_end)?;
                                    for h in task.shard.outbox.drain(..) {
                                        assert!(
                                            h.arrival_time >= window_end,
                                            "conservative-window violation: cross-shard \
                                             arrival at {} before the window boundary \
                                             {window_end} ({} -> {}); the delay policy's \
                                             min_delay_bound() is wrong",
                                            h.arrival_time,
                                            h.from,
                                            h.to
                                        );
                                        lock_unpoisoned(&mailboxes[node_shard[h.to] as usize])
                                            .push(h);
                                    }
                                    Ok(())
                                }));
                            match outcome {
                                Ok(Ok(())) => {}
                                Ok(Err(e)) => lock_unpoisoned(errors).push((i, e)),
                                Err(payload) => {
                                    let mut slot = lock_unpoisoned(first_panic);
                                    if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                        *slot = Some((i, payload));
                                    }
                                }
                            }
                        }
                        barrier.wait();

                        // Phase 2: drain own mailbox into the shard queue.
                        // Sorting by a key unique per handoff keeps the
                        // tie-counter assignment independent of deposit
                        // order (which claiming makes nondeterministic);
                        // dispatch order never consults it, since tie
                        // keys are already unique among simultaneous
                        // events, but determinism is cheap.
                        let mut done_own = false;
                        while let Some(i) =
                            claim_shard(steal, claim_drain, worker, k, &mut done_own)
                        {
                            let mut task = lock_unpoisoned(&tasks[i]);
                            let mut inbox = std::mem::take(&mut *lock_unpoisoned(&mailboxes[i]));
                            let started = Instant::now();
                            let outcome = catch_unwind(AssertUnwindSafe(|| {
                                inbox.sort_by(|a, b| {
                                    a.arrival_time
                                        .total_cmp(&b.arrival_time)
                                        .then_with(|| a.from.cmp(&b.from))
                                        .then_with(|| a.to.cmp(&b.to))
                                        .then_with(|| a.seq.cmp(&b.seq))
                                });
                                for h in inbox {
                                    let tie = task.shard.bump_tie();
                                    task.shard.queue.push(ShardEvent {
                                        time: h.arrival_time,
                                        tie,
                                        node: h.to,
                                        hw: h.arrival_hw,
                                        kind: ShardEventKind::DeliverRemote {
                                            from: h.from,
                                            seq: h.seq,
                                            send_time: h.send_time,
                                            owner: h.owner,
                                            payload: h.payload,
                                        },
                                    });
                                }
                            }));
                            add_elapsed(&mut task.shard.counters.drain_ns, Some(started));
                            if let Err(payload) = outcome {
                                let mut slot = lock_unpoisoned(first_panic);
                                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                    *slot = Some((i, payload));
                                }
                            }
                        }

                        // Phase 3: one leader decides continue-vs-stop and
                        // publishes the next window while everyone else
                        // holds at the closing barrier.
                        if barrier.wait().is_leader() {
                            rounds.fetch_add(1, MemOrder::SeqCst);
                            let failed = !lock_unpoisoned(errors).is_empty()
                                || lock_unpoisoned(first_panic).is_some();
                            let mut super_events = 0u64;
                            let mut next_t: Option<f64> = None;
                            for task in tasks {
                                let mut task = lock_unpoisoned(task);
                                super_events += task.shard.window_dispatched;
                                if let Some(t) = task.shard.next_time() {
                                    next_t = Some(match next_t {
                                        Some(c) if c.total_cmp(&t).is_le() => c,
                                        _ => t,
                                    });
                                }
                            }
                            let proceed = !failed
                                && super_events < ADAPTIVE_BATCH_CAP
                                && next_t.is_some_and(|t| t <= horizon && t < super_end);
                            if proceed {
                                let t = next_t.expect("proceed implies a next event");
                                window_end_bits.store((t + lookahead).to_bits(), MemOrder::SeqCst);
                                claim_run.store(0, MemOrder::SeqCst);
                                claim_drain.store(0, MemOrder::SeqCst);
                            } else {
                                stop.store(true, MemOrder::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(MemOrder::SeqCst) {
                            return;
                        }
                    }
                });
            }
        });

        if let Some((_, payload)) = lock_unpoisoned(first_panic).take() {
            resume_unwind(payload);
        }
        let mut failures = std::mem::take(&mut *lock_unpoisoned(errors));
        if !failures.is_empty() {
            // First error in shard order, so failures are deterministic.
            failures.sort_by_key(|(i, _)| *i);
            return Err(failures.remove(0).1);
        }
        debug_assert!(
            mailboxes.iter().all(|m| lock_unpoisoned(m).is_empty()),
            "every deposited handoff must be drained in its round"
        );
        Ok(rounds.load(MemOrder::SeqCst))
    }

    /// The super-window barrier work: foreign status write-backs, event
    /// merge, observer replay, and the adaptive-multiplier update.
    fn finish_super_window(&mut self, rounds: u64, observers: &mut [&mut dyn Observer]) {
        let started = Instant::now();
        let probe_ns_before = self.probe_ns;
        // 1. Foreign-owned message status write-backs. Deferring these to
        // the super-window boundary is safe: nothing reads a message's
        // status before finalization, and a foreign-owned slot is only
        // recycled *by* this write-back, so it cannot be reused early.
        let mut updates: Vec<StatusUpdate> = Vec::new();
        for shard in &mut self.shards {
            updates.append(&mut shard.status_updates);
        }
        for (owner, slot, delivered) in updates {
            let shard = &mut self.shards[owner];
            let m = &mut shard.messages[slot];
            if delivered {
                m.status = MessageStatus::Delivered;
            } else {
                m.status = MessageStatus::Dropped;
                m.arrival_time = None;
                m.arrival_hw = None;
            }
            if !self.record_events {
                shard.free_slots.push(slot);
            }
        }

        // 2. Merge the super-window's event records by the canonical
        // order and replay them through the observers with probes
        // interleaved. Rounds cover disjoint ascending time ranges, so
        // one global sort equals the per-window sorts concatenated, and
        // probe/event views evaluated after the scope are exact because
        // trajectory and clock queries are past-stable.
        let mut merged: Vec<EventRecord> = Vec::new();
        let mut window_total = 0u64;
        for shard in &mut self.shards {
            window_total += shard.window_dispatched;
            shard.window_dispatched = 0;
            merged.append(&mut shard.window_events);
        }
        self.dispatched += window_total;
        merged.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then_with(|| a.kind.tie_key(a.node).cmp(&b.kind.tie_key(b.node)))
        });
        for record in merged {
            self.emit_probes(record.time, false, observers);
            if !observers.is_empty() {
                let view = Probe::new(
                    record.time,
                    &self.topology,
                    self.clock.as_ref(),
                    &self.trajectories,
                );
                for obs in observers.iter_mut() {
                    obs.on_event(&view, &record);
                }
            }
            self.ran_to = self.ran_to.max(record.time);
            if self.record_events {
                self.events.push(record);
            }
        }

        // 3. Adapt the super-window multiplier to the observed density.
        if self.adaptive && self.lookahead.is_finite() && self.shards.len() > 1 {
            if window_total >= ADAPTIVE_BATCH_CAP {
                self.window_mult = (self.window_mult / 2).max(1);
            } else if window_total < ADAPTIVE_DENSITY.saturating_mul(rounds) {
                self.window_mult = (self.window_mult * 2).min(ADAPTIVE_MAX_MULT);
            }
        }
        // Probes fired between merged records are `probe_ns`, not this.
        add_elapsed(&mut self.finish_ns, Some(started));
        self.finish_ns = self
            .finish_ns
            .saturating_sub(self.probe_ns - probe_ns_before);
    }

    /// Fires every probe due at or before `limit` (strictly before
    /// unless `inclusive`), compacting behind the frontier in streaming
    /// mode — identical semantics to the single-heap engine.
    fn emit_probes(&mut self, limit: f64, inclusive: bool, observers: &mut [&mut dyn Observer]) {
        let Some(every) = self.probe_every else {
            return;
        };
        // Called once per merged record: read the clock only when a probe
        // is due.
        let mut started = None;
        loop {
            let t = self.probe_from + (self.next_probe as f64) * every;
            let due = if inclusive { t <= limit } else { t < limit };
            if !due {
                break;
            }
            started.get_or_insert_with(Instant::now);
            self.next_probe += 1;
            if !self.record_events {
                for (i, traj) in self.trajectories.iter_mut().enumerate() {
                    traj.compact_before(self.clock.value_at(i, t));
                }
                self.clock.compact_before(t);
            }
            let view = Probe::new(t, &self.topology, self.clock.as_ref(), &self.trajectories);
            for obs in observers.iter_mut() {
                obs.on_probe(&view);
            }
        }
        add_elapsed(&mut self.probe_ns, started);
    }

    /// Enqueues start events and (in dynamic mode) the churn timeline
    /// into each node's owning shard. Idempotent.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.topology.len() {
            let shard = &mut self.shards[self.node_shard[node] as usize];
            let tie = shard.bump_tie();
            shard.queue.push(ShardEvent {
                time: 0.0,
                tie,
                node,
                hw: 0.0,
                kind: ShardEventKind::Start,
            });
        }
        if let Some(view) = &self.dynamic {
            let mut pending = Vec::new();
            for change in view.edge_changes() {
                for (node, peer) in [(change.a, change.b), (change.b, change.a)] {
                    pending.push((change.time, node, peer, change.up));
                }
            }
            for (time, node, peer, up) in pending {
                let shard = &mut self.shards[self.node_shard[node] as usize];
                let tie = shard.bump_tie();
                shard.queue.push(ShardEvent {
                    time,
                    tie,
                    node,
                    hw: f64::NAN,
                    kind: ShardEventKind::TopoChange { peer, up },
                });
            }
        }
    }

    /// Finalizes the run into the recorded [`Execution`] — bit-identical
    /// to [`crate::Simulation::into_execution`] on the same scenario.
    #[must_use]
    pub fn into_execution(mut self) -> Execution<M> {
        let horizon = self.ran_to;
        // Merge the per-shard message logs back into the single-heap
        // engine's append order.
        let mut tagged: Vec<(MsgKey, MessageRecord<M>)> = Vec::new();
        if self.record_events {
            for shard in &mut self.shards {
                let keys = std::mem::take(&mut shard.msg_keys);
                let records = std::mem::take(&mut shard.messages);
                tagged.extend(keys.into_iter().zip(records));
            }
            tagged.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let mut messages: Vec<MessageRecord<M>> = tagged.into_iter().map(|(_, m)| m).collect();

        if let Some(view) = &self.dynamic {
            if self.drop_on_link_down {
                for m in &mut messages {
                    if m.status != MessageStatus::InFlight {
                        continue;
                    }
                    let Some(arrival) = m.arrival_time else {
                        continue;
                    };
                    if view.link_interrupted(m.from, m.to, m.send_time, arrival.min(horizon)) {
                        m.status = MessageStatus::Dropped;
                        m.arrival_time = None;
                        m.arrival_hw = None;
                    }
                }
            }
        }

        let schedules = self.clock.materialize_prefix(horizon);
        Execution::new(
            self.topology,
            schedules,
            horizon,
            self.events,
            messages,
            self.trajectories,
            self.dynamic,
        )
        .with_drop_in_flight(self.drop_on_link_down)
    }
}
