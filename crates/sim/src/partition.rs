//! The dispatch core of the engine.
//!
//! A [`Partition`] owns a member set of nodes, ascending by id, which
//! [`crate::placement`] assigns: their node states, live neighbour lists
//! and timer counters, its pending events ([`EventQueue`]: a heap of those
//! the current run call can reach, an unsorted list of the rest), a clock
//! source and a delay policy, the per-pair sequence numbers, the message slab,
//! and the drop and peak counters.
//! A [`crate::Simulation`] holds one partition per shard: one runs inline,
//! several run the window protocol ([`crate::shard`]). A [`Frame`] holds
//! what the engine keeps beside its partitions: the network, the
//! placement, every node's logical trajectory in partition-major order
//! (probe views read them all at once through the position map, and each
//! partition borrows its contiguous slice), the event log, the probe grid
//! and the tracer. Per-node state inside a partition is indexed by the
//! node's position less the partition's first position.
//!
//! A message in flight holds one queued delivery and a slot in its
//! receiver's slab, in both modes: an [`InFlight`], the send time and the
//! payload, all a delivery reads. The local sends of one broadcast
//! ([`Context::send_to_neighbors`]) share one slot, which counts their
//! pending deliveries and is freed when the last one settles. Recording
//! appends a [`MessageRecord`] with its own copy of the payload at send,
//! and nothing reads the log before [`Frame::finish`] settles every
//! status by one rule. The hardware reading at arrival is part of the log,
//! taken at send; a streaming delivery of a delay draw queues a
//! placeholder and reads the receiver's clock when it is dispatched, so a
//! message dropped in flight or still in flight at the end never reads it.
//!
//! The engine instantiates the partition with `Send` boxes ([`Part`]), so
//! that several partitions can move onto worker threads. The per-event
//! paths are `#[inline]`: the engine calls them from other modules, and
//! without the hint a 4096-node ring ran about 10 percent slower per
//! event on one partition.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::time::Instant;

use gcs_clocks::{ClockSource, PiecewiseLinear};
use gcs_dynamic::DynamicTopology;
use gcs_net::{DelayOutcome, DelayPolicy, Topology};

use crate::engine::SimError;
use crate::event::{EventKind, EventRecord, MessageRecord, MessageStatus};
use crate::execution::Execution;
use crate::node::{Actions, Context, Node, Outgoing};
use crate::observer::{Observer, Probe};
use crate::placement::Placement;
use crate::send_seq::SendSeq;
use crate::shard::{add_elapsed, ShardCounters};
use crate::trace::{DropReason, TraceEvent, Tracer};
use crate::{NodeId, TimerId};

/// The partition the engine runs: `Send` boxes, so that it can move onto
/// a worker thread.
pub(crate) type Part<M> =
    Partition<M, Box<dyn Node<M> + Send>, dyn ClockSource + Send, dyn DelayPolicy + Send>;

/// A queued (not yet dispatched) event, packed into 40 bytes by
/// [`Queued::new`] and unpacked by [`Queued::kind`].
///
/// Deliveries carry a slab index instead of the payload, so the queue
/// needs no message type parameter. No two pending events share `(time,
/// EventKind::tie_key)`: a node starts once, `seq` is unique per directed
/// pair, timer ids are unique per node, and a dynamic topology emits at
/// most one change per pair per instant. That key alone orders the queue.
pub(crate) struct Queued {
    pub(crate) time: f64,
    /// The node's hardware reading at `time`, or NaN for a placeholder
    /// that dispatch resolves.
    hw: f64,
    /// `seq`, the timer id, or `up`.
    wide: u64,
    node: u32,
    /// `from` or `peer`.
    a: u32,
    slot: u32,
    /// The [`EventKind::tie_key`] rank.
    tag: u8,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum QueuedKind {
    Start,
    /// A message, local or handed off: `slot` indexes the in-flight slab.
    Deliver {
        from: NodeId,
        seq: u64,
        slot: usize,
    },
    Timer {
        id: TimerId,
    },
    TopoChange {
        peer: NodeId,
        up: bool,
    },
}

impl QueuedKind {
    /// The [`EventKind`] this queued event is recorded as.
    fn record_kind(self) -> EventKind {
        match self {
            QueuedKind::Start => EventKind::Start,
            QueuedKind::Deliver { from, seq, .. } => EventKind::Deliver { from, seq },
            QueuedKind::Timer { id } => EventKind::Timer { id },
            QueuedKind::TopoChange { peer, up } => EventKind::TopologyChange { peer, up },
        }
    }
}

/// `value` as a `u32` queue field; panics, naming the value, if it does not fit.
fn narrow(value: usize, what: &str) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("{what} {value} exceeds u32::MAX"))
}

impl Queued {
    #[inline]
    pub(crate) fn new(time: f64, node: NodeId, hw: f64, kind: QueuedKind) -> Self {
        let (tag, a, wide, slot) = match kind {
            QueuedKind::Start => (0, 0, 0, 0),
            QueuedKind::Deliver { from, seq, slot } => (1, from, seq, slot),
            QueuedKind::Timer { id } => (2, 0, id, 0),
            QueuedKind::TopoChange { peer, up } => (3, peer, u64::from(up), 0),
        };
        Self {
            time,
            hw,
            wide,
            node: narrow(node, "node id"),
            a: narrow(a, "node id"),
            slot: narrow(slot, "message slot"),
            tag,
        }
    }

    #[inline]
    pub(crate) fn kind(&self) -> QueuedKind {
        let (from, seq, slot) = (self.a as NodeId, self.wide, self.slot as usize);
        let up = seq != 0;
        match self.tag {
            0 => QueuedKind::Start,
            1 => QueuedKind::Deliver { from, seq, slot },
            2 => QueuedKind::Timer { id: seq },
            _ => QueuedKind::TopoChange { peer: from, up },
        }
    }

    /// The canonical key, read in place: it ranks events exactly as
    /// [`EventKind::tie_key`], the one definition shared with the retiming
    /// engine, does (a timer's `(0, id)` as `(id, 0)`). Unlike insertion
    /// order it survives a re-timing and ignores the partition, so replays
    /// match their predictions and every shard count dispatches alike.
    #[inline]
    fn key(&self) -> (u32, u8, u32, u64) {
        (self.node, self.tag, self.a, self.wide)
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        // Event times are validated finite before they enter the queue,
        // but the ordering stays total anyway (IEEE total order as the
        // fallback): a stray NaN must surface as a typed error at its
        // source, never as a corrupted heap invariant here.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or_else(|| other.time.total_cmp(&self.time))
            .then_with(|| other.key().cmp(&self.key()))
    }
}

/// A partition's pending events in two tiers split at the current run
/// call's horizon: a heap of those at or before `split`, which the call can
/// reach, and the rest unsorted in `far`, earliest at `far_min`. Every
/// `near` event precedes every `far` one and `(time, tie_key)` is a total
/// order, so pops match one heap over both, yet sift only `near`.
pub(crate) struct EventQueue {
    near: BinaryHeap<Queued>,
    far: Vec<Queued>,
    split: f64,
    far_min: f64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self {
            near: BinaryHeap::new(),
            far: Vec::new(),
            split: f64::NEG_INFINITY,
            far_min: f64::INFINITY,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: Queued) {
        debug_assert!(!ev.time.is_nan(), "a NaN event time reached the queue");
        // IEEE `<=`: -0.0 and 0.0 tie in the heap, so they share a tier.
        if ev.time <= self.split {
            self.near.push(ev);
        } else {
            self.far_min = self.far_min.min(ev.time);
            self.far.push(ev);
        }
    }

    /// Raises the split to `limit` (never lowers it), moving the far events now due into the heap.
    pub(crate) fn admit(&mut self, limit: f64) {
        if limit <= self.split {
            return;
        }
        self.split = limit;
        if self.far_min > limit {
            return;
        }
        let (mut i, mut far_min) = (0, f64::INFINITY);
        while let Some(ev) = self.far.get(i) {
            if ev.time <= limit {
                self.near.push(self.far.swap_remove(i));
            } else {
                far_min = far_min.min(ev.time);
                i += 1;
            }
        }
        self.far_min = far_min;
    }

    /// Time of the next pending event.
    #[inline]
    pub(crate) fn next_time(&self) -> Option<f64> {
        match self.near.peek() {
            Some(ev) => Some(ev.time),
            None => (!self.far.is_empty()).then_some(self.far_min),
        }
    }

    /// The earliest event. With the heap empty it admits the far tier's
    /// earliest time first, so order never depends on a caller's `admit`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Queued> {
        if self.near.is_empty() && !self.far.is_empty() {
            self.admit(self.far_min);
        }
        self.near.pop()
    }
}

/// The dispatch order of recorded events: time, then the canonical key.
pub(crate) fn canonical_order(a: &EventRecord, b: &EventRecord) -> Ordering {
    a.time
        .total_cmp(&b.time)
        .then_with(|| a.kind.tie_key(a.node).cmp(&b.kind.tie_key(b.node)))
}

/// What a delivery reads of its message.
pub(crate) struct InFlight<M> {
    send_time: f64,
    payload: M,
}

/// A message crossing from its sender's partition to its receiver's.
pub(crate) struct Handoff<M> {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) seq: u64,
    send_time: f64,
    pub(crate) arrival_time: f64,
    /// NaN when streaming a delay draw, as in [`Queued`].
    arrival_hw: f64,
    payload: M,
}

/// The shared slot of a broadcast none of whose sends has parked yet.
const NO_SLOT: usize = usize::MAX;

/// Merge key reproducing one partition's message-log append order:
/// sends are appended per dispatched event (events are totally ordered by
/// `(time, tie_key)`), in action order within one event.
#[derive(Clone, Copy)]
pub(crate) struct MsgKey {
    send_time: f64,
    sender_key: (NodeId, u8, u64, u64),
    action_index: usize,
}

impl MsgKey {
    pub(crate) fn cmp(&self, other: &Self) -> Ordering {
        self.send_time
            .total_cmp(&other.send_time)
            .then_with(|| self.sender_key.cmp(&other.sender_key))
            .then_with(|| self.action_index.cmp(&other.action_index))
    }
}

/// Why a dispatch stopped short of returning a record.
pub(crate) enum Halt {
    /// The event that would have exceeded the event cap, not dispatched.
    Cap(EventRecord),
    /// A non-finite delay or timer target.
    Error(SimError),
}

/// The event-cap panic, raised where one partition raises it: at the
/// first event past the cap, in dispatch order.
pub(crate) fn cap_exceeded(cap: u64, time: f64) -> ! {
    panic!(
        "event cap of {cap} exceeded at t = {time}; the algorithm may be \
         generating an unbounded message storm"
    )
}

/// The read-only network a dispatch runs against.
pub(crate) struct Env<'a> {
    topology: &'a Topology,
    pub(crate) placement: &'a Placement,
    /// The churn view, when in-flight messages drop on link outages.
    outages: Option<&'a DynamicTopology>,
    pub(crate) record_events: bool,
}

/// What the engine keeps beside its partitions.
pub(crate) struct Frame {
    pub(crate) topology: Topology,
    pub(crate) dynamic: Option<DynamicTopology>,
    pub(crate) drop_on_link_down: bool,
    /// Which partition owns which node, and where its state sits.
    pub(crate) placement: Placement,
    /// Every node's logical trajectory, in partition-major order.
    pub(crate) trajectories: Vec<PiecewiseLinear>,
    pub(crate) events: Vec<EventRecord>,
    pub(crate) event_cap: u64,
    pub(crate) record_events: bool,
    started: bool,
    /// The time the run has been driven to: the max run horizon
    /// and the latest dispatched event time. This becomes the horizon of
    /// the final [`Execution`].
    pub(crate) ran_to: f64,
    probe_from: f64,
    pub(crate) probe_every: Option<f64>,
    /// Index of the next probe: probe `k` fires at `probe_from + k · every`.
    next_probe: u64,
    /// Wall-clock nanoseconds firing probes.
    pub(crate) probe_ns: u64,
    /// High-water mark of the trajectory breakpoints, sampled at probes.
    pub(crate) peak_breakpoints: usize,
    /// Structured trace sink (see [`crate::trace`]); `None` costs one
    /// branch per event.
    pub(crate) tracer: Option<Box<dyn Tracer>>,
}

impl Frame {
    pub(crate) fn new(
        placement: Placement,
        topology: Topology,
        dynamic: Option<DynamicTopology>,
        drop_on_link_down: bool,
        event_cap: u64,
        record_events: bool,
    ) -> Self {
        Self {
            placement,
            trajectories: (0..topology.len())
                .map(|_| PiecewiseLinear::new(0.0, 0.0, 1.0))
                .collect(),
            topology,
            dynamic,
            drop_on_link_down,
            events: Vec::new(),
            event_cap,
            record_events,
            started: false,
            ran_to: 0.0,
            probe_from: 0.0,
            probe_every: None,
            next_probe: 0,
            probe_ns: 0,
            peak_breakpoints: 0,
            tracer: None,
        }
    }

    /// The dispatch environment, beside the trajectories and the tracer it
    /// lends out.
    #[inline]
    pub(crate) fn split(
        &mut self,
    ) -> (
        Env<'_>,
        &mut [PiecewiseLinear],
        Option<&mut (dyn Tracer + 'static)>,
    ) {
        let env = Env {
            topology: &self.topology,
            placement: &self.placement,
            outages: self.dynamic.as_ref().filter(|_| self.drop_on_link_down),
            record_events: self.record_events,
        };
        (env, &mut self.trajectories, self.tracer.as_deref_mut())
    }

    /// `true` exactly once: on the first call, when the initial events
    /// are due to be enqueued.
    pub(crate) fn start(&mut self) -> bool {
        !std::mem::replace(&mut self.started, true)
    }

    /// The events every run begins with, in enqueue order: a start per
    /// node, then both endpoints of every scheduled link change. All
    /// changes are enqueued up front (changes beyond wherever the run
    /// stops simply never dispatch); their hardware reading is resolved
    /// at dispatch, so enqueuing the whole churn timeline does not force a
    /// lazy clock source to materialize its walk out to the last change.
    pub(crate) fn initial_events(
        &self,
    ) -> impl Iterator<Item = (f64, NodeId, f64, QueuedKind)> + '_ {
        let starts = (0..self.topology.len()).map(|node| (0.0, node, 0.0, QueuedKind::Start));
        let changes = self.dynamic.iter().flat_map(|view| {
            view.edge_changes().iter().flat_map(|c| {
                let change = |peer| QueuedKind::TopoChange { peer, up: c.up };
                [(c.a, c.b), (c.b, c.a)].map(|(node, peer)| (c.time, node, f64::NAN, change(peer)))
            })
        });
        starts.chain(changes)
    }

    /// Configures the probe grid — see
    /// [`crate::Simulation::set_probe_schedule`].
    pub(crate) fn set_probe_schedule(&mut self, from: f64, every: f64) {
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

    /// Fires every probe due at or before `limit` (strictly before unless
    /// `inclusive`): trace it, sample the breakpoint high-water mark, and
    /// hand the view to `observers`. A streaming run first compacts
    /// trajectories and the clock behind the probe: nothing can query
    /// earlier state afterwards.
    #[inline]
    pub(crate) fn emit_probes(
        &mut self,
        limit: f64,
        inclusive: bool,
        clock: &dyn ClockSource,
        observers: &mut [&mut dyn Observer],
    ) {
        // Called once per event: read the wall clock only when a probe is
        // due.
        let mut started = None;
        while let Some(every) = self.probe_every {
            let t = self.probe_from + (self.next_probe as f64) * every;
            let due = if inclusive { t <= limit } else { t < limit };
            if !due {
                break;
            }
            started.get_or_insert_with(Instant::now);
            if let Some(tr) = &mut self.tracer {
                tr.record(&TraceEvent::ProbeFired {
                    time: t,
                    index: self.next_probe,
                });
            }
            self.next_probe += 1;
            // Before compaction, so the mark is the worst case a streaming
            // run held between probes.
            self.peak_breakpoints = self.peak_breakpoints.max(self.breakpoints());
            if !self.record_events {
                for node in 0..self.topology.len() {
                    let at = self.placement.position(node);
                    self.trajectories[at].compact_before(clock.value_at(node, t));
                }
                // A windowing clock source drops schedule segments behind
                // the frontier too (no-op for eager sources).
                clock.compact_before(t);
            }
            let view = Probe::new(
                t,
                &self.topology,
                clock,
                &self.trajectories,
                self.placement.positions(),
            );
            for obs in observers.iter_mut() {
                obs.on_probe(&view);
            }
        }
        add_elapsed(&mut self.probe_ns, started);
    }

    /// Hands a dispatched event to `observers`, then keeps its record when
    /// recording.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        record: &EventRecord,
        clock: &dyn ClockSource,
        observers: &mut [&mut dyn Observer],
    ) {
        if !observers.is_empty() {
            let view = Probe::new(
                record.time,
                &self.topology,
                clock,
                &self.trajectories,
                self.placement.positions(),
            );
            for obs in observers.iter_mut() {
                obs.on_event(&view, record);
            }
        }
        if self.record_events {
            self.events.push(record.clone());
        }
    }

    /// Total logical-trajectory breakpoints currently held.
    pub(crate) fn breakpoints(&self) -> usize {
        self.trajectories
            .iter()
            .map(|t| t.breakpoints().len())
            .sum()
    }

    /// Finalizes the run into its [`Execution`], settling every logged
    /// message that has an arrival by one rule, the one dispatch applies:
    /// with in-flight drops on, a message whose *tracked* link is
    /// interrupted over `[send, min(arrival, horizon)]` is dropped and
    /// loses its arrival; otherwise it is delivered if it arrives at or
    /// before the horizon and stays in flight if after. Only churn at or
    /// before the horizon counts: a link failing beyond the simulated
    /// window must not leak post-horizon information into the record.
    pub(crate) fn finish<M>(
        mut self,
        mut messages: Vec<MessageRecord<M>>,
        clock: &dyn ClockSource,
    ) -> Execution<M> {
        let horizon = self.ran_to;
        let outages = self.dynamic.as_ref().filter(|_| self.drop_on_link_down);
        for m in &mut messages {
            let Some(arrival) = m.arrival_time else {
                continue;
            };
            if outages.is_some_and(|v| {
                v.link_interrupted(m.from, m.to, m.send_time, arrival.min(horizon))
            }) {
                m.status = MessageStatus::Dropped;
                m.arrival_time = None;
                m.arrival_hw = None;
            } else if arrival <= horizon {
                m.status = MessageStatus::Delivered;
            }
        }
        // Materialize the clock prefix the run touched: eager sources
        // return their schedule vector unchanged; lazy sources regenerate
        // `[0, horizon]` from the seed, bit-identical to the eager
        // construction of the same walk.
        let schedules = clock.materialize_prefix(horizon);
        self.placement.restore_id_order(&mut self.trajectories);
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

/// One partition: a member set, its queue, its clock and delay handles,
/// and everything a dispatch in it writes. See the module docs.
pub(crate) struct Partition<M, N, C: ?Sized, D: ?Sized> {
    /// The positions of the owned members ([`Placement::span`]).
    pub(crate) span: Range<usize>,
    /// Member states, by position less `span.start`.
    pub(crate) nodes: Vec<N>,
    neighbors: Vec<Vec<NodeId>>,
    next_timer: Vec<TimerId>,
    pub(crate) queue: EventQueue,
    pub(crate) clock: Box<C>,
    delay: Box<D>,
    send_seq: SendSeq,
    /// The message log, appended to only when recording and read only by
    /// [`Frame::finish`].
    pub(crate) messages: Vec<MessageRecord<M>>,
    /// Merge keys, parallel to `messages`: kept only when recording with
    /// more than one partition.
    pub(crate) msg_keys: Option<Vec<MsgKey>>,
    /// Messages in flight to the members, the deliveries each slot still
    /// owes (several for a broadcast), and the free slots: a slot whose
    /// last delivery settled is reused by a later message, bounding the
    /// slab by the peak in-flight count.
    in_flight: Vec<InFlight<M>>,
    pending: Vec<u32>,
    free_in_flight: Vec<usize>,
    /// Long-lived send/timer buffers reused across dispatches.
    actions: Actions<M>,
    /// Cross-partition sends, drained at the window barrier.
    pub(crate) outbox: Vec<Handoff<M>>,
    /// Records of the events dispatched this super-window (more than one
    /// partition only).
    pub(crate) window_events: Vec<EventRecord>,
    /// The event a window stopped at because the cap was reached.
    pub(crate) overrun: Option<EventRecord>,
    pub(crate) dispatched: u64,
    pub(crate) dropped_loss: u64,
    pub(crate) dropped_link_down: u64,
    pub(crate) peak_queued_events: usize,
    /// Messages in the slab's slots, and their high-water mark.
    live_messages: usize,
    peak_messages: usize,
    /// Windows, events and busy time, brought up to date as each window
    /// ends.
    pub(crate) counters: ShardCounters,
}

impl<M, N, C: ?Sized, D: ?Sized> Partition<M, N, C, D> {
    /// Partition `index` of the frame's placement, with `nodes` for
    /// exactly its members, ascending by id.
    pub(crate) fn new(
        index: usize,
        nodes: Vec<N>,
        frame: &Frame,
        clock: Box<C>,
        delay: Box<D>,
    ) -> Self {
        let span = frame.placement.span(index);
        // Only a partition short of some nodes has others beside it.
        let keyed = frame.record_events && span.len() < frame.topology.len();
        assert_eq!(nodes.len(), span.len(), "one node state per member");
        // The live neighbor sets start from the view's graph at time zero
        // and follow TopoChange events as they dispatch.
        let neighbors = frame
            .placement
            .members(index)
            .map(|i| match &frame.dynamic {
                Some(view) => view.neighbors_at(i, 0.0),
                None => frame.topology.neighbors(i),
            })
            .collect();
        Self {
            nodes,
            neighbors,
            next_timer: vec![0; span.len()],
            queue: EventQueue::new(),
            clock,
            delay,
            send_seq: SendSeq::new(span.len()),
            span,
            messages: Vec::new(),
            msg_keys: keyed.then(Vec::new),
            in_flight: Vec::new(),
            pending: Vec::new(),
            free_in_flight: Vec::new(),
            actions: Actions::default(),
            outbox: Vec::new(),
            window_events: Vec::new(),
            overrun: None,
            dispatched: 0,
            dropped_loss: 0,
            dropped_link_down: 0,
            peak_queued_events: 0,
            live_messages: 0,
            peak_messages: 0,
            counters: ShardCounters::default(),
        }
    }

    /// Enqueues an event, maintaining the queue-depth high-water mark.
    #[inline]
    pub(crate) fn push(&mut self, time: f64, node: NodeId, hw: f64, kind: QueuedKind) {
        self.queue.push(Queued::new(time, node, hw, kind));
        self.peak_queued_events = self.peak_queued_events.max(self.queue.len());
    }

    /// Stores a message for its delivery and returns its slot. The sends
    /// of one broadcast pass one `shared` slot, [`NO_SLOT`] until the first
    /// of them parks: the others add a delivery to that slot and drop their
    /// copy of the payload.
    #[inline]
    fn park(&mut self, send_time: f64, payload: M, shared: &mut usize) -> usize {
        self.live_messages += 1;
        self.peak_messages = self.peak_messages.max(self.live_messages);
        if *shared != NO_SLOT {
            self.pending[*shared] += 1;
            return *shared;
        }
        let item = InFlight { send_time, payload };
        let slot = match self.free_in_flight.pop() {
            Some(slot) => {
                self.in_flight[slot] = item;
                self.pending[slot] = 1;
                slot
            }
            None => {
                self.in_flight.push(item);
                self.pending.push(1);
                self.in_flight.len() - 1
            }
        };
        *shared = slot;
        slot
    }

    /// Parks a message from another partition and queues its delivery.
    pub(crate) fn accept(&mut self, h: Handoff<M>) {
        let mut unshared = NO_SLOT;
        let slot = self.park(h.send_time, h.payload, &mut unshared);
        let kind = QueuedKind::Deliver {
            from: h.from,
            seq: h.seq,
            slot,
        };
        self.push(h.arrival_time, h.to, h.arrival_hw, kind);
    }

    /// Message slots `(allocated, free, peak occupied)`: the log's when
    /// recording. When streaming they count messages, not shared slots:
    /// `(peak, peak − live, peak)` in flight, what a slab of one slot per
    /// message would hold.
    pub(crate) fn message_slots(&self, record_events: bool) -> (usize, usize, usize) {
        if record_events {
            (self.messages.len(), 0, self.messages.len())
        } else {
            let peak = self.peak_messages;
            (peak, peak - self.live_messages, peak)
        }
    }

    /// Settles one delivery of the message in `slot`, freeing the slot at
    /// its last.
    #[inline]
    fn settle_delivery(&mut self, slot: usize) {
        self.live_messages -= 1;
        let pending = &mut self.pending[slot];
        *pending -= 1;
        if *pending == 0 {
            self.free_in_flight.push(slot);
        }
    }
}

impl<M, N, C, D> Partition<M, N, C, D>
where
    M: Clone,
    N: Node<M>,
    C: ClockSource + ?Sized,
    D: DelayPolicy + ?Sized,
{
    /// Dispatches one popped event and returns its record, or `Ok(None)`
    /// when it was a delivery whose tracked link went down while the
    /// message was in flight (the message is dropped and no callback
    /// runs). The partition may have dispatched at most `cap` events
    /// afterwards; the event that would pass it comes back as
    /// [`Halt::Cap`]. A non-finite delay or timer target produced by the
    /// callback's actions is a typed error.
    ///
    /// Both dispatch loops, the inline one and the window one, inline this
    /// call and [`Partition::try_send_message`]: with two callers a plain
    /// `#[inline]` left them out of line, a call per event that the
    /// window loop did not make before it had a second caller.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    pub(crate) fn dispatch(
        &mut self,
        ev: Queued,
        env: &Env<'_>,
        trajectories: &mut [PiecewiseLinear],
        cap: u64,
        mut tracer: Option<&mut (dyn Tracer + 'static)>,
    ) -> Result<Option<EventRecord>, Halt> {
        let (time, node, hw, kind) = (ev.time, ev.node as NodeId, ev.hw, ev.kind());
        let local = env.placement.position(node) - self.span.start;
        // In dynamic mode a message only crosses a *tracked* link that
        // stays up from send to arrival; the churn timeline is known in
        // advance, so the drop resolves deterministically the instant the
        // delivery comes due. Untracked pairs (direct sends outside the
        // communication graph, e.g. tree-sync probes to a distant source)
        // keep the static always-deliver semantics.
        if let (Some(view), QueuedKind::Deliver { from, seq, slot }) = (env.outages, kind) {
            let sent = self.in_flight[slot].send_time;
            if view.link_interrupted(from, node, sent, time) {
                self.settle_delivery(slot);
                self.dropped_link_down += 1;
                if let Some(tr) = tracer {
                    tr.record(&TraceEvent::Drop {
                        time,
                        from,
                        to: node,
                        seq,
                        send_time: sent,
                        reason: DropReason::LinkDown,
                    });
                }
                return Ok(None);
            }
        }
        // Topology changes and streamed delay draws enqueue with a
        // placeholder reading; resolve it now that the event dispatches.
        let hw = if hw.is_nan() {
            self.clock.value_at(node, time)
        } else {
            hw
        };

        let record = EventRecord {
            time,
            node,
            hw,
            kind: kind.record_kind(),
        };
        if self.dispatched >= cap {
            return Err(Halt::Cap(record));
        }
        self.dispatched += 1;

        // Topology changes mutate the live neighbor set before the node's
        // callback runs, so `Context::neighbors` reflects the new graph.
        if let QueuedKind::TopoChange { peer, up } = kind {
            let list = &mut self.neighbors[local];
            match (list.binary_search(&peer), up) {
                (Err(pos), true) => list.insert(pos, peer),
                (Ok(pos), false) => {
                    list.remove(pos);
                }
                _ => {}
            }
        }

        // A slot freed here is reused only by the sends drained after the
        // callback, so its payload and send time stay intact until then.
        if let QueuedKind::Deliver { slot, .. } = kind {
            self.settle_delivery(slot);
        }

        // The action buffers are moved out for the duration of the
        // callback and moved back — drained, capacity intact — afterwards.
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx = Context::new(
                node,
                env.topology.len(),
                hw,
                &self.neighbors[local],
                env.topology,
                &mut trajectories[local],
                &mut self.next_timer[local],
                &mut actions,
            );
            let target = &mut self.nodes[local];
            match kind {
                QueuedKind::Start => target.on_start(&mut ctx),
                QueuedKind::Deliver { from, slot, .. } => {
                    target.on_message(&mut ctx, from, &self.in_flight[slot].payload);
                }
                QueuedKind::Timer { id } => target.on_timer(&mut ctx, id),
                QueuedKind::TopoChange { peer, up } => {
                    target.on_topology_change(&mut ctx, peer, up);
                }
            }
        }
        // The dispatch trace event fires after the callback (so the
        // logical reading reflects any adoption) but before the send
        // drain, keeping every `Send` after its causing event.
        if let Some(tr) = tracer.as_deref_mut() {
            let logical = trajectories[local].value_at(hw);
            tr.record(&match kind {
                QueuedKind::Start => TraceEvent::NodeStarted {
                    time,
                    node,
                    hw,
                    logical,
                },
                QueuedKind::Deliver { from, seq, slot } => TraceEvent::Deliver {
                    time,
                    from,
                    to: node,
                    seq,
                    send_time: self.in_flight[slot].send_time,
                    hw,
                    logical,
                },
                QueuedKind::Timer { id } => TraceEvent::TimerFired {
                    time,
                    node,
                    id,
                    hw,
                    logical,
                },
                QueuedKind::TopoChange { peer, up } => TraceEvent::LinkChanged {
                    time,
                    node,
                    peer,
                    up,
                    hw,
                },
            });
        }

        // Drain both buffers fully even if an action errors (the buffers
        // are long-lived and must come back empty), reporting the first
        // error once the buffers are restored.
        let mut err = None;
        // The merge keys' index of each message: a broadcast counts once
        // per neighbour, as when it was buffered as one send each.
        let mut action_index = 0;
        for out in actions.sends.drain(..) {
            if err.is_some() {
                continue;
            }
            // A broadcast goes to the neighbours in order, one clone each
            // but the last, which takes the payload.
            let (one, count, payload) = match out {
                Outgoing::To(to, payload) => (Some(to), 1, payload),
                Outgoing::Neighbors(payload) => (None, self.neighbors[local].len(), payload),
            };
            let mut shared = NO_SLOT;
            for (i, payload) in std::iter::repeat_n(payload, count).enumerate() {
                let to = one.unwrap_or_else(|| self.neighbors[local][i]);
                err = self
                    .try_send_message(
                        env,
                        (node, local),
                        to,
                        payload,
                        time,
                        hw,
                        &mut shared,
                        tracer.as_deref_mut(),
                    )
                    .err();
                // A send that logged a record grew the log by one.
                if let Some(keys) = &mut self.msg_keys {
                    let key = MsgKey {
                        send_time: time,
                        sender_key: record.kind.tie_key(node),
                        action_index,
                    };
                    keys.resize(self.messages.len(), key);
                }
                action_index += 1;
                if err.is_some() {
                    break;
                }
            }
        }
        for (id, target_hw) in actions.timers.drain(..) {
            if err.is_some() {
                continue;
            }
            let fire_time = if target_hw.is_finite() {
                self.clock.time_at_value(node, target_hw)
            } else {
                f64::NAN
            };
            if !fire_time.is_finite() {
                err = Some(SimError::NonFiniteTimer { node, target_hw });
                continue;
            }
            self.push(fire_time, node, target_hw, QueuedKind::Timer { id });
        }
        self.actions = actions;
        err.map_or(Ok(Some(record)), |e| Err(Halt::Error(e)))
    }

    /// Sends one message: sequence number, delay draw, trace, message
    /// record, then the delivery — parked and queued here, or handed off
    /// when the receiver belongs to another partition. `shared` is the slot
    /// of the broadcast the message belongs to (see [`Partition::park`]); a
    /// point-to-point send passes its own.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn try_send_message(
        &mut self,
        env: &Env<'_>,
        (from, local): (NodeId, usize),
        to: NodeId,
        payload: M,
        time: f64,
        hw: f64,
        shared: &mut usize,
        tracer: Option<&mut (dyn Tracer + 'static)>,
    ) -> Result<(), SimError> {
        let seq = self.send_seq.next(local, to);
        let d = env.topology.distance(from, to);
        let non_finite = || SimError::NonFiniteDelay {
            from,
            to,
            send_time: time,
        };
        // Non-finite outcomes are typed errors (bad input, reportable);
        // finite-but-out-of-range outcomes stay model-violation panics (a
        // broken delay policy is a programming error, not a scenario).
        let arrival = match self.delay.decide(from, to, seq, time) {
            DelayOutcome::Delay(delay) => {
                if !delay.is_finite() {
                    return Err(non_finite());
                }
                assert!(
                    (0.0..=d + 1e-9).contains(&delay),
                    "delay policy violated the model: delay {delay} for \
                     {from}->{to} with distance {d}"
                );
                let t = time + delay;
                // Only the log reads the receiver's clock at send; a
                // streamed delivery reads it at dispatch.
                let h = if env.record_events {
                    self.clock.value_at(to, t)
                } else {
                    f64::NAN
                };
                Some((t, h))
            }
            DelayOutcome::ArriveAtHw(h) => {
                if !h.is_finite() {
                    return Err(non_finite());
                }
                let t = self.clock.time_at_value(to, h);
                if !t.is_finite() {
                    return Err(non_finite());
                }
                assert!(
                    t >= time - 1e-9 && t <= time + d + 1e-9,
                    "delay policy violated the model: hw arrival {h} (real \
                     {t}) for {from}->{to} sent at {time} with distance {d}"
                );
                Some((t, h))
            }
            DelayOutcome::Drop => None,
        };

        // Trace before any mode-specific bookkeeping, so the event stream
        // is identical in recorded and streaming mode.
        if let Some(tr) = tracer {
            tr.record(&TraceEvent::Send {
                time,
                from,
                to,
                seq,
                hw,
                arrival: arrival.map(|(t, _)| t),
            });
            if arrival.is_none() {
                tr.record(&TraceEvent::Drop {
                    time,
                    from,
                    to,
                    seq,
                    send_time: time,
                    reason: DropReason::Loss,
                });
            }
        }
        // Every record with an arrival starts `InFlight`, and
        // `Frame::finish` settles it against the final horizon — which is
        // what lets a run be extended past any horizon chosen up front.
        if env.record_events {
            self.messages.push(MessageRecord {
                from,
                to,
                seq,
                send_time: time,
                send_hw: hw,
                arrival_time: arrival.map(|(t, _)| t),
                arrival_hw: arrival.map(|(_, h)| h),
                status: if arrival.is_some() {
                    MessageStatus::InFlight
                } else {
                    MessageStatus::Dropped
                },
                payload: payload.clone(),
            });
        }
        let Some((t, h)) = arrival else {
            self.dropped_loss += 1;
            return Ok(());
        };
        if self.span.contains(&env.placement.position(to)) {
            let slot = self.park(time, payload, shared);
            self.push(t, to, h, QueuedKind::Deliver { from, seq, slot });
        } else {
            self.outbox.push(Handoff {
                from,
                to,
                seq,
                send_time: time,
                arrival_time: t,
                arrival_hw: h,
                payload,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(time: f64, node: NodeId) -> Queued {
        Queued::new(time, node, 0.0, QueuedKind::Start)
    }

    #[test]
    fn queue_ordering_is_total_even_with_nan_times() {
        // The heap comparator must never panic or violate totality, even
        // if a NaN time were to slip past the typed-error gates.
        let a = ev(f64::NAN, 0);
        let b = ev(1.0, 1);
        let c = ev(f64::NAN, 2);
        // Antisymmetry and consistency, not any particular NaN placement.
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        assert_eq!(a.cmp(&c), c.cmp(&a).reverse());
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "message slot 4294967296 exceeds u32::MAX")]
    fn a_field_past_u32_panics_naming_its_value() {
        let slot = u32::MAX as usize + 1;
        let _ = Queued::new(
            0.0,
            0,
            0.0,
            QueuedKind::Deliver {
                from: 0,
                seq: 0,
                slot,
            },
        );
    }

    /// Ids and seqs at the edges of the packed fields, and few enough
    /// distinct values that keys and times collide often.
    const IDS: [usize; 4] = [0, 1, u32::MAX as usize - 1, u32::MAX as usize];
    const WIDE: [u64; 4] = [0, 1, u32::MAX as u64, u64::MAX];
    const TIMES: [f64; 3] = [0.0, 1.0, 2.5];

    /// `(time, node, kind)` from indices into the pools above.
    fn event((k, t, (n, a, w)): (u8, u8, (u8, u8, u8))) -> (f64, NodeId, QueuedKind) {
        let (a, w) = (IDS[usize::from(a)], WIDE[usize::from(w)]);
        let slot = IDS[usize::from(n ^ 1)];
        let kind = match k {
            0 => QueuedKind::Start,
            1 => QueuedKind::Deliver {
                from: a,
                seq: w,
                slot,
            },
            2 => QueuedKind::Timer { id: w },
            _ => QueuedKind::TopoChange {
                peer: a,
                up: w % 2 == 1,
            },
        };
        (TIMES[usize::from(t)], IDS[usize::from(n)], kind)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The packed comparator is the heap order of `(time,
        // EventKind::tie_key)`, earliest first, and packing loses nothing.
        fn packed_order_is_the_canonical_order(
            raw in proptest::collection::vec((0u8..4, 0u8..3, (0u8..4, 0u8..4, 0u8..4)), 1..16),
        ) {
            let events: Vec<_> = raw.into_iter().map(event).collect();
            for &(t, node, kind) in &events {
                let q = Queued::new(t, node, 7.5, kind);
                prop_assert_eq!(q.kind(), kind);
                prop_assert_eq!((q.time, q.node as NodeId, q.hw), (t, node, 7.5));
                for &(u, other, kind2) in &events {
                    let expected = u.total_cmp(&t).then_with(|| {
                        let (x, y) = (kind.record_kind(), kind2.record_kind());
                        y.tie_key(other).cmp(&x.tie_key(node))
                    });
                    let got = q.cmp(&Queued::new(u, other, 0.0, kind2));
                    prop_assert_eq!(got, expected, "{:?} at {} against {:?} at {}", kind, node, kind2, other);
                }
            }
        }
    }

    /// What a pop returned, with times by their bits.
    fn popped(ev: Option<Queued>) -> Option<(u64, u64, u32, QueuedKind)> {
        ev.map(|q| (q.time.to_bits(), q.hw.to_bits(), q.node, q.kind()))
    }

    /// Event times and admit limits, few enough that times tie often and
    /// limits fall below, at and above the split.
    const GRID: [f64; 6] = [-0.0, 0.0, 0.5, 1.0, 1.5, 2.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The two tiers pop what one heap over the same pushes pops,
        // whatever the admits.
        fn event_queue_pops_as_one_heap(
            ops in proptest::collection::vec((0u8..5, 0usize..6, 0usize..3), 1..64),
        ) {
            let (mut queue, mut heap) = (EventQueue::new(), BinaryHeap::new());
            for (i, (op, t, node)) in ops.into_iter().enumerate() {
                match op {
                    0..=2 => {
                        // A unique `wide` keeps every key distinct.
                        let kind = if op == 0 {
                            QueuedKind::Timer { id: i as u64 }
                        } else {
                            QueuedKind::Deliver { from: node ^ 1, seq: i as u64, slot: i }
                        };
                        let push = || Queued::new(GRID[t], node, i as f64, kind);
                        queue.push(push());
                        heap.push(push());
                    }
                    3 => queue.admit(GRID[t]),
                    _ => prop_assert_eq!(popped(queue.pop()), popped(heap.pop())),
                }
                prop_assert_eq!(queue.next_time(), heap.peek().map(|q| q.time));
                prop_assert_eq!(queue.len(), heap.len());
            }
            while !heap.is_empty() {
                prop_assert_eq!(popped(queue.pop()), popped(heap.pop()));
            }
            prop_assert!(queue.pop().is_none());
        }
    }

    /// The hub of a star broadcasts at start and once more at hardware
    /// time 1; the leaves only listen.
    struct Hub;

    impl Node<u64> for Hub {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.id() == 0 {
                ctx.send_to_neighbors(&7);
                ctx.set_timer(1.0);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u64>, _: NodeId, _: &u64) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _: TimerId) {
            ctx.send_to_neighbors(&8);
        }
    }

    #[test]
    fn a_broadcast_shares_one_slot_until_its_last_delivery_settles() {
        use gcs_dynamic::{ChurnEvent, ChurnKind, ChurnSchedule};
        use gcs_net::AdversarialDelay;
        // Leaf `to` hears the hub after 0.2 · to; the link to leaf 1 goes
        // down at 0.1, so that message drops when it comes due.
        let down = ChurnEvent {
            time: 0.1,
            kind: ChurnKind::EdgeDown { a: 0, b: 1 },
        };
        let view = DynamicTopology::new(Topology::star(5), ChurnSchedule::new(vec![down])).unwrap();
        let mut sim = crate::SimulationBuilder::new_dynamic(view)
            .record_events(false)
            .delay_policy(AdversarialDelay::new(|_, to, _, _| {
                DelayOutcome::Delay(0.2 * to as f64)
            }))
            .build_with(|_, _| Hub)
            .unwrap();
        let mut step = |until: f64| {
            sim.try_run_until_observed(until, &mut []).unwrap();
            let stats = sim.stats();
            let part = &sim.parts[0];
            let slots = (stats.message_slots, stats.free_message_slots);
            let slab = (
                part.in_flight.len(),
                part.pending.clone(),
                part.free_in_flight.clone(),
            );
            (slab, slots, stats.dropped_link_down)
        };
        // Four messages in flight, one slot owing four deliveries.
        assert_eq!(step(0.0), ((1, vec![4], vec![]), (4, 0), 0));
        // The drop to leaf 1 and the delivery to leaf 2 settle two.
        assert_eq!(step(0.5), ((1, vec![2], vec![]), (4, 2), 1));
        // The last delivery frees the slot.
        assert_eq!(step(0.9), ((1, vec![0], vec![0]), (4, 4), 1));
        // The next broadcast, to the three live leaves, reuses it.
        assert_eq!(step(1.0), ((1, vec![3], vec![]), (4, 1), 1));
        assert_eq!(sim.stats().peak_message_slots, 4);
    }

    #[test]
    fn queued_event_and_record_sizes_are_unchanged() {
        // A delivery carries a slab index, not the payload, and ids pack
        // into u32 fields, so the queued event is the same 40 bytes for
        // every message type, and the recorded event stays 48.
        assert_eq!(std::mem::size_of::<Queued>(), 40);
        assert_eq!(std::mem::size_of::<EventRecord>(), 48);
        // A streamed message in flight keeps only its send time and
        // payload.
        assert_eq!(std::mem::size_of::<InFlight<[u64; 3]>>(), 32);
    }
}
