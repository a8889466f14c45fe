//! The engine: one dispatch core ([`crate::partition`]) per shard. One
//! partition dispatches inline on the calling thread; several run the
//! window protocol ([`crate::shard`]). Plus the run API, the live tracer,
//! the wall-clock counters and per-event observers.

use std::fmt;
use std::time::Instant;

use gcs_clocks::{ClockSource, EagerSchedule, RateSchedule};
use gcs_dynamic::DynamicTopology;
use gcs_net::{DelayPolicy, FixedFractionDelay, Topology};

use crate::execution::Execution;
use crate::node::Node;
use crate::observer::Observer;
use crate::partition::{cap_exceeded, Frame, Halt, MsgKey, Part, Partition};
use crate::placement::Placement;
use crate::shard::{add_elapsed, ShardedCounters};
use crate::trace::Tracer;
use crate::NodeId;

/// Default cap on the number of dispatched events, guarding against
/// algorithms that generate unbounded zero-delay message storms.
pub const DEFAULT_EVENT_CAP: u64 = 100_000_000;

/// Errors from building or running a [`Simulation`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The number of schedules did not match the number of nodes.
    ScheduleCount {
        /// Number of nodes in the topology.
        expected: usize,
        /// Number of schedules provided.
        got: usize,
    },
    /// The clock source reported a non-finite rate or value for a node
    /// (detected at build time).
    NonFiniteRate {
        /// The offending node.
        node: NodeId,
    },
    /// A run horizon was NaN, infinite, or negative.
    InvalidHorizon {
        /// The offending horizon.
        horizon: f64,
    },
    /// The delay policy produced a NaN or infinite delay/arrival for a
    /// message.
    NonFiniteDelay {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Real time the message was sent.
        send_time: f64,
    },
    /// A node set a timer whose hardware target (or its real-time
    /// preimage under the clock) is NaN or infinite.
    NonFiniteTimer {
        /// The node that set the timer.
        node: NodeId,
        /// The requested hardware-clock target.
        target_hw: f64,
    },
    /// More than one partition cannot run this configuration: the clock
    /// source / delay policy does not support [`ClockSource::fork`] /
    /// [`DelayPolicy::fork`], a tracer is attached, or the lookahead is
    /// too small to advance a window at the run horizon.
    ShardUnsupported {
        /// What the partitioned run could not accommodate.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScheduleCount { expected, got } => {
                write!(f, "expected {expected} schedules, got {got}")
            }
            SimError::NonFiniteRate { node } => {
                write!(f, "clock source yields a non-finite rate for node {node}")
            }
            SimError::InvalidHorizon { horizon } => {
                write!(f, "horizon must be finite and nonnegative, got {horizon}")
            }
            SimError::NonFiniteDelay {
                from,
                to,
                send_time,
            } => {
                write!(
                    f,
                    "delay policy produced a non-finite delay for \
                     {from}->{to} sent at t = {send_time}"
                )
            }
            SimError::NonFiniteTimer { node, target_hw } => {
                write!(
                    f,
                    "node {node} set a timer with non-finite fire time \
                     (hardware target {target_hw})"
                )
            }
            SimError::ShardUnsupported { reason } => {
                write!(f, "the shards cannot run this configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Builder for [`Simulation`]: set the model, then build with
/// [`SimulationBuilder::build_with`].
pub struct SimulationBuilder {
    topology: Topology,
    dynamic: Option<DynamicTopology>,
    drop_on_link_down: bool,
    clock: Option<Box<dyn ClockSource + Send>>,
    delay: Option<Box<dyn DelayPolicy + Send>>,
    event_cap: u64,
    record_events: bool,
    shards: usize,
}

impl fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("topology", &self.topology)
            .field("event_cap", &self.event_cap)
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// Creates a builder over a static `topology`.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            dynamic: None,
            drop_on_link_down: true,
            clock: None,
            delay: None,
            event_cap: DEFAULT_EVENT_CAP,
            record_events: true,
            shards: 1,
        }
    }

    /// Creates a builder over a dynamic (churning) topology: the view's
    /// base topology fixes the node universe, distances, and delay bounds;
    /// its churn schedule drives [`crate::EventKind::TopologyChange`]
    /// events during the run. The engine tracks the view's live neighbor
    /// sets, notifies nodes of link changes via
    /// [`crate::Node::on_topology_change`], and (by default) drops
    /// messages whose link goes down while they are in flight.
    #[must_use]
    pub fn new_dynamic(view: DynamicTopology) -> Self {
        let mut builder = Self::new(view.base().clone());
        builder.dynamic = Some(view);
        builder
    }

    /// Controls what happens to a message whose link goes down between
    /// send and scheduled arrival in a dynamic topology: with `true` (the
    /// default, the Kuhn–Lenzen–Locher–Oshman model) the message is
    /// dropped; with `false` it is delivered anyway (links buffer traffic
    /// across outages).
    #[must_use]
    pub fn drop_in_flight_on_link_down(mut self, drop: bool) -> Self {
        self.drop_on_link_down = drop;
        self
    }

    /// Sets the per-node hardware clock schedules, one [`RateSchedule`]
    /// per topology node.
    ///
    /// Equivalent to [`SimulationBuilder::drift_source`] with an
    /// [`EagerSchedule`]; the later of the two calls wins. **Default:**
    /// if neither is called, every node gets a perfect rate-1 clock
    /// (`RateSchedule::default()`), which is the deliberate
    /// replay-friendly baseline — not an error. A vector whose length
    /// does not match the topology is rejected at build time with
    /// [`SimError::ScheduleCount`] (never a mid-run panic).
    #[must_use]
    pub fn schedules(mut self, schedules: Vec<RateSchedule>) -> Self {
        self.clock = Some(Box::new(EagerSchedule::new(schedules)));
        self
    }

    /// Sets the hardware clock source the engine reads all clocks
    /// through — see [`ClockSource`]. Use
    /// [`gcs_clocks::LazyDriftSource`] for random-walk drift generated
    /// windowed on demand: long-horizon streaming runs
    /// ([`SimulationBuilder::record_events`]`(false)`) then hold O(live
    /// window) schedule segments instead of O(horizon), with the window
    /// compacted behind the probe frontier. The later of this and
    /// [`SimulationBuilder::schedules`] wins; a source whose
    /// [`ClockSource::node_count`] does not match the topology is
    /// rejected at build time with [`SimError::ScheduleCount`].
    #[must_use]
    pub fn drift_source(mut self, source: impl ClockSource + Send + 'static) -> Self {
        self.clock = Some(Box::new(source));
        self
    }

    /// Sets the message-delay policy (defaults to the nominal half-distance
    /// policy). The policy's [`DelayPolicy::bind_topology`] is called
    /// automatically. A `Box<dyn DelayPolicy>` chosen at runtime is a
    /// policy too.
    #[must_use]
    pub fn delay_policy(mut self, policy: impl DelayPolicy + Send + 'static) -> Self {
        self.delay = Some(Box::new(policy));
        self
    }

    /// Caps the number of dispatched events (default
    /// [`DEFAULT_EVENT_CAP`]); the run panics when exceeded.
    #[must_use]
    pub fn event_cap(mut self, cap: u64) -> Self {
        self.event_cap = cap;
        self
    }

    /// Enables or disables recording (default enabled).
    ///
    /// With recording **on**, the run produces today's complete
    /// [`Execution`]: every event, every message, full logical
    /// trajectories — bit-identical across releases (golden snapshots pin
    /// this).
    ///
    /// With recording **off** the engine runs in *streaming* mode, sized
    /// by the network's in-flight state instead of the execution's length:
    /// no event records, message slots are recycled as soon as a message
    /// is delivered or dropped, and logical trajectories are compacted
    /// behind the probe frontier (see
    /// [`Simulation::set_probe_schedule`]). Metrics come from
    /// [`crate::Observer`]s attached to the run; the [`Execution`]
    /// returned by [`Simulation::into_execution`] then carries topology,
    /// schedules, horizon, and (frontier-truncated) trajectories, but
    /// empty event and message logs.
    #[must_use]
    pub fn record_events(mut self, record: bool) -> Self {
        self.record_events = record;
        self
    }

    /// Sets the number of shards [`SimulationBuilder::build_with`]
    /// partitions the topology into (default 1). One partition dispatches
    /// inline on the calling thread; several dispatch in parallel on
    /// scoped threads under the window protocol (see `shard.rs`).
    ///
    /// Runs produce bit-identical [`Execution`]s for every shard count —
    /// `shards` trades wall-clock for thread count, never output.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k >= 1, "shard count must be at least 1");
        self.shards = k;
        self
    }

    /// Builds the simulation, constructing one node per topology entry with
    /// `make(node_id, node_count)`, over [`SimulationBuilder::shards`]
    /// partitions: never more than there are nodes, and one when the delay
    /// policy has no lookahead ([`DelayPolicy::min_delay_bound`] zero).
    /// Only more than one partition forks the clock source and the delay
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleCount`] if the clock source does not
    /// match the topology size, [`SimError::NonFiniteRate`] if it yields a
    /// non-finite rate, or [`SimError::ShardUnsupported`] if more than one
    /// partition is due and the clock source or the delay policy cannot be
    /// forked.
    ///
    /// # Panics
    ///
    /// With more than one shard, if the delay policy reports a negative
    /// lookahead.
    pub fn build_with<M, N, F>(mut self, mut make: F) -> Result<Simulation<M>, SimError>
    where
        M: Clone + fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
        F: FnMut(NodeId, usize) -> N,
    {
        let n = self.topology.len();
        let nodes: Vec<Box<dyn Node<M> + Send>> =
            (0..n).map(|i| Box::new(make(i, n)) as _).collect();
        let clock = self
            .clock
            .take()
            .unwrap_or_else(|| Box::new(EagerSchedule::new(vec![RateSchedule::default(); n])));
        if clock.node_count() != n {
            return Err(SimError::ScheduleCount {
                expected: n,
                got: clock.node_count(),
            });
        }
        // Defensive finiteness gate: `RateSchedule` already rejects
        // non-finite rates structurally, but a hand-rolled `ClockSource`
        // is only bound by its trait contract — catch a NaN clock here,
        // at build, instead of deep inside dispatch.
        if let Some(node) = clock.find_non_finite() {
            return Err(SimError::NonFiniteRate { node });
        }
        let mut delay = self
            .delay
            .take()
            .unwrap_or_else(|| Box::new(FixedFractionDelay::for_topology(&self.topology, 0.5)));
        delay.bind_topology(&self.topology);
        // Zero lookahead cannot overlap partitions: fall back to one.
        let lookahead = if self.shards > 1 {
            delay.min_delay_bound()
        } else {
            0.0
        };
        assert!(
            lookahead >= 0.0,
            "delay policy reported a negative lookahead {lookahead}"
        );
        let k = if lookahead > 0.0 {
            self.shards.min(n.max(1))
        } else {
            1
        };
        let frame = Frame::new(
            Placement::new(&self.topology, k),
            self.topology,
            self.dynamic,
            self.drop_on_link_down,
            self.event_cap,
            self.record_events,
        );
        let (parts, coordinator) = if k == 1 {
            (vec![Partition::new(0, nodes, &frame, clock, delay)], None)
        } else {
            let unsupported = |what: &str| SimError::ShardUnsupported {
                reason: format!("the {what} does not support fork()"),
            };
            let mut nodes: Vec<_> = nodes.into_iter().map(Some).collect();
            let parts = (0..k)
                .map(|index| {
                    let clock = clock.fork().ok_or_else(|| unsupported("clock source"))?;
                    let delay = delay.fork().ok_or_else(|| unsupported("delay policy"))?;
                    let own = frame
                        .placement
                        .members(index)
                        .map(|node| nodes[node].take().expect("each node has one owner"))
                        .collect();
                    Ok(Partition::new(index, own, &frame, clock, delay))
                })
                .collect::<Result<_, SimError>>()?;
            (parts, Some(clock))
        };
        Ok(Simulation {
            frame,
            parts,
            clock: coordinator,
            lookahead,
            window_mult: 1,
            finish_ns: 0,
        })
    }

    /// [`SimulationBuilder::build_with`] under its old name, kept only
    /// because `benchmark/src/adapter.rs` calls it; the benchmark-only
    /// adapter change of ROADMAP item 1 deletes it.
    #[doc(hidden)]
    #[allow(clippy::missing_errors_doc)]
    pub fn build_sharded_with<M, N, F>(self, make: F) -> Result<Simulation<M>, SimError>
    where
        M: Clone + fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
        F: FnMut(NodeId, usize) -> N,
    {
        self.build_with(make)
    }
}

/// Counters describing a simulation's in-memory footprint and progress,
/// from [`Simulation::stats`]. In streaming mode
/// ([`SimulationBuilder::record_events`]`(false)`) `message_slots` is
/// bounded by the peak number of simultaneously in-flight messages and
/// `recorded_events` stays 0 — the counters a flat-memory assertion
/// checks. A streamed message in flight holds one queued delivery and a
/// slot of its send time and payload, which the local deliveries of one
/// broadcast ([`crate::Context::send_to_neighbors`]) share; the
/// receiver's hardware reading at arrival is taken when the delivery
/// dispatches. The slot counters count messages, not shared slots. With
/// several partitions each count is summed over them; so are the
/// high-water marks of queued events and message slots, which then bound
/// the simultaneous peak from above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched so far (the quantity the event cap bounds).
    pub dispatched: u64,
    /// Events currently queued.
    pub queued_events: usize,
    /// Event records retained for the final [`Execution`].
    pub recorded_events: usize,
    /// Message slots allocated (recording mode: records in the message
    /// log, one per message sent; streaming mode: the peak number of
    /// messages in flight, a broadcast's messages counted one by one
    /// although they share one slot).
    pub message_slots: usize,
    /// Of those, slots free for reuse (streaming mode only): the peak less
    /// the messages now in flight.
    pub free_message_slots: usize,
    /// Total logical-trajectory breakpoints currently held.
    pub trajectory_breakpoints: usize,
    /// Total hardware-schedule segments currently held by the clock
    /// source across all nodes. Eager sources hold every segment for
    /// the whole run; a lazy source
    /// ([`gcs_clocks::LazyDriftSource`]) in streaming mode holds only
    /// the window around the probe frontier, so this stays O(1) in the
    /// horizon — the counter the long-horizon CI smoke asserts on.
    pub live_schedule_segments: usize,
    /// High-water mark of `queued_events` over the whole run.
    pub peak_queued_events: usize,
    /// High-water mark of *occupied* message slots
    /// (`message_slots − free_message_slots`): recording mode counts
    /// total sends, streaming mode the peak simultaneously-in-flight
    /// message count.
    pub peak_message_slots: usize,
    /// High-water mark of `trajectory_breakpoints`, sampled at probe
    /// instants (before streaming compaction) and at every
    /// [`Simulation::stats`] call — the worst case a streaming run held
    /// between compactions.
    pub peak_trajectory_breakpoints: usize,
    /// Messages dropped by the delay policy at send time (loss).
    pub dropped_loss: u64,
    /// Messages dropped because their tracked link went down while they
    /// were in flight (dynamic topologies). Counts drops resolved at
    /// dispatch; messages still unresolved at the final horizon are
    /// reconciled by [`Simulation::into_execution`] without appearing
    /// here.
    pub dropped_link_down: u64,
}

/// A configured simulation that can be advanced, probed, paused, and
/// extended past any fixed horizon.
///
/// Create one with [`SimulationBuilder::build_with`]. The run surface is
/// one fallible method per operation:
///
/// - [`Simulation::try_run_until_observed`] advances through all events
///   up to a horizon — callable repeatedly with growing horizons — and
///   streams every event and probe through [`Observer`]s (pass `&mut []`
///   for none);
/// - [`Simulation::into_execution`] finalizes the run into the recorded
///   [`Execution`], and [`Simulation::try_execute_until`] is the one-shot
///   form: run to a horizon, return the execution.
///
/// It holds one partition per shard ([`SimulationBuilder::shards`]): one
/// dispatches inline, several run the window protocol of `shard.rs`. The
/// [`Execution`] is bit-identical for every shard count.
pub struct Simulation<M> {
    pub(crate) frame: Frame,
    /// One partition per shard, in placement order.
    pub(crate) parts: Vec<Part<M>>,
    /// With several partitions, the coordinator's clock: probe views,
    /// streaming compaction and final schedule materialization. It answers
    /// bit-identically to every partition's fork. `None` with one
    /// partition, which reads its own ([`coordinator_clock`]).
    pub(crate) clock: Option<Box<dyn ClockSource + Send>>,
    /// The delay policy's lookahead `L`, read only with several
    /// partitions.
    pub(crate) lookahead: f64,
    /// Current super-window multiplier, in `[1, MAX_MULT]`.
    pub(crate) window_mult: u64,
    /// Coordinator time merging super-windows, probes excluded.
    pub(crate) finish_ns: u64,
}

/// The engine under its old name, kept only because
/// `benchmark/src/adapter.rs` names it; the benchmark-only adapter change
/// of ROADMAP item 1 deletes it.
#[doc(hidden)]
pub type ShardedSimulation<M> = Simulation<M>;

/// The clock that probes, observers and finalization read: the
/// coordinator's with several partitions, else the one partition's own.
pub(crate) fn coordinator_clock<'a, M>(
    clock: &'a Option<Box<dyn ClockSource + Send>>,
    parts: &'a [Part<M>],
) -> &'a dyn ClockSource {
    match clock {
        Some(clock) => &**clock,
        None => &*parts[0].clock,
    }
}

impl<M> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("topology", &self.frame.topology)
            .field("shards", &self.parts.len())
            .finish_non_exhaustive()
    }
}

impl<M: Clone> Part<M> {
    /// Dispatches every event at or before `horizon` on the calling
    /// thread, handing each to the tracer and `observers` as it happens,
    /// with the probes due before it first: one window.
    fn run_inline(
        &mut self,
        frame: &mut Frame,
        horizon: f64,
        observers: &mut [&mut dyn Observer],
    ) -> Result<(), SimError> {
        let (started, probe_ns) = (Instant::now(), frame.probe_ns);
        self.queue.admit(horizon);
        let result = loop {
            let Some(next_time) = self.queue.next_time() else {
                break Ok(());
            };
            if next_time > horizon {
                break Ok(());
            }
            // Probes strictly before the next event fire first, so a probe
            // at time t always sees the state after *all* events at ≤ t.
            frame.emit_probes(next_time, false, &*self.clock, observers);
            let ev = self.queue.pop().expect("peeked above");
            let cap = frame.event_cap;
            let (env, trajectories, tracer) = frame.split();
            let record = match self.dispatch(ev, &env, trajectories, cap, tracer) {
                Ok(Some(record)) => record,
                // A delivery dropped by a link outage: no callback ran.
                Ok(None) => continue,
                Err(Halt::Cap(record)) => cap_exceeded(cap, record.time),
                Err(Halt::Error(e)) => break Err(e),
            };
            frame.observe(&record, &*self.clock, observers);
        };
        // Probes fired inside the window are `probe_ns`, not `run_ns`.
        let counters = &mut self.counters;
        counters.windows += 1;
        counters.events = self.dispatched;
        add_elapsed(&mut counters.run_ns, Some(started));
        counters.run_ns = counters.run_ns.saturating_sub(frame.probe_ns - probe_ns);
        result
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> Simulation<M> {
    /// Runs the simulation from real time 0 through `horizon` (inclusive),
    /// consumes it, and returns the recorded execution — the one-shot form
    /// every post-hoc analysis uses, bit-identical to
    /// [`Simulation::try_run_until_observed`] followed by
    /// [`Simulation::into_execution`].
    ///
    /// # Errors
    ///
    /// As [`Simulation::try_run_until_observed`]. On error the
    /// partially-advanced simulation is consumed; its state is not a
    /// coherent execution.
    ///
    /// # Panics
    ///
    /// As [`Simulation::try_run_until_observed`].
    pub fn try_execute_until(mut self, horizon: f64) -> Result<Execution<M>, SimError> {
        self.try_run_until_observed(horizon, &mut [])?;
        Ok(self.into_execution())
    }

    /// Advances the simulation through every event at time ≤ `horizon`,
    /// *without* consuming it, streaming every dispatched event and every
    /// due probe (see [`Simulation::set_probe_schedule`]) through
    /// `observers`. The run can be probed (via [`Simulation::stats`],
    /// observers, or another call with a larger horizon) and extended
    /// indefinitely. Running in several chunks dispatches exactly the
    /// same events, in the same order, with the same recorded data as one
    /// call with the final horizon.
    ///
    /// One partition hands each event to `observers` as it is dispatched;
    /// several hand over the merged events at each super-window barrier,
    /// under the rule stated on [`Observer::on_event`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidHorizon`], [`SimError::NonFiniteDelay`], or
    /// [`SimError::NonFiniteTimer`]. With more than one partition,
    /// [`SimError::ShardUnsupported`] when a tracer is attached or the
    /// horizon is so large that adding the lookahead no longer moves it;
    /// then nothing is dispatched. After any other error the simulation
    /// is poisoned (partially advanced) and should be discarded.
    ///
    /// # Panics
    ///
    /// If the delay policy emits a finite delay outside `[0, d_ij]` (a
    /// broken [`DelayPolicy`], not bad input), or if the event cap is
    /// exceeded.
    pub fn try_run_until_observed(
        &mut self,
        horizon: f64,
        observers: &mut [&mut dyn Observer],
    ) -> Result<(), SimError> {
        if !horizon.is_finite() || horizon < 0.0 {
            return Err(SimError::InvalidHorizon { horizon });
        }
        if self.parts.len() > 1 {
            self.check_windows(horizon)?;
        }
        if self.frame.start() {
            for (time, node, hw, kind) in self.frame.initial_events() {
                self.parts[self.frame.placement.owner(node)].push(time, node, hw, kind);
            }
        }
        if let [core] = self.parts.as_mut_slice() {
            core.run_inline(&mut self.frame, horizon, observers)?;
        } else {
            self.run_windows(horizon, observers)?;
        }
        let clock = coordinator_clock(&self.clock, &self.parts);
        self.frame.emit_probes(horizon, true, clock, observers);
        self.frame.ran_to = self.frame.ran_to.max(horizon);
        Ok(())
    }

    /// Finalizes the run into the recorded [`Execution`], whose horizon is
    /// the furthest time the run was driven to ([`Simulation::now`]).
    /// Every logged message is settled against that horizon: delivered if
    /// it arrives by then, in flight if later, and in dynamic topologies
    /// dropped if its tracked link went down within the horizon while it
    /// was in flight.
    #[must_use]
    pub fn into_execution(self) -> Execution<M> {
        let Self {
            frame,
            mut parts,
            clock,
            ..
        } = self;
        // Streaming mode logs no message, so its execution carries only
        // the run's shape (topology, schedules, horizon, trajectories).
        let messages = match parts.as_mut_slice() {
            [core] => std::mem::take(&mut core.messages),
            // Merge the partitions' logs back into one partition's append
            // order.
            several => {
                let mut tagged = Vec::new();
                for part in several {
                    let keys = part.msg_keys.take().unwrap_or_default();
                    tagged.extend(keys.into_iter().zip(std::mem::take(&mut part.messages)));
                }
                tagged.sort_by(|a: &(MsgKey, _), b| a.0.cmp(&b.0));
                tagged.into_iter().map(|(_, m)| m).collect()
            }
        };
        frame.finish(messages, coordinator_clock(&clock, &parts))
    }

    /// The number of simulated nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.frame.topology.len()
    }

    /// The furthest simulated time this run has been driven to.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.frame.ran_to
    }

    /// Events dispatched so far, as [`SimStats::dispatched`]; kept only
    /// because `benchmark/src/adapter.rs` calls it. The benchmark-only
    /// adapter change of ROADMAP item 1 deletes it.
    #[doc(hidden)]
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.parts.iter().map(|p| p.dispatched).sum()
    }

    /// Progress and memory counters — see [`SimStats`].
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let sum = |count: fn(&Part<M>) -> usize| self.parts.iter().map(count).sum();
        let trajectory_breakpoints = self.frame.breakpoints();
        let (message_slots, free_message_slots, peak_message_slots) = self
            .parts
            .iter()
            .map(|p| p.message_slots(self.frame.record_events))
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
        SimStats {
            dispatched: self.dispatched(),
            queued_events: sum(|p| p.queue.len()),
            recorded_events: self.frame.events.len(),
            message_slots,
            free_message_slots,
            trajectory_breakpoints,
            live_schedule_segments: coordinator_clock(&self.clock, &self.parts).live_segments(),
            peak_queued_events: sum(|p| p.peak_queued_events.max(p.queue.len())),
            peak_message_slots,
            peak_trajectory_breakpoints: self.frame.peak_breakpoints.max(trajectory_breakpoints),
            dropped_loss: self.parts.iter().map(|p| p.dropped_loss).sum(),
            dropped_link_down: self.parts.iter().map(|p| p.dropped_link_down).sum(),
        }
    }

    /// Attaches (or replaces) the [`Tracer`] that receives every
    /// structured sim-domain [`crate::TraceEvent`] the dispatch loop
    /// produces — see [`crate::trace`]. Default: no tracer — the untraced
    /// path costs one branch per event. Mid-run attachment is allowed: the
    /// tracer sees events from that point on. A tracer observes the live
    /// interleaving of one partition: with more than one, the next run
    /// call is [`SimError::ShardUnsupported`].
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.frame.tracer = Some(tracer);
    }

    /// Where the wall time went so far: one row per partition beside the
    /// coordinator's serial phases — see [`ShardedCounters`]. One
    /// partition counts one window per run call, its `run_ns` net of
    /// probes, and no `finish_ns`.
    #[must_use]
    pub fn counters(&self) -> ShardedCounters {
        ShardedCounters {
            shards: self.parts.iter().map(|p| p.counters).collect(),
            finish_ns: self.finish_ns,
            probe_ns: self.frame.probe_ns,
        }
    }

    /// Configures observer probes: probe `k` fires at `from + k · every`,
    /// strictly after all events at or before that instant. Call before
    /// the run starts; calling mid-run restarts the grid (past probe times
    /// fire, late, on the next advance).
    ///
    /// In streaming mode ([`SimulationBuilder::record_events`]`(false)`)
    /// state behind the probe frontier has been compacted away, so a
    /// mid-run restart must not reach back: set `from` at or after
    /// [`Simulation::now`] (a restarted grid whose late probes query
    /// compacted trajectories or a compacted clock source panics).
    /// Restarting *forward* — e.g. re-anchoring the grid at a warm-up
    /// boundary — is always safe.
    ///
    /// # Panics
    ///
    /// Panics unless `every` is finite and strictly positive and `from` is
    /// finite and nonnegative.
    pub fn set_probe_schedule(&mut self, from: f64, every: f64) {
        self.frame.set_probe_schedule(from, every);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventRecord, MessageStatus};
    use crate::node::Context;
    use crate::observer::Probe;
    use crate::TimerId;
    use gcs_net::{AdversarialDelay, DelayOutcome};

    /// Node that broadcasts its logical clock every `period` hardware units
    /// and jumps its clock to any larger received value.
    #[derive(Debug)]
    struct MaxTest {
        period: f64,
    }

    impl Node<f64> for MaxTest {
        fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
            ctx.set_timer(self.period);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _t: TimerId) {
            let v = ctx.logical_now();
            ctx.send_to_neighbors(&v);
            ctx.set_timer(self.period);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, f64>, _from: NodeId, msg: &f64) {
            if *msg > ctx.logical_now() {
                ctx.set_logical(*msg);
            }
        }
    }

    fn line_sim(n: usize, rates: &[f64]) -> Simulation<f64> {
        let topology = Topology::line(n);
        let schedules = rates.iter().map(|&r| RateSchedule::constant(r)).collect();
        SimulationBuilder::new(topology)
            .schedules(schedules)
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap()
    }

    #[test]
    fn start_events_fire_for_all_nodes() {
        let exec = line_sim(3, &[1.0, 1.0, 1.0])
            .try_execute_until(0.0)
            .unwrap();
        let starts = exec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Start)
            .count();
        assert_eq!(starts, 3);
    }

    #[test]
    fn timers_fire_at_hardware_time() {
        // Node 0 runs at rate 2: its hardware timer for +1.0 fires at real
        // time 0.5.
        let exec = line_sim(2, &[2.0, 1.0]).try_execute_until(0.6).unwrap();
        let timer = exec
            .events()
            .iter()
            .find(|e| e.node == 0 && matches!(e.kind, EventKind::Timer { .. }))
            .expect("node 0 timer fired");
        assert!((timer.time - 0.5).abs() < 1e-12);
        assert!((timer.hw - 1.0).abs() < 1e-12);
        // Node 1's timer at rate 1 has not fired by 0.6... it fires at 1.0.
        assert!(exec
            .events()
            .iter()
            .all(|e| !(e.node == 1 && matches!(e.kind, EventKind::Timer { .. }))));
    }

    #[test]
    fn messages_travel_at_half_distance_by_default() {
        let exec = line_sim(2, &[1.0, 1.0]).try_execute_until(3.0).unwrap();
        let m = &exec.messages()[0];
        assert_eq!(m.delay(), Some(0.5));
        assert_eq!(m.status, MessageStatus::Delivered);
    }

    #[test]
    fn max_algorithm_propagates_largest_clock() {
        // Node 0 is fast (rate 1.2); after a while node 1's logical clock
        // must exceed its own hardware clock (it adopted node 0's values).
        let exec = line_sim(2, &[1.2, 1.0]).try_execute_until(20.0).unwrap();
        let l1 = exec.logical_at(1, 20.0);
        assert!(
            l1 > 20.0 + 1.0,
            "logical clock should track the fast node, got {l1}"
        );
    }

    #[test]
    fn in_flight_messages_are_marked() {
        // Horizon cuts off before the first delivery (sent at 1.0, delay 0.5).
        let exec = line_sim(2, &[1.0, 1.0]).try_execute_until(1.2).unwrap();
        assert!(exec
            .messages()
            .iter()
            .all(|m| m.status == MessageStatus::InFlight));
    }

    #[test]
    fn dropped_messages_are_recorded_not_delivered() {
        let topology = Topology::line(2);
        let sim = SimulationBuilder::new(topology)
            .delay_policy(AdversarialDelay::new(|_, _, _, _| DelayOutcome::Drop))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap();
        let exec = sim.try_execute_until(5.0).unwrap();
        assert!(!exec.messages().is_empty());
        assert!(exec
            .messages()
            .iter()
            .all(|m| m.status == MessageStatus::Dropped));
        let deliveries = exec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Deliver { .. }))
            .count();
        assert_eq!(deliveries, 0);
    }

    #[test]
    fn deterministic_reruns_are_identical() {
        let run = || {
            line_sim(4, &[1.05, 1.0, 0.95, 1.01])
                .try_execute_until(50.0)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.events().len(), b.events().len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x, y);
        }
        for (x, y) in a.messages().iter().zip(b.messages()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn schedule_count_mismatch_is_an_error() {
        let topology = Topology::line(3);
        let err = SimulationBuilder::new(topology)
            .schedules(vec![RateSchedule::default(); 2])
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ScheduleCount {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "event cap")]
    fn event_cap_guards_against_storms() {
        /// Pathological node: every message triggers two more.
        #[derive(Debug)]
        struct Storm;
        impl Node<u8> for Storm {
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                ctx.send_to_neighbors(&0);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u8>, _f: NodeId, _m: &u8) {
                ctx.send_to_neighbors(&0);
                ctx.send_to_neighbors(&0);
            }
        }
        let topology = Topology::line(2);
        let sim = SimulationBuilder::new(topology)
            .delay_policy(AdversarialDelay::new(|_, _, _, _| {
                DelayOutcome::Delay(0.001)
            }))
            .event_cap(10_000)
            .build_with(|_, _| Storm)
            .unwrap();
        let _ = sim.try_execute_until(1e6).unwrap();
    }

    #[test]
    fn empty_churn_matches_static_run_exactly() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};
        let run_static = || {
            line_sim(4, &[1.05, 1.0, 0.95, 1.01])
                .try_execute_until(50.0)
                .unwrap()
        };
        let run_dynamic = || {
            let topology = Topology::line(4);
            let schedules = [1.05, 1.0, 0.95, 1.01]
                .iter()
                .map(|&r| RateSchedule::constant(r))
                .collect();
            let view = DynamicTopology::new(topology, ChurnSchedule::empty()).unwrap();
            SimulationBuilder::new_dynamic(view)
                .schedules(schedules)
                .build_with(|_, _| MaxTest { period: 1.0 })
                .unwrap()
                .try_execute_until(50.0)
                .unwrap()
        };
        let a = run_static();
        let b = run_dynamic();
        assert_eq!(a.events(), b.events());
        assert_eq!(a.messages(), b.messages());
    }

    #[test]
    fn direct_sends_outside_the_graph_keep_static_semantics() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};

        /// Sends straight to the far end of the line (never a neighbor).
        #[derive(Debug)]
        struct DirectToLast;
        impl Node<u8> for DirectToLast {
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                let far = ctx.node_count() - 1;
                if ctx.id() == 0 {
                    ctx.send(far, 7);
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, u8>, _f: NodeId, _m: &u8) {}
        }

        // The (0, 3) pair is not a line edge and no churn event touches
        // it, so even an all-edges-down schedule must not drop the send.
        let churn = ChurnSchedule::partition_and_heal(&[(0, 1), (1, 2), (2, 3)], 0.5, 9.0);
        let view = DynamicTopology::new(Topology::line(4), churn).unwrap();
        let exec = SimulationBuilder::new_dynamic(view)
            .build_with(|_, _| DirectToLast)
            .unwrap()
            .try_execute_until(10.0)
            .unwrap();
        assert_eq!(exec.messages().len(), 1);
        assert_eq!(exec.messages()[0].status, MessageStatus::Delivered);
    }

    #[test]
    fn topology_changes_are_dispatched_and_update_neighbors() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};

        /// Records the neighbor count seen at each topology change.
        #[derive(Debug)]
        struct Watch {
            seen: Vec<(f64, usize, bool)>,
        }
        impl Node<u8> for Watch {
            fn on_start(&mut self, _ctx: &mut Context<'_, u8>) {}
            fn on_message(&mut self, _ctx: &mut Context<'_, u8>, _f: NodeId, _m: &u8) {}
            fn on_topology_change(&mut self, ctx: &mut Context<'_, u8>, _peer: NodeId, up: bool) {
                self.seen.push((ctx.hw_now(), ctx.neighbors().len(), up));
            }
        }

        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::periodic_flap(0, 1, 10.0, 25.0),
        )
        .unwrap();
        let exec = SimulationBuilder::new_dynamic(view)
            .build_with(|_, _| Watch { seen: Vec::new() })
            .unwrap()
            .try_execute_until(30.0)
            .unwrap();
        let changes: Vec<_> = exec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TopologyChange { .. }))
            .collect();
        // Two endpoints × two changes (down@10, up@20).
        assert_eq!(changes.len(), 4);
        assert_eq!(
            changes[0].kind,
            EventKind::TopologyChange { peer: 1, up: false }
        );
        assert!((changes[0].time - 10.0).abs() < 1e-12);
    }

    #[test]
    fn in_flight_messages_drop_when_their_link_goes_down() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};
        // Messages take the full distance (delay 1); the link goes down at
        // t = 10, so the sends at hw 10 (arriving 11) must be dropped.
        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::periodic_flap(0, 1, 10.0, 15.0),
        )
        .unwrap();
        let exec = SimulationBuilder::new_dynamic(view)
            .delay_policy(AdversarialDelay::new(|_, _, _, _| DelayOutcome::Delay(1.0)))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap()
            .try_execute_until(14.0)
            .unwrap();
        let dropped: Vec<_> = exec
            .messages()
            .iter()
            .filter(|m| m.status == MessageStatus::Dropped)
            .collect();
        // The sends at t = 10 straddle the outage… and later sends find no
        // neighbors at all (broadcast to an empty live set sends nothing).
        assert!(!dropped.is_empty());
        assert!(dropped.iter().all(|m| m.arrival_time.is_none()));
        for m in exec.messages() {
            if m.status == MessageStatus::Delivered {
                assert!(m.arrival_time.unwrap() < 10.0 + 1e-9);
            }
        }
    }

    #[test]
    fn post_horizon_churn_does_not_leak_into_message_status() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};
        // The link fails at t = 10 — beyond the 9.5 horizon. A message in
        // flight at the horizon (sent 9.0, arrival 10.5) must be recorded
        // InFlight: within the simulated window the failure never
        // happened, and a longer run must be a pure extension.
        let view = DynamicTopology::new(
            Topology::complete(2, 2.0),
            ChurnSchedule::periodic_flap(0, 1, 10.0, 15.0),
        )
        .unwrap();
        let exec = SimulationBuilder::new_dynamic(view)
            .delay_policy(AdversarialDelay::new(|_, _, _, _| DelayOutcome::Delay(1.5)))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap()
            .try_execute_until(9.5)
            .unwrap();
        let last = exec
            .messages()
            .iter()
            .filter(|m| (m.send_time - 9.0).abs() < 1e-9)
            .collect::<Vec<_>>();
        assert!(!last.is_empty());
        assert!(last.iter().all(|m| m.status == MessageStatus::InFlight));
    }

    #[test]
    fn link_down_drop_can_be_disabled() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};
        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::periodic_flap(0, 1, 10.0, 15.0),
        )
        .unwrap();
        let exec = SimulationBuilder::new_dynamic(view)
            .drop_in_flight_on_link_down(false)
            .delay_policy(AdversarialDelay::new(|_, _, _, _| DelayOutcome::Delay(1.0)))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap()
            .try_execute_until(14.0)
            .unwrap();
        assert!(exec
            .messages()
            .iter()
            .all(|m| m.status != MessageStatus::Dropped));
    }

    #[test]
    #[should_panic(expected = "violated the model")]
    fn out_of_bounds_delay_panics() {
        let topology = Topology::line(2);
        let sim = SimulationBuilder::new(topology)
            .delay_policy(AdversarialDelay::new(|_, _, _, _| DelayOutcome::Delay(5.0)))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap();
        let _ = sim.try_execute_until(5.0).unwrap();
    }

    fn sim_with_delay(outcome: fn(NodeId, NodeId, u64, f64) -> DelayOutcome) -> Simulation<f64> {
        SimulationBuilder::new(Topology::line(2))
            .delay_policy(AdversarialDelay::new(outcome))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap()
    }

    #[test]
    fn nan_delay_is_a_typed_error() {
        let sim = sim_with_delay(|_, _, _, _| DelayOutcome::Delay(f64::NAN));
        let err = sim.try_execute_until(5.0).unwrap_err();
        assert_eq!(
            err,
            SimError::NonFiniteDelay {
                from: 0,
                to: 1,
                send_time: 1.0
            }
        );
    }

    #[test]
    fn infinite_arrival_is_a_typed_error() {
        let sim = sim_with_delay(|_, _, _, _| DelayOutcome::ArriveAtHw(f64::INFINITY));
        let err = sim.try_execute_until(5.0).unwrap_err();
        assert!(matches!(
            err,
            SimError::NonFiniteDelay { from: 0, to: 1, .. }
        ));
    }

    #[test]
    fn nan_hw_arrival_is_a_typed_error() {
        let sim = sim_with_delay(|_, _, _, _| DelayOutcome::ArriveAtHw(f64::NAN));
        let err = sim.try_execute_until(5.0).unwrap_err();
        assert!(matches!(err, SimError::NonFiniteDelay { .. }));
    }

    #[test]
    fn non_finite_horizon_is_a_typed_error() {
        for horizon in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut sim = line_sim(2, &[1.0, 1.0]);
            // NaN defeats `==`, so match structurally on the variant.
            assert!(
                matches!(
                    sim.try_run_until_observed(horizon, &mut []),
                    Err(SimError::InvalidHorizon { horizon: h }) if h.to_bits() == horizon.to_bits()
                ),
                "horizon {horizon}"
            );
        }
    }

    #[test]
    fn non_finite_clock_source_is_rejected_at_build() {
        /// A deliberately broken source: node 1's rate is NaN.
        struct NanClock;
        impl ClockSource for NanClock {
            fn node_count(&self) -> usize {
                2
            }
            fn rate_at(&self, node: usize, _t: f64) -> f64 {
                if node == 1 {
                    f64::NAN
                } else {
                    1.0
                }
            }
            fn value_at(&self, node: usize, t: f64) -> f64 {
                self.rate_at(node, 0.0) * t
            }
            fn time_at_value(&self, node: usize, value: f64) -> f64 {
                value / self.rate_at(node, 0.0)
            }
            fn live_segments(&self) -> usize {
                0
            }
            fn materialize_prefix(&self, _horizon: f64) -> Vec<RateSchedule> {
                Vec::new()
            }
        }
        let err = SimulationBuilder::new(Topology::line(2))
            .drift_source(NanClock)
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap_err();
        assert_eq!(err, SimError::NonFiniteRate { node: 1 });
    }

    #[test]
    fn poisoned_runs_report_the_first_error_once() {
        // After an error the remaining queued sends drain without
        // clobbering the action buffers; a second advance still works on
        // the (poisoned but non-corrupt) queue.
        let mut sim = sim_with_delay(|_, _, _, _| DelayOutcome::Delay(f64::NAN));
        let err = sim.try_run_until_observed(5.0, &mut []).unwrap_err();
        assert!(matches!(err, SimError::NonFiniteDelay { .. }));
        // The engine must not have corrupted its heap: driving it again
        // either progresses or errors again, but never panics.
        let _ = sim.try_run_until_observed(5.0, &mut []);
    }

    #[test]
    fn chunked_runs_match_one_shot_exactly() {
        let one_shot = line_sim(4, &[1.05, 1.0, 0.95, 1.01])
            .try_execute_until(50.0)
            .unwrap();
        let mut sim = line_sim(4, &[1.05, 1.0, 0.95, 1.01]);
        for h in [7.0, 7.0, 13.5, 31.0, 50.0] {
            sim.try_run_until_observed(h, &mut []).unwrap();
        }
        let chunked = sim.into_execution();
        assert_eq!(one_shot.events(), chunked.events());
        assert_eq!(one_shot.messages(), chunked.messages());
        assert!((one_shot.horizon() - chunked.horizon()).abs() < 1e-15);
    }

    #[test]
    fn chunked_dynamic_runs_match_one_shot_exactly() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};
        let build = || {
            let view = DynamicTopology::new(
                Topology::line(2),
                ChurnSchedule::periodic_flap(0, 1, 10.0, 15.0),
            )
            .unwrap();
            SimulationBuilder::new_dynamic(view)
                .delay_policy(AdversarialDelay::new(|_, _, _, _| DelayOutcome::Delay(1.0)))
                .build_with(|_, _| MaxTest { period: 1.0 })
                .unwrap()
        };
        let one_shot = build().try_execute_until(14.0).unwrap();
        let mut sim = build();
        // Pause inside the outage window, where in-flight drops straddle
        // the chunk boundary.
        sim.try_run_until_observed(9.5, &mut []).unwrap();
        sim.try_run_until_observed(10.5, &mut []).unwrap();
        sim.try_run_until_observed(14.0, &mut []).unwrap();
        let chunked = sim.into_execution();
        assert_eq!(one_shot.events(), chunked.events());
        assert_eq!(one_shot.messages(), chunked.messages());
    }

    #[test]
    fn step_walks_the_same_event_sequence() {
        /// Keeps every event record it is handed.
        #[derive(Default)]
        struct Records(Vec<EventRecord>);
        impl Observer for Records {
            fn on_event(&mut self, _view: &Probe<'_>, event: &EventRecord) {
                self.0.push(event.clone());
            }
        }

        let exec = line_sim(3, &[1.1, 1.0, 0.9])
            .try_execute_until(12.0)
            .unwrap();
        // A step is a run call to the next event time.
        let mut times: Vec<f64> = exec.events().iter().map(|e| e.time).collect();
        times.dedup();
        let mut sim = line_sim(3, &[1.1, 1.0, 0.9]);
        let mut stepped = Records::default();
        for t in times {
            sim.try_run_until_observed(t, &mut [&mut stepped]).unwrap();
        }
        assert_eq!(exec.events(), stepped.0.as_slice());
    }

    #[test]
    fn now_tracks_the_frontier_and_extension_works() {
        let mut sim = line_sim(2, &[1.0, 1.0]);
        assert_eq!(sim.now(), 0.0);
        sim.try_run_until_observed(5.0, &mut []).unwrap();
        assert_eq!(sim.now(), 5.0);
        sim.try_run_until_observed(30.0, &mut []).unwrap();
        let exec = sim.into_execution();
        assert_eq!(exec.horizon(), 30.0);
        // Extension really simulated the extra window.
        assert!(exec.events().iter().any(|e| e.time > 5.0));
    }

    #[test]
    fn observers_probe_on_the_configured_grid() {
        use crate::observer::{GlobalSkewObserver, Observer};

        #[derive(Default)]
        struct ProbeTimes(Vec<f64>);
        impl Observer for ProbeTimes {
            fn on_probe(&mut self, view: &Probe<'_>) {
                self.0.push(view.time());
            }
        }

        let mut sim = line_sim(2, &[1.2, 1.0]);
        sim.set_probe_schedule(0.0, 2.5);
        let mut times = ProbeTimes::default();
        let mut skew = GlobalSkewObserver::new();
        sim.try_run_until_observed(10.0, &mut [&mut times, &mut skew])
            .unwrap();
        assert_eq!(times.0, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
        assert_eq!(skew.probes(), 5);
        assert!(skew.worst() > 0.0, "rate-1.2 node must lead");
        // Extending fires only the *new* probes.
        sim.try_run_until_observed(15.0, &mut [&mut times, &mut skew])
            .unwrap();
        assert_eq!(times.0.len(), 7);
    }

    #[test]
    fn counters_account_for_the_wall_time_on_both_engines() {
        let builder = || {
            let rates = (0..8u8).map(|i| RateSchedule::constant(1.0 + 0.01 * f64::from(i)));
            SimulationBuilder::new(Topology::ring(8))
                .schedules(rates.collect())
                .record_events(false)
        };
        let mut sim = builder()
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap();
        sim.set_probe_schedule(0.0, 1.0);
        let wall = Instant::now();
        sim.try_run_until_observed(50.0, &mut []).unwrap();
        sim.try_run_until_observed(100.0, &mut []).unwrap();
        sim.try_run_until_observed(150.0, &mut []).unwrap();
        let wall_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap();
        let heap = sim.counters();
        let [row] = heap.shards.as_slice() else {
            panic!("one partition is one row: {heap:?}");
        };
        assert_eq!(row.windows, 3);
        assert_eq!(row.events, sim.stats().dispatched);
        assert!(row.run_ns > 0 && heap.probe_ns > 0, "{heap:?}");
        assert!(
            row.run_ns + heap.probe_ns <= wall_ns,
            "{heap:?} vs {wall_ns}"
        );

        for k in [1, 2] {
            let mut sharded = builder()
                .shards(k)
                .build_with(|_, _| MaxTest { period: 1.0 })
                .unwrap();
            sharded.try_run_until_observed(150.0, &mut []).unwrap();
            let counters = sharded.counters();
            assert_eq!(counters.shards.len(), k);
            let events: u64 = counters.shards.iter().map(|s| s.events).sum();
            let dispatched = sharded.stats().dispatched;
            assert_eq!((events, dispatched), (row.events, row.events));
        }
    }

    #[test]
    fn streaming_mode_recycles_message_slots() {
        let topology = Topology::line(2);
        let sim = SimulationBuilder::new(topology)
            .record_events(false)
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap();
        let mut sim = sim;
        // Paused between a send at 250 and its arrival at 250.5: every
        // queued event but the two nodes' armed timers is a delivery, and
        // each holds exactly one occupied slot.
        sim.try_run_until_observed(250.25, &mut []).unwrap();
        let stats = sim.stats();
        let occupied = stats.message_slots - stats.free_message_slots;
        assert_eq!(occupied, stats.queued_events - 2, "{stats:?}");
        assert!(occupied > 0, "the pause falls between two sends");
        sim.try_run_until_observed(500.0, &mut []).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.recorded_events, 0);
        // ~1000 messages were exchanged, but the log stays at the peak
        // in-flight count (each node has at most one message in flight
        // at the default half-distance delay).
        assert!(
            stats.message_slots <= 4,
            "streaming run leaked message slots: {stats:?}"
        );
        let exec = sim.into_execution();
        assert!(exec.events().is_empty());
        assert!(exec.messages().is_empty());
        assert_eq!(exec.horizon(), 500.0);
    }

    #[test]
    fn streaming_mode_with_probes_compacts_trajectories() {
        let run = |record: bool| {
            let mut sim = SimulationBuilder::new(Topology::line(2))
                .schedules(vec![
                    RateSchedule::constant(1.2),
                    RateSchedule::constant(1.0),
                ])
                .record_events(record)
                .build_with(|_, _| MaxTest { period: 1.0 })
                .unwrap();
            sim.set_probe_schedule(0.0, 1.0);
            sim.try_run_until_observed(400.0, &mut []).unwrap();
            sim.stats().trajectory_breakpoints
        };
        let recorded = run(true);
        let streamed = run(false);
        assert!(
            streamed * 10 < recorded,
            "compaction should shrink trajectories: {streamed} vs {recorded}"
        );
    }

    #[test]
    fn streaming_metrics_match_recorded_replay() {
        use crate::observer::{observe_execution, GlobalSkewObserver, GradientProfileObserver};

        let make = || line_sim(4, &[1.05, 1.0, 0.95, 1.01]);

        // Live streaming path, no recording.
        let mut live_sim = {
            let schedules = [1.05, 1.0, 0.95, 1.01]
                .iter()
                .map(|&r| RateSchedule::constant(r))
                .collect();
            SimulationBuilder::new(Topology::line(4))
                .schedules(schedules)
                .record_events(false)
                .build_with(|_, _| MaxTest { period: 1.0 })
                .unwrap()
        };
        live_sim.set_probe_schedule(0.0, 0.5);
        let mut live_global = GlobalSkewObserver::new();
        let mut live_profile = GradientProfileObserver::new();
        live_sim
            .try_run_until_observed(64.0, &mut [&mut live_global, &mut live_profile])
            .unwrap();

        // Post-hoc path: record, then replay the observers.
        let exec = make().try_execute_until(64.0).unwrap();
        let mut replay_global = GlobalSkewObserver::new();
        let mut replay_profile = GradientProfileObserver::new();
        observe_execution(
            &exec,
            0.0,
            0.5,
            &mut [&mut replay_global, &mut replay_profile],
        );

        assert_eq!(live_global.worst(), replay_global.worst());
        assert_eq!(live_global.worst_at(), replay_global.worst_at());
        assert_eq!(live_global.probes(), replay_global.probes());
        assert_eq!(live_profile.rows(), replay_profile.rows());
    }

    #[test]
    fn drift_source_count_mismatch_is_an_error() {
        use gcs_clocks::{drift::DriftModel, DriftBound, LazyDriftSource};
        let model = DriftModel::new(DriftBound::new(0.05).unwrap(), 5.0, 0.01);
        let err = SimulationBuilder::new(Topology::line(3))
            .drift_source(LazyDriftSource::new(model, 1, 2))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ScheduleCount {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn lazy_source_records_identically_to_eager_schedules() {
        use gcs_clocks::{drift::DriftModel, DriftBound, LazyDriftSource};
        let model = DriftModel::new(DriftBound::new(0.02).unwrap(), 4.0, 0.005);
        let n = 5;
        let horizon = 120.0;
        let eager = SimulationBuilder::new(Topology::line(n))
            .schedules(model.generate_network(17, n, horizon))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap()
            .try_execute_until(horizon)
            .unwrap();
        let lazy = SimulationBuilder::new(Topology::line(n))
            .drift_source(LazyDriftSource::new(model, 17, n).with_walk_horizon(horizon))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap()
            .try_execute_until(horizon)
            .unwrap();
        assert_eq!(eager.events(), lazy.events());
        assert_eq!(eager.messages(), lazy.messages());
        assert_eq!(eager.schedules(), lazy.schedules());
        assert_eq!(eager.trajectories(), lazy.trajectories());
    }

    #[test]
    fn lazy_streaming_run_holds_o1_schedule_segments() {
        use gcs_clocks::{drift::DriftModel, DriftBound, LazyDriftSource};
        let model = DriftModel::new(DriftBound::new(0.02).unwrap(), 2.0, 0.005);
        let n = 4;
        let horizon = 4000.0; // 2000 walk steps per node if held eagerly
        let mut sim = SimulationBuilder::new(Topology::ring(n))
            .drift_source(LazyDriftSource::new(model, 3, n))
            .record_events(false)
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap();
        sim.set_probe_schedule(0.0, 5.0);
        let mut peak = 0;
        for k in 1..=40 {
            sim.try_run_until_observed(horizon * f64::from(k) / 40.0, &mut [])
                .unwrap();
            peak = peak.max(sim.stats().live_schedule_segments);
        }
        // Window 64 at step 2 = 128 time units/window; the live window
        // stays a couple of windows per node, far below the ~2000
        // segments/node an eager schedule would pin for this horizon.
        assert!(
            peak <= n * 3 * 64,
            "live schedule segments grew with the horizon: {peak}"
        );
        // An eager run of the same scenario really is O(horizon).
        let eager_total: usize = model
            .generate_network(3, n, horizon)
            .iter()
            .map(|s| s.segments().len())
            .sum();
        assert!(eager_total > peak * 2, "eager baseline: {eager_total}");
    }

    #[test]
    fn dynamic_lazy_source_defers_topo_change_readings() {
        use gcs_clocks::{drift::DriftModel, DriftBound, LazyDriftSource};
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};
        let model = DriftModel::new(DriftBound::new(0.02).unwrap(), 2.0, 0.005);
        let source = LazyDriftSource::new(model, 5, 2);
        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::periodic_flap(0, 1, 500.0, 2000.0),
        )
        .unwrap();
        let mut sim = SimulationBuilder::new_dynamic(view)
            .drift_source(source)
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap();
        // Enqueuing the churn timeline (changes out to t = 2000) must
        // not force the walk out to the last change.
        sim.try_run_until_observed(0.0, &mut []).unwrap();
        assert!(sim.stats().queued_events > 0);
        let stats = sim.stats();
        assert!(
            stats.live_schedule_segments <= 2 * 2 * 64,
            "enqueuing churn materialized the walk: {}",
            stats.live_schedule_segments
        );
        // And the run still dispatches the changes with exact readings.
        sim.try_run_until_observed(600.0, &mut []).unwrap();
        let exec = sim.into_execution();
        let change = exec
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::TopologyChange { .. }))
            .expect("flap at 500 dispatched");
        assert_eq!(change.hw, exec.schedules()[change.node].value_at(500.0));
    }

    #[test]
    fn arrive_at_hw_pins_receiver_reading() {
        let topology = Topology::line(2);
        // Receiver (node 1) runs at rate 2. Pin delivery at hw reading 2.5
        // => real time 1.25, send at 1.0 (sender rate 1), delay 0.25 <= 1.
        let schedules = vec![RateSchedule::constant(1.0), RateSchedule::constant(2.0)];
        let sim = SimulationBuilder::new(topology)
            .schedules(schedules)
            .delay_policy(AdversarialDelay::new(|from, _, _, _| {
                if from == 0 {
                    DelayOutcome::ArriveAtHw(2.5)
                } else {
                    DelayOutcome::Delay(0.5)
                }
            }))
            .build_with(|_, _| MaxTest { period: 1.0 })
            .unwrap();
        let exec = sim.try_execute_until(1.5).unwrap();
        let m = exec
            .messages()
            .iter()
            .find(|m| m.from == 0)
            .expect("node 0 sent");
        assert_eq!(m.arrival_hw, Some(2.5));
        assert!((m.arrival_time.unwrap() - 1.25).abs() < 1e-12);
        let ev = exec
            .events()
            .iter()
            .find(|e| e.node == 1 && matches!(e.kind, EventKind::Deliver { .. }))
            .expect("delivered");
        assert_eq!(ev.hw, 2.5); // exact, not recomputed
    }
}
