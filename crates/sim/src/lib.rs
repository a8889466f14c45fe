//! A deterministic discrete-event simulator for distributed clock
//! synchronization in the Fan-Lynch (PODC 2004) model.
//!
//! # The model
//!
//! A fixed set of nodes starts executing at real time 0. Node `i` owns a
//! hardware clock `H_i` (a [`gcs_clocks::RateSchedule`], fixed by the
//! adversary up front) and computes a *logical clock* `L_i` from its
//! hardware clock and the messages it receives. Messages between `i` and
//! `j` take between 0 and `d_ij` time, where `d_ij` is the distance from
//! the [`gcs_net::Topology`]; per-message delays are chosen by a
//! [`gcs_net::DelayPolicy`].
//!
//! Nodes never observe real time — the [`Context`] handed to a [`Node`]
//! exposes only hardware clock readings, which is exactly the
//! indistinguishability principle of Section 3 of the paper: two executions
//! in which the same events happen at the same hardware clock readings are
//! indistinguishable to the algorithm.
//!
//! # Dynamic topologies
//!
//! Building over a [`gcs_dynamic::DynamicTopology`] (via
//! [`SimulationBuilder::new_dynamic`]) switches the engine to the
//! dynamic-network model of Kuhn–Lenzen–Locher–Oshman: the live neighbor
//! set follows the churn schedule, each link change is delivered to both
//! endpoints as an [`EventKind::TopologyChange`] event (nodes observe it
//! through the optional [`Node::on_topology_change`] hook, a no-op by
//! default), and a message whose link goes down while it is in flight is
//! dropped (configurable via
//! [`SimulationBuilder::drop_in_flight_on_link_down`]). With an empty
//! churn schedule the dynamic path is event-for-event identical to the
//! static one.
//!
//! # Determinism and replay
//!
//! Executions are completely determined by (topology, hardware schedules,
//! delay decisions, algorithm). All conversions between real time and
//! hardware time go through `RateSchedule`, and delay policies can pin a
//! delivery to an exact *receiver hardware reading*
//! ([`gcs_net::DelayOutcome::ArriveAtHw`]), so the lower-bound machinery in
//! `gcs-core` can replay a transformed execution bit-identically.
//!
//! # Example
//!
//! ```
//! use gcs_clocks::RateSchedule;
//! use gcs_net::{FixedFractionDelay, Topology};
//! use gcs_sim::{Context, Node, NodeId, SimulationBuilder};
//!
//! /// Each node pings its neighbors once, at hardware time 1.
//! #[derive(Debug)]
//! struct Ping {
//!     got: usize,
//! }
//!
//! impl Node<u32> for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         ctx.set_timer(1.0);
//!     }
//!     fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _timer: u64) {
//!         for n in ctx.neighbors().to_vec() {
//!             ctx.send(n, 7);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, msg: &u32) {
//!         assert_eq!(*msg, 7);
//!         self.got += 1;
//!     }
//! }
//!
//! let topology = Topology::line(3);
//! let delay = FixedFractionDelay::for_topology(&topology, 0.5);
//! let sim = SimulationBuilder::new(topology)
//!     .schedules(vec![RateSchedule::default(); 3])
//!     .delay_policy(delay)
//!     .build_with(|_, _| Ping { got: 0 })
//!     .unwrap();
//! let exec = sim.try_execute_until(10.0).unwrap();
//! assert_eq!(exec.messages().len(), 4); // 2 ends × 1 + middle × 2
//! ```
//!
//! # Running, streaming, and observers
//!
//! [`Simulation`] has one fallible method per operation:
//! [`Simulation::try_run_until_observed`] advances in place (call it again
//! with a larger horizon to extend the run, or with every event time in
//! turn to step through it), and [`Simulation::into_execution`] finalizes
//! the record. [`Simulation::try_execute_until`] runs to a horizon and
//! finalizes in one call. Every error is a [`SimError`]. [`Observer`]s
//! ([`observer`] module) stream metrics — global skew, worst adjacent
//! skew, gradient profiles, validity — during the run at a configurable
//! probe cadence; with [`SimulationBuilder::record_events`]`(false)` such
//! metric runs hold memory proportional to the network's in-flight state,
//! not the execution's length. The same observers replay over recorded
//! executions via [`observe_execution`], so streaming and post-hoc metrics
//! are one implementation.
//!
//! # Tracing and wall-clock counters
//!
//! A [`Tracer`] ([`trace`] module) attached via [`Simulation::set_tracer`]
//! receives every structured sim-domain [`TraceEvent`] — message lifecycle,
//! timer fires, link changes, probes — in deterministic dispatch order;
//! recorders, exporters, metrics, and skew forensics live in
//! `gcs-telemetry`. Where a run's wall time went is always counted:
//! [`Simulation::counters`] returns [`ShardedCounters`], one row per
//! shard. The counters read the clock twice per run call or window and
//! twice per probe batch, never per event.
//!
//! # Sharded parallel runs
//!
//! [`SimulationBuilder::shards`] splits the topology into that many
//! partitions, each one dispatch core with its own queue of pending events:
//! a heap of those the current run call can reach, and an unsorted list of
//! the rest. One partition (the default) dispatches inline on the calling
//! thread. Several dispatch in parallel on scoped threads, in
//! conservative windows set by the delay policy's
//! [`gcs_net::DelayPolicy::min_delay_bound`] lookahead, and need a clock
//! source and a delay policy that can fork. Executions are bit-identical
//! for every shard count. A tracer needs one partition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
mod engine;
mod event;
mod execution;
mod node;
pub mod observer;
mod partition;
mod placement;
mod send_seq;
mod shard;
pub mod trace;

pub use calendar::{CalendarItem, CalendarQueue};
pub use engine::{
    ShardedSimulation, SimError, SimStats, Simulation, SimulationBuilder, DEFAULT_EVENT_CAP,
};
pub use event::{EventKind, EventRecord, MessageRecord, MessageStatus, TimerId};
pub use execution::Execution;
// Clock sources are part of the engine's build surface
// ([`SimulationBuilder::drift_source`]); re-exported for convenience.
pub use gcs_clocks::{ClockSource, EagerSchedule, LazyDriftSource};
pub use node::{Context, Node};
pub use observer::{
    observe_execution, AdjacentSkewObserver, GlobalSkewObserver, GradientProfileObserver, Observer,
    Probe, ValidityObserver,
};
pub use shard::{ShardCounters, ShardedCounters};
pub use trace::{DropReason, TraceEvent, Tracer};

/// Index of a node in the network (`0..topology.len()`).
pub type NodeId = usize;
