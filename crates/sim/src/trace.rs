//! Deterministic sim-domain tracing: the engine-side hook.
//!
//! A [`Tracer`] attached to a [`crate::Simulation`] (via
//! [`crate::Simulation::set_tracer`]) receives one structured
//! [`TraceEvent`] for every observable step of the dispatch loop: node
//! starts, message sends, deliveries, drops (with the reason), timer
//! fires, link changes, and observer probes. Events carry only
//! *sim-domain* quantities — real times, hardware readings, logical
//! values — never wall-clock time, so a trace is bit-stable across
//! runs, replayable, and invariant under sweep thread counts.
//!
//! The trait is deliberately tiny; recorders (full and ring-buffer),
//! the Chrome-trace-event exporter, metrics collection, and skew
//! forensics all live in the `gcs-telemetry` crate, which depends on
//! this one.
//!
//! # Stream contract
//!
//! The event stream is identical in recorded and streaming mode
//! ([`crate::SimulationBuilder::record_events`]`(false)`): every hook
//! fires before any mode-specific bookkeeping (the message log, slot
//! recycling). Within one dispatched engine
//! event the order is: due [`TraceEvent::ProbeFired`]s, then the
//! dispatch event itself (with post-callback hardware/logical
//! readings), then one [`TraceEvent::Send`] per message the callback
//! sent, in send order (a loss-dropped send is immediately followed by
//! its [`TraceEvent::Drop`]). Messages still in flight when
//! [`crate::Simulation::into_execution`] reconciles the record do not
//! produce drop events — they never resolved inside the simulated
//! window.

use crate::{NodeId, TimerId};

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The delay policy declared the message lost at send time.
    Loss,
    /// The message's tracked link went down between send and scheduled
    /// arrival (dynamic topologies with
    /// [`crate::SimulationBuilder::drop_in_flight_on_link_down`]).
    LinkDown,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::Loss => write!(f, "loss"),
            DropReason::LinkDown => write!(f, "link-down"),
        }
    }
}

/// One structured sim-domain trace event.
///
/// `hw`/`logical` fields are the acting node's hardware reading and
/// logical clock value *after* its callback ran, so an adoption (a
/// delivery that jumped the logical clock) shows the adopted value.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A node's start callback ran at real time 0.
    NodeStarted {
        /// Real time (always 0 for starts).
        time: f64,
        /// The starting node.
        node: NodeId,
        /// Hardware reading at dispatch.
        hw: f64,
        /// Logical clock value after the callback.
        logical: f64,
    },
    /// A message left its sender. `arrival` is the scheduled delivery
    /// time (`None` when the delay policy dropped it at send).
    Send {
        /// Real send time.
        time: f64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Per-`(from, to)` send sequence number.
        seq: u64,
        /// Sender's hardware reading at send.
        hw: f64,
        /// Scheduled arrival time, `None` for a loss drop.
        arrival: Option<f64>,
    },
    /// A message was delivered and its receiver's callback ran.
    Deliver {
        /// Real delivery time.
        time: f64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Per-`(from, to)` send sequence number.
        seq: u64,
        /// When the message was sent (so `time - send_time` is the
        /// realized delay).
        send_time: f64,
        /// Receiver's hardware reading at delivery.
        hw: f64,
        /// Receiver's logical value after the callback.
        logical: f64,
    },
    /// A message was dropped. For [`DropReason::Loss`] this fires at
    /// send time, right after the [`TraceEvent::Send`]; for
    /// [`DropReason::LinkDown`] it fires when the doomed delivery came
    /// due.
    Drop {
        /// Real time of the drop.
        time: f64,
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Per-`(from, to)` send sequence number.
        seq: u64,
        /// When the message was sent.
        send_time: f64,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A timer fired and its node's callback ran.
    TimerFired {
        /// Real fire time.
        time: f64,
        /// The node whose timer fired.
        node: NodeId,
        /// The timer id returned by `Context::set_timer`.
        id: TimerId,
        /// Hardware reading at the fire (the timer's target).
        hw: f64,
        /// Logical value after the callback.
        logical: f64,
    },
    /// A link incident to `node` changed state (dynamic topologies).
    LinkChanged {
        /// Real time of the change.
        time: f64,
        /// The notified endpoint.
        node: NodeId,
        /// The other endpoint.
        peer: NodeId,
        /// `true` when the link came up.
        up: bool,
        /// Hardware reading at dispatch.
        hw: f64,
    },
    /// An observer probe fired (see
    /// [`crate::Simulation::set_probe_schedule`]).
    ProbeFired {
        /// The probe's real time.
        time: f64,
        /// The probe's index on the grid (probe `k` fires at
        /// `from + k · every`).
        index: u64,
    },
}

impl TraceEvent {
    /// The event's real time.
    #[must_use]
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::NodeStarted { time, .. }
            | TraceEvent::Send { time, .. }
            | TraceEvent::Deliver { time, .. }
            | TraceEvent::Drop { time, .. }
            | TraceEvent::TimerFired { time, .. }
            | TraceEvent::LinkChanged { time, .. }
            | TraceEvent::ProbeFired { time, .. } => time,
        }
    }

    /// A short lowercase tag naming the event kind (`"send"`,
    /// `"deliver"`, …) — the key metric registries count by.
    #[must_use]
    pub fn kind_tag(&self) -> &'static str {
        match self {
            TraceEvent::NodeStarted { .. } => "start",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::TimerFired { .. } => "timer",
            TraceEvent::LinkChanged { .. } => "link",
            TraceEvent::ProbeFired { .. } => "probe",
        }
    }
}

/// A sink for engine trace events.
///
/// Implementations must be deterministic functions of the event stream
/// (no wall clock, no ambient randomness) to preserve the engine's
/// bit-stability contract. The engine owns the tracer for the duration
/// of the run; implementations that need to share the collected data
/// with the caller typically keep it behind an `Rc<RefCell<…>>` handle
/// (see `gcs-telemetry`'s `TraceRecorder`).
pub trait Tracer {
    /// Called once per trace event, in deterministic dispatch order.
    fn record(&mut self, event: &TraceEvent);
}

impl<T: Tracer + ?Sized> Tracer for Box<T> {
    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event);
    }
}
