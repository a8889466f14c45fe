//! Deterministic observability for GCS simulations: trace recording,
//! Chrome-trace export, metrics, and skew forensics.
//!
//! The engine (`gcs-sim`) emits structured sim-domain
//! [`TraceEvent`]s — message lifecycle, timer fires, link changes,
//! probe emissions — to any attached [`Tracer`]. This crate supplies
//! the consumers:
//!
//! - [`TraceRecorder`] — a clonable-handle sink: the full trace
//!   (recorded mode) or a bounded ring of the last N events (streaming
//!   mode, the vopr "black box").
//! - [`chrome_trace_json`] / [`validate_chrome_trace`] — export a trace
//!   as Chrome trace-event JSON (one track per node, message lifecycles
//!   as async begin/end pairs), loadable in `chrome://tracing` or
//!   Perfetto, plus a dependency-free structural validator.
//! - [`trace_fingerprint`] / [`render_trace_event`] — bit-exact text
//!   renderings for goldens and counterexample reports, and
//!   [`trace_from_execution`] to reconstruct the stream from a recorded
//!   [`gcs_sim::Execution`] (the replay oracle's other half).
//! - [`MetricsRegistry`] / [`RunMetrics`] — counters, gauges, and
//!   fixed-bucket histograms with deterministic JSON snapshots;
//!   `RunMetrics` is both a [`Tracer`] and a [`gcs_sim::Observer`] that
//!   fills the standard set during a run.
//! - [`skew_explain`] — walk a recorded execution backward along
//!   message causality from a skew peak to the drift stretches, delay
//!   draws, and link changes that produced it.
//!
//! Everything here consumes *simulated*-domain quantities only, so all
//! outputs inherit the engine's determinism: same run, same bytes —
//! across repeats, recording modes, and sweep thread counts. The
//! engine's wall-clock account lives beside it, off the deterministic
//! surface: `counters()` on both engines ([`gcs_sim::ShardedCounters`]).
//!
//! # Example
//!
//! ```
//! use gcs_net::Topology;
//! use gcs_sim::{Context, Node, NodeId, SimulationBuilder};
//! use gcs_telemetry::{chrome_trace_json, validate_chrome_trace, TraceRecorder};
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl Node<u8> for Hello {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
//!         for n in ctx.neighbors().to_vec() {
//!             ctx.send(n, 1);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, u8>, _from: NodeId, _msg: &u8) {}
//! }
//!
//! let recorder = TraceRecorder::recorded();
//! let mut sim = SimulationBuilder::new(Topology::line(2))
//!     .build_with(|_, _| Hello)
//!     .unwrap();
//! sim.set_tracer(Box::new(recorder.clone()));
//! let _exec = sim.try_execute_until(5.0).unwrap();
//! let json = chrome_trace_json(&recorder.events(), 2);
//! let stats = validate_chrome_trace(&json).unwrap();
//! assert_eq!(stats.begins, 2); // one send each way
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod explain;
mod metrics;
mod recorder;

pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeTraceStats};
pub use explain::{skew_explain, CausalStep, SkewExplanation, MAX_STEPS};
pub use metrics::{Histogram, MetricsRegistry, RunMetrics, LATENCY_EDGES, SKEW_EDGES};
pub use recorder::{render_trace_event, trace_fingerprint, trace_from_execution, TraceRecorder};
// The engine-side tracing surface, re-exported so telemetry users need
// one import path.
pub use gcs_sim::{DropReason, TraceEvent, Tracer};
