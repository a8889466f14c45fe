//! Gradient clock synchronization — a reproduction of Fan & Lynch,
//! *Gradient Clock Synchronization*, PODC 2004.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`clocks`]: hardware clocks with bounded drift ([`clocks::RateSchedule`],
//!   [`clocks::DriftBound`]).
//! - [`net`]: network topologies and message-delay policies.
//! - [`dynamic`]: the dynamic-network subsystem — churn schedules and
//!   time-varying topology views (edges appear/disappear, nodes
//!   join/leave while the protocol runs).
//! - [`sim`]: the deterministic discrete-event simulator and execution
//!   recorder.
//! - [`core`]: the paper's contribution — the gradient clock synchronization
//!   problem, its analysis toolkit, and the executable lower-bound
//!   constructions (Add Skew, Bounded Increase, the Ω(d + log D / log log D)
//!   main theorem).
//! - [`algorithms`]: clock synchronization algorithms (max-based,
//!   delay-compensated, reference-broadcast, and gradient algorithms).
//! - [`experiments`]: the harness that regenerates every quantitative claim
//!   in the paper (see `EXPERIMENTS.md`).
//! - [`telemetry`]: observability over all of the above — deterministic
//!   trace recording with a Chrome-trace exporter, a metrics registry
//!   (counters, gauges, histograms), and skew forensics that walk a
//!   recorded execution backward along message causality.
//! - [`timed`]: clock synchronization as a queryable service — a TCP
//!   daemon that co-drives a simulation and serves bounded-uncertainty
//!   `now()`/`read_interval()` answers from Marzullo-intersected,
//!   monotonically watermarked snapshots sealed once per probe tick.
//!
//! # Quickstart
//!
//! ```
//! use gradient_clock_sync::prelude::*;
//!
//! // A line of 8 nodes, drift bound 1%, gradient algorithm.
//! let topology = Topology::line(8);
//! let rho = DriftBound::new(0.01).unwrap();
//! let drift = DriftModel::new(rho, 25.0, 0.002);
//! let schedules = drift.generate_network(7, topology.len(), 400.0);
//!
//! let sim = SimulationBuilder::new(topology)
//!     .schedules(schedules)
//!     .delay_policy(UniformDelay::new(0.25, 0.75, 99))
//!     .build_with(|_, _| GradientNode::new(GradientParams::default()))
//!     .unwrap();
//! let exec = sim.try_execute_until(400.0).unwrap();
//!
//! // Nearby nodes end up more closely synchronized than faraway nodes.
//! let profile = GradientProfile::measure(&exec, 100.0);
//! assert!(profile.max_skew_at_distance(1.0) <= profile.max_skew_at_distance(7.0) + 1e-9);
//! ```

pub use gcs_algorithms as algorithms;
pub use gcs_clocks as clocks;
pub use gcs_core as core;
pub use gcs_dynamic as dynamic;
pub use gcs_experiments as experiments;
pub use gcs_net as net;
pub use gcs_sim as sim;
pub use gcs_telemetry as telemetry;
pub use gcs_timed as timed;

/// The README's Rust blocks, compiled (and, unless `no_run`, run) as
/// doctests of this crate, so the README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use gcs_algorithms::{
        DynamicGradientNode, DynamicGradientParams, GradientNode, GradientParams, MaxNode,
        MaxParams, NoSyncNode, OffsetMaxNode, RbsNode, SyncMsg,
    };
    pub use gcs_clocks::{drift::DriftModel, DriftBound, PiecewiseLinear, RateSchedule};
    pub use gcs_core::{
        analysis::GradientProfile,
        problem::{GradientFunction, ValidityCondition},
    };
    pub use gcs_dynamic::{ChurnSchedule, DynamicTopology};
    pub use gcs_net::{DelayPolicy, FixedFractionDelay, Topology, UniformDelay};
    pub use gcs_sim::{
        observe_execution, AdjacentSkewObserver, Execution, GlobalSkewObserver,
        GradientProfileObserver, Node, NodeId, Observer, Probe, Simulation, SimulationBuilder,
        ValidityObserver,
    };
    pub use gcs_telemetry::{MetricsRegistry, RunMetrics, TraceEvent, TraceRecorder, Tracer};
    pub use gcs_timed::{
        IntervalRead, LoadGen, LoadGenReport, ServerConfig, Snapshot, TimeInterval, TimeService,
        TimedClient, TimedParams, TimedServer,
    };
}
