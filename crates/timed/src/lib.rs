//! `gcs-timed` — clock synchronization as a queryable service.
//!
//! The paper's gradient property bounds the skew between any two nodes,
//! which is exactly the guarantee a *time service* needs to hand out
//! intervals instead of lies. This crate turns a running simulation into
//! such a service:
//!
//! - [`TimeService`] co-drives a [`gcs_sim::Simulation`] through the
//!   engine's non-consuming stepping core. Every probe tick it samples
//!   each node's logical clock, budgets a drift/delay-derived
//!   uncertainty radius, intersects the samples Marzullo-style
//!   ([`marzullo::intersect`]) at quorum, and seals the result as an
//!   immutable [`Snapshot`] with a monotone low-watermark — reads never
//!   go backward across epochs.
//! - [`TimedServer`] serves `now()` / `read_interval()` over `std::net`
//!   TCP (no tokio) with a compact length-prefixed wire format
//!   ([`wire`]); between probes every query is answered from the
//!   pre-encoded frame of the sealed snapshot, so throughput is
//!   memory-bandwidth-bound, not sim-bound. Its one thread is
//!   readiness-driven: it blocks in `poll(2)` over a waker, the listener
//!   and every connection until a descriptor is ready or the next seal
//!   is due, so a read costs the work it does (a median of about 20 µs
//!   on loopback) and an idle daemon past its horizon does not wake at
//!   all. [`ServerHandle::shutdown`] wakes it through a socket pair. A
//!   peer that pipelines without reading is held at a 64 KiB write cap
//!   instead of growing the daemon's memory. There is no idle-sleep
//!   setting because nothing sleeps; see [`server`] for the loop.
//! - [`TimedClient`] is the matching blocking client (two reusable
//!   buffers, no allocation per call) and [`LoadGen`] a closed-loop load
//!   generator reporting requests/sec × p50/p99 while verifying
//!   monotonicity through real sockets.
//!
//! The crate is unix-only. Its private `poll` module holds the one
//! foreign declaration, `ppoll` behind a safe `wait(fds, timeout)`; the
//! lint below denies such code everywhere else in the crate.
//!
//! # Loopback quickstart
//!
//! ```
//! use std::time::Duration;
//! use gcs_algorithms::AlgorithmKind;
//! use gcs_testkit::Scenario;
//! use gcs_timed::{LoadGen, ServerConfig, TimedClient, TimedParams, TimedServer, TimeService};
//!
//! let handle = TimedServer::spawn(
//!     "127.0.0.1:0",
//!     ServerConfig { pace: 200.0, horizon: 50.0, ..ServerConfig::default() },
//!     || {
//!         let sc = Scenario::ring(8)
//!             .algorithm(AlgorithmKind::Gradient { period: 1.0, kappa: 0.5 })
//!             .drift_walk(0.01, 5.0, 0.002)
//!             .uniform_delay(0.2, 0.8)
//!             .record_events(false)
//!             .horizon(50.0);
//!         TimeService::from_scenario(&sc, TimedParams::default())
//!     },
//! )
//! .unwrap();
//!
//! let mut client = TimedClient::connect(handle.addr()).unwrap();
//! let read = client.read_interval().unwrap();
//! assert!(read.lo <= read.hi);
//!
//! let report = LoadGen {
//!     addr: handle.addr().to_string(),
//!     clients: 2,
//!     duration: Duration::from_millis(50),
//! }
//! .run();
//! assert_eq!(report.monotonicity_violations, 0);
//!
//! let report = handle.shutdown();
//! assert_eq!(report.stats.containment_violations, 0);
//! ```

#![deny(unsafe_code)]

pub mod client;
pub mod loadgen;
pub mod marzullo;
mod poll;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod wire;

pub use client::TimedClient;
pub use loadgen::{LoadGen, LoadGenReport};
pub use marzullo::{intersect, TimeInterval};
pub use server::{ServerConfig, ServerHandle, ServerReport, TimedServer};
pub use service::{IntervalRead, ServiceStats, TimeService, TimedParams};
pub use snapshot::{ClockSample, Snapshot};
