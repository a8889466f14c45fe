//! Dynamic-network subsystem for gradient clock synchronization.
//!
//! The Fan–Lynch model fixes the communication graph for the whole
//! execution. This crate lifts that restriction, following the model of
//! Kuhn, Lenzen, Locher & Oshman, *Optimal Gradient Clock Synchronization
//! in Dynamic Networks*: edges appear and disappear while the protocol
//! runs, and a skew guarantee on a newly formed edge is *weak* at first,
//! tightening to the *strong* (stable-edge) guarantee once the edge has
//! existed for a stabilization window.
//!
//! Two types make churn a first-class scenario ingredient:
//!
//! - [`ChurnSchedule`]: a deterministic, seedable list of edge
//!   insert/remove and node join/leave events at simulated times, with
//!   builders for periodic flapping, Poisson random churn at a given rate,
//!   partition-and-heal, and growing/shrinking networks.
//! - [`DynamicTopology`]: a [`gcs_net::Topology`] plus a [`ChurnSchedule`],
//!   compiled into up-interval histories for just the pairs churn touches,
//!   so compiling costs O(n + churn) and the simulation engine's hot path
//!   (link-continuity checks for in-flight messages, link formation times)
//!   is a flag read and at most a binary search.
//!
//! The simulation engine (`gcs-sim`) accepts a [`DynamicTopology`] and
//! turns its edge changes into `TopologyChange` events delivered to the
//! affected nodes; `gcs-algorithms` ships a `DynamicGradientNode`
//! implementing the weak/strong discipline; `gcs-testkit` adds churn-aware
//! scenario builders and the `assert_weak_gradient_property` /
//! `assert_stabilization` oracles.
//!
//! # Example
//!
//! ```
//! use gcs_dynamic::{ChurnSchedule, DynamicTopology};
//! use gcs_net::Topology;
//!
//! // A ring of 8 where one edge flaps every 10 time units.
//! let churn = ChurnSchedule::periodic_flap(0, 1, 10.0, 100.0);
//! let view = DynamicTopology::new(Topology::ring(8), churn).unwrap();
//!
//! assert!(view.link_up_at(0, 1, 5.0));
//! assert!(!view.link_up_at(0, 1, 12.0));
//! // After healing, the edge is "newly formed" until it stabilizes.
//! assert_eq!(view.link_formed_at(0, 1, 25.0), Some(20.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod topology;

pub use churn::{ChurnEvent, ChurnKind, ChurnSchedule};
pub use topology::{DynamicTopology, DynamicTopologyError, EdgeChange};
