//! Network topologies and message-delay models.
//!
//! In the Fan-Lynch model, the *distance* `d_ij` between nodes `i` and `j`
//! is the uncertainty in their message delay: a message from `i` to `j`
//! takes between `0` and `d_ij` time to arrive. The network *diameter* is
//! `D = max_ij d_ij`, and distances are normalized so `min_ij d_ij = 1`.
//!
//! This crate provides:
//!
//! - [`Topology`]: a node set with symmetric distances, plus constructors
//!   for the standard shapes (line, ring, grid, complete, star: distances
//!   by formula, no matrix; random geometric graphs: from their points) and
//!   a neighbor relation used by algorithms that only talk to nearby nodes.
//! - [`DelayPolicy`]: the adversary's (or environment's) choice of message
//!   delays, always bounded by `[0, d_ij]`. Implementations include the
//!   nominal half-distance policy, seeded uniform-random delays, and
//!   near-zero uncertainty broadcast (the RBS setting). The lower-bound
//!   constructions replay recorded executions through `gcs-core`'s
//!   `HwReplayDelay`, which pins deliveries by receiver hardware reading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod topology;

pub use delay::{
    AdversarialDelay, BroadcastDelay, DelayOutcome, DelayPolicy, FixedFractionDelay, LossyDelay,
    UniformDelay,
};
pub use topology::{Topology, TopologyError};
