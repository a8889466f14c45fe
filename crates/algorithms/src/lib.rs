//! Clock synchronization algorithms.
//!
//! All algorithms implement [`gcs_sim::Node`] over the shared message type
//! [`SyncMsg`] and are deterministic given their observations, so they can
//! be driven by the lower-bound constructions in `gcs-core` and replayed
//! exactly.
//!
//! | Algorithm | Family | Gradient behaviour |
//! |---|---|---|
//! | [`NoSyncNode`] | baseline | none (skew grows with drift × time) |
//! | [`MaxNode`] | max-based (simplified Srikanth-Toueg) | violates: nearby nodes can be `Θ(D)` apart (Section 2 of the paper) |
//! | [`OffsetMaxNode`] | max with delay compensation | tighter global skew, still no gradient |
//! | [`RbsNode`] | reference broadcast (Elson et al.) | near-zero uncertainty within one broadcast domain |
//! | [`GradientNode`] | bounded-slack gradient | enforces `≈ κ·d` local skew (the paper's §9 conjecture, realized in the style of later work by Locher/Lenzen/Wattenhofer) |
//! | [`GradientRateNode`] | rate-based gradient (extension) | like [`GradientNode`] but smooth (no jumps) |
//! | [`DynamicGradientNode`] | two-tier gradient for churning networks (Kuhn–Lenzen–Locher–Oshman) | weak slack on newly formed edges, tightening to the strong slack over a stabilization window |
//! | [`TreeSyncNode`] | Cristian-style external sync | accurate to the source, no pairwise gradient (the Ostrovsky/Patt-Shamir contrast in §2) |
//!
//! The [`fault`] module adds crash-stop and transient-silence wrappers for
//! the robustness extension experiments.
//!
//! # Example
//!
//! ```
//! use gcs_algorithms::{GradientNode, GradientParams};
//! use gcs_net::Topology;
//! use gcs_sim::SimulationBuilder;
//!
//! let topology = Topology::line(5);
//! let sim = SimulationBuilder::new(topology)
//!     .build_with(|_, _| GradientNode::new(GradientParams::default()))
//!     .unwrap();
//! let exec = sim.try_execute_until(200.0).unwrap();
//! // With perfect clocks and symmetric delays, neighbors stay tight.
//! assert!(exec.skew(0, 1, 200.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamic_gradient;
pub mod fault;
mod gradient;
mod max_sync;
mod no_sync;
mod rbs;
mod tree_sync;

pub use dynamic_gradient::{DynamicGradientNode, DynamicGradientParams};
pub use gradient::{GradientNode, GradientParams, GradientRateNode, GradientRateParams};
pub use max_sync::{MaxNode, MaxParams, OffsetMaxNode, OffsetMaxParams};
pub use no_sync::NoSyncNode;
pub use rbs::{RbsNode, RbsParams};
pub use tree_sync::{TreeSyncNode, TreeSyncParams};

use gcs_sim::{Node, NodeId};

/// The message type shared by all algorithms in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncMsg {
    /// A logical clock sample (max-based and gradient algorithms).
    Clock(f64),
    /// A reference-broadcast beacon with a round number.
    Beacon {
        /// Broadcast round.
        round: u64,
    },
    /// A receiver's recorded logical reading for a beacon round (RBS
    /// second phase).
    Report {
        /// Broadcast round the reading belongs to.
        round: u64,
        /// The reporter's logical clock at beacon receipt.
        reading: f64,
    },
}

/// The algorithm families packaged in this crate, for building mixed or
/// parameterized experiment fleets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmKind {
    /// [`NoSyncNode`].
    NoSync,
    /// [`MaxNode`] with the given broadcast period.
    Max {
        /// Broadcast period in hardware time.
        period: f64,
    },
    /// [`OffsetMaxNode`] with the given period and compensation fraction.
    OffsetMax {
        /// Broadcast period in hardware time.
        period: f64,
        /// Fraction of the distance added to received values.
        compensation: f64,
    },
    /// [`RbsNode`] with the given beacon period.
    Rbs {
        /// Beacon period in hardware time.
        period: f64,
    },
    /// [`GradientNode`] with the given period and slack.
    Gradient {
        /// Broadcast period in hardware time.
        period: f64,
        /// Slack per unit distance.
        kappa: f64,
    },
    /// [`GradientRateNode`] with the given period, threshold and boost.
    GradientRate {
        /// Broadcast period in hardware time.
        period: f64,
        /// Catch-up threshold per unit distance.
        threshold: f64,
        /// Rate multiplier while catching up.
        boost: f64,
    },
    /// [`DynamicGradientNode`] with the given period, strong/weak slacks,
    /// and stabilization window (for churning topologies).
    DynamicGradient {
        /// Broadcast period in hardware time.
        period: f64,
        /// Strong (stable-edge) slack per unit distance.
        kappa_strong: f64,
        /// Weak (new-edge) slack per unit distance.
        kappa_weak: f64,
        /// Stabilization window in hardware time.
        window: f64,
    },
    /// [`TreeSyncNode`] with the given probe period (source is node 0).
    TreeSync {
        /// Probe period in hardware time.
        period: f64,
    },
}

impl AlgorithmKind {
    /// A short stable name for reports and tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::NoSync => "no-sync",
            AlgorithmKind::Max { .. } => "max",
            AlgorithmKind::OffsetMax { .. } => "offset-max",
            AlgorithmKind::Rbs { .. } => "rbs",
            AlgorithmKind::Gradient { .. } => "gradient",
            AlgorithmKind::GradientRate { .. } => "gradient-rate",
            AlgorithmKind::DynamicGradient { .. } => "dynamic-gradient",
            AlgorithmKind::TreeSync { .. } => "tree-sync",
        }
    }

    /// Builds a node of this kind for node `id` in a network of `n` nodes.
    ///
    /// Nodes are `Send` so they can run on either the single-heap or the
    /// sharded (thread-parallel) engine. `n` is accepted for signature
    /// stability with `build_with` closures but no algorithm allocates
    /// O(n) state anymore — per-node state is O(degree) at most.
    #[must_use]
    pub fn build(&self, id: NodeId, _n: usize) -> Box<dyn Node<SyncMsg> + Send> {
        match *self {
            AlgorithmKind::NoSync => Box::new(NoSyncNode::new()),
            AlgorithmKind::Max { period } => Box::new(MaxNode::new(MaxParams { period })),
            AlgorithmKind::OffsetMax {
                period,
                compensation,
            } => Box::new(OffsetMaxNode::new(OffsetMaxParams {
                period,
                compensation,
            })),
            AlgorithmKind::Rbs { period } => {
                Box::new(RbsNode::new(id, RbsParams { period, beacon: 0 }))
            }
            AlgorithmKind::Gradient { period, kappa } => {
                Box::new(GradientNode::new(GradientParams {
                    period,
                    kappa,
                    compensation: 0.0,
                }))
            }
            AlgorithmKind::GradientRate {
                period,
                threshold,
                boost,
            } => Box::new(GradientRateNode::new(GradientRateParams {
                period,
                threshold,
                boost,
            })),
            AlgorithmKind::DynamicGradient {
                period,
                kappa_strong,
                kappa_weak,
                window,
            } => Box::new(DynamicGradientNode::new(DynamicGradientParams {
                period,
                kappa_strong,
                kappa_weak,
                window,
            })),
            AlgorithmKind::TreeSync { period } => {
                Box::new(TreeSyncNode::new(id, TreeSyncParams { period, source: 0 }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_net::Topology;
    use gcs_sim::SimulationBuilder;

    #[test]
    fn kinds_have_distinct_names() {
        let kinds = [
            AlgorithmKind::NoSync,
            AlgorithmKind::Max { period: 1.0 },
            AlgorithmKind::OffsetMax {
                period: 1.0,
                compensation: 0.5,
            },
            AlgorithmKind::Rbs { period: 4.0 },
            AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            },
            AlgorithmKind::GradientRate {
                period: 1.0,
                threshold: 0.5,
                boost: 1.5,
            },
            AlgorithmKind::DynamicGradient {
                period: 1.0,
                kappa_strong: 0.5,
                kappa_weak: 4.0,
                window: 20.0,
            },
            AlgorithmKind::TreeSync { period: 2.0 },
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn every_kind_builds_and_runs() {
        for kind in [
            AlgorithmKind::NoSync,
            AlgorithmKind::Max { period: 1.0 },
            AlgorithmKind::OffsetMax {
                period: 1.0,
                compensation: 0.5,
            },
            AlgorithmKind::Rbs { period: 4.0 },
            AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            },
            AlgorithmKind::GradientRate {
                period: 1.0,
                threshold: 0.5,
                boost: 1.5,
            },
            AlgorithmKind::DynamicGradient {
                period: 1.0,
                kappa_strong: 0.5,
                kappa_weak: 4.0,
                window: 20.0,
            },
            AlgorithmKind::TreeSync { period: 2.0 },
        ] {
            let sim = SimulationBuilder::new(Topology::line(4))
                .build_with(|id, n| kind.build(id, n))
                .unwrap();
            let exec = sim.try_execute_until(20.0).unwrap();
            assert!(
                exec.events().len() >= 4,
                "{} produced no events",
                kind.name()
            );
        }
    }
}
