//! The paper's lower-bound constructions, executable.
//!
//! - [`AddSkew`] — Lemma 6.1: re-time a nominal suffix so that a chosen
//!   pair of nodes gains `distance/12` extra skew, indistinguishably.
//! - [`bounded_increase`] — Lemma 7.1: measure how fast an algorithm raises
//!   its logical clocks, and the speed-up transformation that converts a
//!   fast increase into a direct gradient violation.
//! - [`shift`] — the folklore `f(d) = Ω(d)` argument of Section 5, realized
//!   as a two-node Add Skew instance.
//! - [`MainTheorem`] — Theorem 8.1: the iterated construction driving any
//!   algorithm to `Ω(log D / log log D)` skew between adjacent nodes.
//! - [`FreshLinkSkew`] — the dynamic-network fresh-link bound
//!   (Kuhn–Lenzen–Locher–Oshman §5 style): shift one side of a newly
//!   formed link together with the warped churn timeline, forcing `Ω(Δ)`
//!   skew on the link the instant it appears.

use gcs_sim::Execution;

use crate::retiming::TOL;

mod add_skew;
pub mod bounded_increase;
mod dynamic_shift;
mod embedding;
mod main_theorem;
pub mod shift;

pub use add_skew::{AddSkew, AddSkewError, AddSkewOutcome, AddSkewParams, AddSkewReport};
pub use dynamic_shift::{
    FreshLinkError, FreshLinkOutcome, FreshLinkParams, FreshLinkReport, FreshLinkSkew,
};
pub use embedding::line_positions;
pub use main_theorem::{
    MainTheorem, MainTheoremConfig, MainTheoremError, MainTheoremReport, RoundReport,
};

/// The first node whose hardware rate leaves 1 (beyond [`TOL`]) somewhere
/// in `[from, to]`: the nominal-rate precondition of Add Skew (over its
/// window) and of the fresh-link construction (over the whole run).
fn first_non_nominal_rate<M>(exec: &Execution<M>, from: f64, to: f64) -> Option<usize> {
    (0..exec.node_count()).find(|&node| {
        exec.schedule(node)
            .rate_range_in(from, to)
            .is_some_and(|(lo, hi)| (lo - 1.0).abs() > TOL || (hi - 1.0).abs() > TOL)
    })
}
