//! The gradient clock synchronization problem and the Fan-Lynch (PODC 2004)
//! lower-bound constructions, as executable artifacts.
//!
//! # What lives here
//!
//! - [`problem`]: formal definitions — the validity condition
//!   (Requirement 1: logical clocks advance at rate ≥ 1/2) and the
//!   f-gradient property (Requirement 2: `|L_i(t) - L_j(t)| ≤ f(d_ij)`),
//!   with machine checkers for recorded executions.
//! - [`analysis`]: exact pairwise maximum skew and empirical gradient
//!   profiles (observed skew as a function of distance).
//! - [`retiming`]: the indistinguishability principle (Section 3) made
//!   executable. A [`retiming::Retiming`] replaces each node's hardware
//!   clock schedule and moves every recorded event to the real time at
//!   which the *new* schedule reaches the event's recorded hardware
//!   reading. Logical trajectories (functions of hardware time) are
//!   preserved, so the transformed execution is indistinguishable to every
//!   node by construction. Dynamic (churning) executions are re-timed
//!   *together with their churn timeline*: a shared monotone
//!   [`gcs_clocks::TimeWarp`] moves every topology change (a shared
//!   physical event no single node owns), and validation additionally
//!   checks link liveness of every re-timed message and that both
//!   endpoints of each change land at the same warped real time.
//! - [`indist`]: checkers that two executions are indistinguishable
//!   (per-node observation sequences coincide).
//! - [`replay`]: re-run an algorithm under a transformed execution's
//!   schedules and recorded message arrivals, reproducing the transformed
//!   prefix bit-for-bit and then continuing past it — the operation the
//!   main theorem's iteration needs.
//! - [`lower_bound`]: the paper's constructions —
//!   [`lower_bound::AddSkew`] (Lemma 6.1), [`lower_bound::bounded_increase`]
//!   (Lemma 7.1), [`lower_bound::shift`] (the folklore Ω(d) argument,
//!   Section 5), and [`lower_bound::MainTheorem`] (Theorem 8.1, the
//!   Ω(log D / log log D) iteration) — plus the dynamic-network
//!   [`lower_bound::FreshLinkSkew`] (Kuhn–Lenzen–Locher–Oshman §5 style:
//!   shift one side of a newly formed link against the warped churn
//!   timeline, forcing Ω(Δ) skew on the link the instant it appears).
//!
//! # Example: add skew between two nodes of *any* algorithm
//!
//! ```
//! use gcs_clocks::{DriftBound, RateSchedule};
//! use gcs_core::lower_bound::{AddSkew, AddSkewParams};
//! use gcs_net::Topology;
//! use gcs_sim::{Context, Node, NodeId, SimulationBuilder};
//!
//! // A max-style algorithm (simplified Srikanth-Toueg).
//! #[derive(Debug)]
//! struct Max;
//! impl Node<f64> for Max {
//!     fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
//!         ctx.set_timer(1.0);
//!     }
//!     fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _t: u64) {
//!         let v = ctx.logical_now();
//!         ctx.send_to_neighbors(&v);
//!         ctx.set_timer(1.0);
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, f64>, _f: NodeId, m: &f64) {
//!         if *m > ctx.logical_now() {
//!             ctx.set_logical(*m);
//!         }
//!     }
//! }
//!
//! let rho = DriftBound::new(0.5).unwrap();
//! let n = 8;
//! let tau = rho.tau();
//! let horizon = tau * (n as f64 - 1.0);
//! let alpha = SimulationBuilder::new(Topology::line(n))
//!     .schedules(vec![RateSchedule::constant(1.0); n])
//!     .build_with(|_, _| Max)
//!     .unwrap()
//!     .try_execute_until(horizon)
//!     .unwrap();
//!
//! // Lemma 6.1: an indistinguishable execution where nodes 0 and 7 have
//! // at least (7 - 0)/12 more skew.
//! let add_skew = AddSkew::new(rho);
//! let outcome = add_skew.apply(&alpha, AddSkewParams::suffix(0, n - 1)).unwrap();
//! assert!(outcome.report.gain >= outcome.report.guaranteed_gain - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod indist;
pub mod lower_bound;
pub mod problem;
pub mod replay;
pub mod retiming;
