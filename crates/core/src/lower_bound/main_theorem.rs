//! Theorem 8.1 — the `Ω(log D / log log D)` lower bound, executable.
//!
//! The construction iterates on a line of `D` nodes:
//!
//! 1. Run a *nominal* execution `α₀` (all rates 1, all delays `d/2`) for
//!    `τ·(D-1)` time; pick the endpoints as the initial pair (span
//!    `n₀ = D-1`).
//! 2. Round `k`: apply the Add Skew lemma to the current pair
//!    `(i_k, j_k)` with span `n_k`, gaining `n_k/12` skew; then *extend*
//!    the transformed execution by replaying the algorithm for
//!    `≈ τ·n_{k+1}` further time under nominal conditions. The Bounded
//!    Increase lemma caps how much skew the algorithm can remove during
//!    the extension: with the paper's constants, exactly half the gain.
//! 3. Pigeonhole: inside the old pair's span, some sub-pair with span
//!    `n_{k+1} = n_k/σ` holds a proportional share of the skew. Recurse.
//!
//! After `k` rounds some adjacent pair (distance 1) carries skew `≥ k/24`,
//! and `k` can reach `Ω(log D / log log D)` before spans shrink below 1.
//!
//! The paper's shrink factor `σ = 384·τ·f(1)` is loose for proof
//! convenience; at laptop-scale `D` it would terminate after one round, so
//! [`MainTheoremConfig`] exposes `σ` (and the extension length) as
//! parameters, defaulting to a practical value. The skews reported are
//! *measured* from the constructed executions, so every number in the
//! report is witnessed, whatever the constants.

use std::fmt;

use gcs_clocks::{DriftBound, RateSchedule};
use gcs_net::{FixedFractionDelay, Topology};
use gcs_sim::{Execution, Node, NodeId, SimError, SimulationBuilder};

use crate::indist::{event_distinctions, Window};
use crate::replay::replay_simulation;

use super::add_skew::{AddSkew, AddSkewError, AddSkewParams};

/// Configuration of the iterated construction.
#[derive(Debug, Clone, Copy)]
pub struct MainTheoremConfig {
    /// Number of nodes `D` on the line (diameter `D-1`).
    pub nodes: usize,
    /// Drift bound `ρ`.
    pub bound: DriftBound,
    /// Span shrink factor `σ > 1` between rounds (`n_{k+1} = ⌊n_k/σ⌋`).
    /// The paper uses `384·τ·f(1)`; the practical default is 4.
    pub shrink: f64,
    /// Extension length as a multiple of `τ·n_{k+1}` (the paper uses 1).
    pub extension_factor: f64,
    /// Extra extension padding, in units of the maximum neighbor distance,
    /// that lets boundary messages drain before the next nominal window
    /// begins (so the next round's preconditions hold exactly). Default 2.
    pub drain_pad: f64,
    /// Hard cap on rounds.
    pub max_rounds: usize,
    /// Whether to verify that each replayed prefix matches the predicted
    /// transformed execution exactly (bitwise hardware readings).
    pub fidelity_check: bool,
}

impl MainTheoremConfig {
    /// A practical configuration for `nodes` nodes with drift `ρ`.
    #[must_use]
    pub fn practical(nodes: usize, bound: DriftBound) -> Self {
        Self {
            nodes,
            bound,
            shrink: 4.0,
            extension_factor: 1.0,
            drain_pad: 2.0,
            max_rounds: 64,
            fidelity_check: true,
        }
    }

    /// The paper's constants: `σ = 384·τ·f1` for a claimed gradient value
    /// `f1 = f(1)`. Requires astronomically large `D` for multiple rounds;
    /// provided for fidelity experiments.
    #[must_use]
    pub fn paper(nodes: usize, bound: DriftBound, f1: f64) -> Self {
        Self {
            shrink: 384.0 * bound.tau() * f1,
            ..Self::practical(nodes, bound)
        }
    }
}

/// Measurements from one round of the construction.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index `k` (0-based).
    pub k: usize,
    /// The pair `(fast, slow)` the round targeted.
    pub pair: (usize, usize),
    /// The pair's span `n_k`.
    pub span: usize,
    /// Directed skew `L_fast - L_slow` at the start of the round.
    pub skew_start: f64,
    /// Skew gained by the Add Skew transformation.
    pub add_skew_gain: f64,
    /// Directed skew right after the transformation.
    pub skew_after_transform: f64,
    /// Directed skew at the end of the extension.
    pub skew_after_extension: f64,
    /// The next pair chosen by pigeonholing, with its span.
    pub next_pair: (usize, usize),
    /// Directed skew of the next pair at the end of the extension.
    pub next_pair_skew: f64,
    /// Best adjacent (distance-1) skew magnitude anywhere on the line at
    /// the end of the round.
    pub best_adjacent_skew: f64,
    /// The paper's guaranteed adjacent skew after this many rounds,
    /// `(k+1)/24` (with paper constants).
    pub paper_adjacent_guarantee: f64,
    /// Whether the replayed prefix matched the predicted transformation
    /// exactly (`true` when the check is disabled).
    pub prefix_ok: bool,
    /// Events dispatched replaying this round.
    pub events: usize,
}

/// Full report of the iterated construction.
#[derive(Debug, Clone)]
pub struct MainTheoremReport {
    /// Number of nodes.
    pub nodes: usize,
    /// Diameter `D-1`.
    pub diameter: f64,
    /// Per-round measurements.
    pub rounds: Vec<RoundReport>,
    /// Best adjacent skew magnitude witnessed at the end of the final
    /// round: the lower-bound evidence for `f(1)`.
    pub final_adjacent_skew: f64,
    /// The comparison curve `log D / log log D` for this diameter.
    pub log_ratio: f64,
}

impl MainTheoremReport {
    /// Number of completed rounds.
    #[must_use]
    pub fn rounds_completed(&self) -> usize {
        self.rounds.len()
    }
}

impl fmt::Display for MainTheoremReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "main theorem on {} nodes: {} rounds, final adjacent skew {:.4} \
             (log D / log log D = {:.3})",
            self.nodes,
            self.rounds.len(),
            self.final_adjacent_skew,
            self.log_ratio
        )
    }
}

/// Errors from the construction.
#[derive(Debug)]
pub enum MainTheoremError {
    /// The network must have at least 2 nodes and `shrink > 1`.
    BadConfig(String),
    /// Building or running a simulation failed.
    Sim(SimError),
    /// A round's Add Skew application failed.
    AddSkew {
        /// The failing round.
        round: usize,
        /// The underlying error.
        source: AddSkewError,
    },
}

impl fmt::Display for MainTheoremError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MainTheoremError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            MainTheoremError::Sim(e) => write!(f, "simulation error: {e}"),
            MainTheoremError::AddSkew { round, source } => {
                write!(f, "add-skew failed in round {round}: {source}")
            }
        }
    }
}

impl std::error::Error for MainTheoremError {}

impl From<SimError> for MainTheoremError {
    fn from(e: SimError) -> Self {
        MainTheoremError::Sim(e)
    }
}

/// The iterated lower-bound construction of Theorem 8.1.
#[derive(Debug, Clone, Copy)]
pub struct MainTheorem {
    config: MainTheoremConfig,
}

impl MainTheorem {
    /// Creates the construction driver.
    #[must_use]
    pub fn new(config: MainTheoremConfig) -> Self {
        Self { config }
    }

    /// Runs the full construction against the algorithm produced by
    /// `make` (called once per node per replay; it must build
    /// deterministic, identically-behaving nodes every time).
    ///
    /// # Errors
    ///
    /// Returns [`MainTheoremError`] on bad configuration or if a round's
    /// construction is rejected.
    pub fn run<M, N, F>(&self, make: F) -> Result<MainTheoremReport, MainTheoremError>
    where
        M: Clone + fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
        F: Fn(NodeId, usize) -> N,
    {
        let cfg = &self.config;
        if cfg.nodes < 2 {
            return Err(MainTheoremError::BadConfig(
                "need at least 2 nodes".to_string(),
            ));
        }
        if cfg.shrink <= 1.0 {
            return Err(MainTheoremError::BadConfig(
                "shrink factor must exceed 1".to_string(),
            ));
        }

        let d = cfg.nodes;
        let tau = cfg.bound.tau();
        let topology = Topology::line(d);

        // alpha_0: nominal run for tau * n_0.
        let n0 = d - 1;
        let horizon0 = tau * n0 as f64;
        let mut alpha: Execution<M> = SimulationBuilder::new(topology.clone())
            .schedules(vec![RateSchedule::constant(1.0); d])
            .delay_policy(FixedFractionDelay::for_topology(&topology, 0.5))
            .build_with(&make)?
            .try_execute_until(horizon0)?;

        // Initial pair: the endpoints, oriented so the directed skew is
        // nonnegative (the paper renumbers nodes WLOG).
        let s0 = alpha.skew(0, d - 1, horizon0);
        let (mut fast, mut slow) = if s0 >= 0.0 { (0, d - 1) } else { (d - 1, 0) };
        let mut span = n0;
        let mut ell = horizon0;

        let add_skew = AddSkew::new(cfg.bound);
        let mut rounds = Vec::new();

        for k in 0..cfg.max_rounds {
            let next_span = (span as f64 / cfg.shrink).floor() as usize;
            if next_span < 1 {
                break;
            }

            let skew_start = alpha.skew(fast, slow, ell);

            // 1. Add Skew on the nominal suffix [ell - tau*span, ell].
            let start = ell - tau * span as f64;
            let outcome = add_skew
                .apply(&alpha, AddSkewParams::window(fast, slow, start))
                .map_err(|source| MainTheoremError::AddSkew { round: k, source })?;
            let beta = outcome.transformed;
            // At the replay's peak, the end of its run, what is live is
            // `beta`'s events, the replay policy's table and the replayed
            // execution: `alpha` goes here, the rest of `beta` below.
            drop(alpha);
            let t_prime = beta.horizon();
            let skew_after_transform = beta.skew(fast, slow, t_prime);

            // 2. Extend by replaying: nominal suffix of tau*next_span (for
            // the next round's window) plus drain padding for boundary
            // messages (line neighbours are one unit apart).
            let extension = tau * next_span as f64 * cfg.extension_factor + cfg.drain_pad;
            let t_next = t_prime + extension;
            let sim = replay_simulation(
                &beta,
                Box::new(FixedFractionDelay::for_topology(&topology, 0.5)),
                &make,
            )?;
            // Only the prefix check reads `beta` now, and only its events.
            let beta_events = cfg.fidelity_check.then(|| beta.into_events());
            let replayed = sim.try_execute_until(t_next)?;
            let prefix_ok = beta_events.is_none_or(|events| {
                event_distinctions(&events, replayed.events(), d, 0.0, Window::Prefix).is_empty()
            });

            // 3. Measure and pigeonhole a sub-pair of span next_span.
            let skew_after_extension = replayed.skew(fast, slow, t_next);
            let lo = fast.min(slow);
            let hi = fast.max(slow);
            let mut best_pair = (lo, lo + next_span);
            let mut best_directed = f64::NEG_INFINITY;
            for a in lo..=(hi - next_span) {
                let b = a + next_span;
                let s = replayed.skew(a, b, t_next);
                if s.abs() > best_directed.abs() || best_directed == f64::NEG_INFINITY {
                    best_directed = s;
                    best_pair = if s >= 0.0 { (a, b) } else { (b, a) };
                }
            }
            let mut best_adjacent = 0.0_f64;
            for a in 0..(d - 1) {
                best_adjacent = best_adjacent.max(replayed.skew(a, a + 1, t_next).abs());
            }

            rounds.push(RoundReport {
                k,
                pair: (fast, slow),
                span,
                skew_start,
                add_skew_gain: outcome.report.gain,
                skew_after_transform,
                skew_after_extension,
                next_pair: best_pair,
                next_pair_skew: best_directed,
                best_adjacent_skew: best_adjacent,
                paper_adjacent_guarantee: (k as f64 + 1.0) / 24.0,
                prefix_ok,
                events: replayed.events().len(),
            });

            alpha = replayed;
            ell = t_next;
            fast = best_pair.0;
            slow = best_pair.1;
            span = next_span;
        }

        let final_adjacent_skew = rounds.last().map_or(0.0, |r| r.best_adjacent_skew);
        let diameter = (d - 1) as f64;
        let ln_d = diameter.max(4.0).ln();
        Ok(MainTheoremReport {
            nodes: d,
            diameter,
            rounds,
            final_adjacent_skew,
            log_ratio: ln_d / ln_d.ln(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_sim::Context;

    /// Max-style algorithm with neighbor gossip.
    #[derive(Debug)]
    struct Max;
    impl Node<f64> for Max {
        fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
            ctx.set_timer(1.0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _t: u64) {
            let v = ctx.logical_now();
            ctx.send_to_neighbors(&v);
            ctx.set_timer(1.0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, f64>, _f: NodeId, m: &f64) {
            if *m > ctx.logical_now() {
                ctx.set_logical(*m);
            }
        }
    }

    /// Never adjusts: L = H.
    #[derive(Debug)]
    struct Calm;
    impl Node<f64> for Calm {
        fn on_start(&mut self, _ctx: &mut Context<'_, f64>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, f64>, _f: NodeId, _m: &f64) {}
    }

    fn rho() -> DriftBound {
        DriftBound::new(0.5).unwrap()
    }

    #[test]
    fn two_rounds_on_a_short_line() {
        let cfg = MainTheoremConfig {
            max_rounds: 2,
            ..MainTheoremConfig::practical(17, rho())
        };
        let report = MainTheorem::new(cfg).run(|_, _| Max).unwrap();
        assert_eq!(report.rounds_completed(), 2);
        for r in &report.rounds {
            assert!(r.prefix_ok, "round {} prefix diverged", r.k);
            assert!(
                r.add_skew_gain >= r.span as f64 / 12.0 - 1e-9,
                "round {} gain {}",
                r.k,
                r.add_skew_gain
            );
        }
        assert!(report.final_adjacent_skew > 0.0);
    }

    #[test]
    fn calm_algorithm_accumulates_full_skew() {
        // Calm never resynchronizes, so skew only grows: after round k the
        // pair skew is at least the sum of gains.
        let cfg = MainTheoremConfig {
            max_rounds: 2,
            ..MainTheoremConfig::practical(17, rho())
        };
        let report = MainTheorem::new(cfg).run(|_, _| Calm).unwrap();
        let r0 = &report.rounds[0];
        assert!(r0.skew_after_extension >= r0.add_skew_gain - 1e-9);
        assert!(report.final_adjacent_skew > 0.0);
    }

    #[test]
    fn rejects_tiny_network_and_bad_shrink() {
        let err = MainTheorem::new(MainTheoremConfig::practical(1, rho()))
            .run(|_, _| Calm)
            .unwrap_err();
        assert!(matches!(err, MainTheoremError::BadConfig(_)));

        let cfg = MainTheoremConfig {
            shrink: 1.0,
            ..MainTheoremConfig::practical(8, rho())
        };
        let err = MainTheorem::new(cfg).run(|_, _| Calm).unwrap_err();
        assert!(matches!(err, MainTheoremError::BadConfig(_)));
    }

    #[test]
    fn paper_constants_terminate_quickly_at_small_d() {
        // sigma = 384 tau f1 is enormous: no round is possible at D = 33.
        let cfg = MainTheoremConfig::paper(33, rho(), 1.0);
        let report = MainTheorem::new(cfg).run(|_, _| Calm).unwrap();
        assert_eq!(report.rounds_completed(), 0);
    }

    #[test]
    fn report_display_summarizes() {
        let cfg = MainTheoremConfig {
            max_rounds: 1,
            ..MainTheoremConfig::practical(9, rho())
        };
        let report = MainTheorem::new(cfg).run(|_, _| Max).unwrap();
        assert!(format!("{report}").contains("nodes"));
    }
}
