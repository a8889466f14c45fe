//! The dynamic fresh-link lower bound, executable.
//!
//! Kuhn–Lenzen–Locher–Oshman (*Optimal Gradient Clock Synchronization in
//! Dynamic Networks*, §5) derive their lower bounds by re-timing an
//! execution **together with its churn timeline**: while two parts of the
//! network are disconnected, no algorithm can track how much real time the
//! other side has experienced, so the adversary may shift one side's
//! entire timeline — clocks, events, *and* the link formation that ends
//! the disconnection — and obtain an execution no node can distinguish
//! from the original until the very instant the new link appears. The
//! newly formed link therefore carries skew proportional to how far the
//! timelines could drift apart while separated.
//!
//! [`FreshLinkSkew`] makes this executable on the churn-aware
//! [`Retiming`] engine. Given a recorded dynamic execution `α` in which
//! the link `{fast, slow}` forms at time `T_f` between two previously
//! disconnected sides, it constructs the indistinguishable-until-formation
//! execution `β`:
//!
//! - every node on the `fast` side runs at rate `γ = T_f / (T_f − Δ)`
//!   until the warped formation instant, then at rate 1 — its hardware
//!   readings (and hence its entire behaviour) are reached `Δ` earlier;
//! - the shared [`TimeWarp`] compresses `[0, T_f]` onto `[0, T_f − Δ]`,
//!   so the churn timeline — including the formation itself — moves with
//!   the shifted side and the fast endpoint still observes the formation
//!   at the same hardware reading;
//! - the shift `Δ` is capped by the drift bound (`Δ ≤ T_f·ρ/(1+ρ)`, so
//!   `γ ≤ 1+ρ`) and by the post-formation delay slack (every re-timed
//!   cross-link message must keep a delay in `[0, d]`).
//!
//! At the (warped) formation instant, the fast side's logical clocks have
//! reached their `α`-values at `T_f` while the slow side sits at its
//! `α`-values at `T_f − Δ`: for any algorithm satisfying the validity
//! condition (logical rate ≥ 1/2), the skew across the fresh link differs
//! from `α`'s by at least `Δ/2`. Since no node could act on the
//! difference before the link existed, one of the two executions exhibits
//! `Ω(Δ)` skew on a link the instant it forms — the dynamic analogue of
//! the folklore Ω(d) shift.

use std::fmt;

use gcs_clocks::{DriftBound, RateSchedule, TimeWarp};
use gcs_net::Topology;
use gcs_sim::{Execution, MessageStatus};

use crate::indist::{window_distinctions, Window};
use crate::retiming::{Retiming, RetimingError, RetimingReport, TOL};

use super::first_non_nominal_rate;

/// Which fresh link to force skew onto, and an optional cap on the shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreshLinkParams {
    /// Endpoint on the side whose timeline is shifted earlier; the
    /// construction increases `L_fast − L_slow` at the formation instant.
    pub fast: usize,
    /// The other endpoint of the fresh link.
    pub slow: usize,
    /// Optional cap on the shift `Δ` (useful for sweeps); the drift and
    /// delay caps always apply on top.
    pub max_shift: Option<f64>,
}

impl FreshLinkParams {
    /// Forces skew in favour of `fast` over `slow` with the largest
    /// admissible shift.
    #[must_use]
    pub fn new(fast: usize, slow: usize) -> Self {
        Self {
            fast,
            slow,
            max_shift: None,
        }
    }

    /// Caps the shift `Δ` at `max_shift`.
    #[cfg(test)]
    pub(crate) fn with_max_shift(mut self, max_shift: f64) -> Self {
        self.max_shift = Some(max_shift);
        self
    }
}

/// Quantitative outcome of one fresh-link construction.
#[derive(Debug, Clone)]
pub struct FreshLinkReport {
    /// The shifted endpoint.
    pub fast: usize,
    /// The other endpoint.
    pub slow: usize,
    /// Formation time `T_f` of the fresh link in `α`.
    pub formation_alpha: f64,
    /// Formation time of the fresh link in `β` (`≈ T_f − Δ`).
    pub formation_beta: f64,
    /// The realized timeline shift `Δ = T_f − formation_beta`.
    pub shift: f64,
    /// The fast side's rate before the warped formation instant.
    pub gamma: f64,
    /// The drift-bound cap on the shift, `T_f·ρ/(1+ρ)`.
    pub drift_cap: f64,
    /// The delay-slack cap from re-timed cross-link messages
    /// (`∞` when no message crosses the fresh link).
    pub delay_cap: f64,
    /// Directed skew `L_fast − L_slow` at `T_f` in `α`.
    pub skew_before: f64,
    /// Directed skew `L_fast − L_slow` at the warped formation in `β`.
    pub skew_after: f64,
    /// `skew_after − skew_before`.
    pub gain: f64,
    /// The guaranteed gain for validity-satisfying algorithms, `Δ/2`.
    pub guaranteed_gain: f64,
    /// Observation mismatches among events strictly before the formation
    /// as experienced on each node's own clock (reading `T_f` on the fast
    /// side, `T_f − Δ` on the slow side) — 0 means no node could
    /// distinguish `α` from `β` before the fresh link appeared to it.
    pub pre_formation_distinctions: usize,
    /// Model validation of `β`: drift bounds, delay bounds, link
    /// liveness, and change-endpoint synchronization.
    pub validation: RetimingReport,
}

impl fmt::Display for FreshLinkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fresh-link({} over {}, formed at {:.3}): shift {:.4}, gain {:.4} \
             (guaranteed {:.4}), valid={}",
            self.fast,
            self.slow,
            self.formation_alpha,
            self.shift,
            self.gain,
            self.guaranteed_gain,
            self.validation.is_valid()
        )
    }
}

/// The transformed execution together with its report and the retiming
/// that produced it (replayable via [`crate::replay::replay_execution`]).
#[derive(Debug)]
pub struct FreshLinkOutcome<M> {
    /// The predicted execution `β` (carries the warped churn timeline).
    pub transformed: Execution<M>,
    /// The churn-aware retiming that produced `β`.
    pub retiming: Retiming,
    /// Quantitative report.
    pub report: FreshLinkReport,
}

impl<M> FreshLinkOutcome<M> {
    /// Compares a replayed run (see [`crate::replay::replay_execution`])
    /// against the prediction on every node's certified prefix: the
    /// observations strictly before the (warped) formation instant, which
    /// is exactly how far the construction claims the algorithm's
    /// behaviour. Returns the number of mismatches (0 = the replay
    /// reproduces the certified prefix bit-for-bit).
    ///
    /// Beyond the formation the slow side legitimately diverges — in the
    /// replayed run it *observes* the link appearing at reading
    /// `T_f − Δ` and reacts, which the pure re-timing of `α` cannot
    /// predict; that reaction gap is the substance of the bound, not a
    /// defect of the replay. A run whose horizon is the formation itself
    /// replays bit-identically end to end.
    #[must_use]
    pub fn replay_prefix_distinctions<M2>(&self, replayed: &Execution<M2>) -> usize {
        let cutoffs = vec![self.report.formation_beta - TOL; self.transformed.node_count()];
        window_distinctions(&self.transformed, replayed, 0.0, Window::Before(&cutoffs)).len()
    }
}

/// Why a fresh-link construction was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FreshLinkError {
    /// The execution carries no churn timeline.
    NotDynamic,
    /// `fast == slow` or an index is out of range.
    BadPair {
        /// The offending pair.
        fast: usize,
        /// The offending pair.
        slow: usize,
    },
    /// The link `{fast, slow}` is not newly formed within the horizon
    /// (it never comes up, or has been up since time 0).
    NoFreshLink {
        /// The requested pair.
        fast: usize,
        /// The requested pair.
        slow: usize,
    },
    /// The churn timeline touches a pair other than the fresh link, so
    /// the single shared warp cannot shift one side in isolation.
    /// (Node joins/leaves report `a == b`.)
    ChurnBeyondBridge {
        /// First endpoint of the offending churn event.
        a: usize,
        /// Second endpoint of the offending churn event.
        b: usize,
    },
    /// Removing the fresh link does not disconnect `fast` from `slow`:
    /// the sides could compare notes before the link formed.
    SidesNotSeparated {
        /// The requested pair.
        fast: usize,
        /// The requested pair.
        slow: usize,
    },
    /// A message crossed between the two sides before the link formed.
    CrossTrafficBeforeFormation {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
    },
    /// A node's hardware rate is not 1 throughout the execution.
    RateNotNominal {
        /// The offending node.
        node: usize,
    },
    /// The admissible shift collapsed to (essentially) zero.
    ShiftTooSmall {
        /// The computed shift.
        shift: f64,
    },
    /// The underlying retiming failed.
    Retiming(RetimingError),
}

impl fmt::Display for FreshLinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreshLinkError::NotDynamic => {
                write!(f, "execution carries no dynamic (churn) timeline")
            }
            FreshLinkError::BadPair { fast, slow } => {
                write!(f, "invalid node pair ({fast}, {slow})")
            }
            FreshLinkError::NoFreshLink { fast, slow } => write!(
                f,
                "link ({fast}, {slow}) is not newly formed within the horizon"
            ),
            FreshLinkError::ChurnBeyondBridge { a, b } => write!(
                f,
                "churn touches ({a}, {b}), not just the fresh link's pair"
            ),
            FreshLinkError::SidesNotSeparated { fast, slow } => write!(
                f,
                "nodes {fast} and {slow} stay connected without the fresh link"
            ),
            FreshLinkError::CrossTrafficBeforeFormation { from, to } => write!(
                f,
                "message {from}->{to} crossed between the sides before formation"
            ),
            FreshLinkError::RateNotNominal { node } => {
                write!(f, "node {node} does not run at rate 1 throughout")
            }
            FreshLinkError::ShiftTooSmall { shift } => {
                write!(f, "admissible shift {shift} is too small to act on")
            }
            FreshLinkError::Retiming(e) => write!(f, "retiming error: {e}"),
        }
    }
}

impl std::error::Error for FreshLinkError {}

impl From<RetimingError> for FreshLinkError {
    fn from(e: RetimingError) -> Self {
        FreshLinkError::Retiming(e)
    }
}

/// The fresh-link construction for a given drift bound.
///
/// See the module documentation.
#[derive(Debug, Clone, Copy)]
pub struct FreshLinkSkew {
    bound: DriftBound,
}

impl FreshLinkSkew {
    /// Creates the construction for drift bound `ρ`.
    #[must_use]
    pub fn new(bound: DriftBound) -> Self {
        Self { bound }
    }

    /// The drift bound.
    #[must_use]
    pub fn bound(&self) -> DriftBound {
        self.bound
    }

    /// Applies the construction to `alpha`, producing the shifted
    /// execution `β` and its report.
    ///
    /// # Errors
    ///
    /// Returns a [`FreshLinkError`] if `alpha` is not a dynamic execution
    /// whose only churn is a fresh link forming between two previously
    /// separated, nominal-rate sides.
    pub fn apply<M: Clone>(
        &self,
        alpha: &Execution<M>,
        params: FreshLinkParams,
    ) -> Result<FreshLinkOutcome<M>, FreshLinkError> {
        let n = alpha.node_count();
        let FreshLinkParams {
            fast,
            slow,
            max_shift,
        } = params;
        if fast == slow || fast >= n || slow >= n {
            return Err(FreshLinkError::BadPair { fast, slow });
        }
        let view = alpha.dynamic_topology().ok_or(FreshLinkError::NotDynamic)?;

        // The single shared warp moves *every* churn event; shifting one
        // side in isolation therefore requires all churn to live on the
        // bridge between the sides.
        let bridge = (fast.min(slow), fast.max(slow));
        for event in view.schedule().events() {
            use gcs_dynamic::ChurnKind;
            match event.kind {
                ChurnKind::EdgeUp { a, b } | ChurnKind::EdgeDown { a, b } => {
                    if (a.min(b), a.max(b)) != bridge {
                        return Err(FreshLinkError::ChurnBeyondBridge { a, b });
                    }
                }
                ChurnKind::NodeJoin { node } | ChurnKind::NodeLeave { node } => {
                    return Err(FreshLinkError::ChurnBeyondBridge { a: node, b: node });
                }
            }
        }

        let horizon = alpha.horizon();
        let formation = match view.link_formed_at(fast, slow, horizon) {
            Some(t) if t.is_finite() && t > TOL => t,
            _ => return Err(FreshLinkError::NoFreshLink { fast, slow }),
        };

        let side_fast = fast_side(alpha.topology(), fast, bridge);
        if side_fast[slow] {
            return Err(FreshLinkError::SidesNotSeparated { fast, slow });
        }
        for m in alpha.messages() {
            if side_fast[m.from] != side_fast[m.to] && m.send_time < formation - TOL {
                return Err(FreshLinkError::CrossTrafficBeforeFormation {
                    from: m.from,
                    to: m.to,
                });
            }
        }
        if let Some(node) = first_non_nominal_rate(alpha, 0.0, horizon) {
            return Err(FreshLinkError::RateNotNominal { node });
        }

        // The admissible shift: capped by drift (γ = T_f/(T_f−Δ) ≤ 1+ρ)
        // and by the delay slack of every message that crosses the fresh
        // link (fast→slow delays grow by Δ, slow→fast delays shrink by Δ).
        let rho = self.bound.rho();
        let drift_cap = formation * rho / (1.0 + rho);
        let mut delay_cap = f64::INFINITY;
        for m in alpha.messages() {
            if m.status == MessageStatus::Dropped || side_fast[m.from] == side_fast[m.to] {
                continue;
            }
            let Some(delay) = m.delay() else { continue };
            let d = alpha.topology().distance(m.from, m.to);
            let margin = if side_fast[m.from] { d - delay } else { delay };
            delay_cap = delay_cap.min(margin);
        }
        let mut shift = drift_cap.min(delay_cap);
        if let Some(cap) = max_shift {
            shift = shift.min(cap);
        }
        if shift <= TOL {
            return Err(FreshLinkError::ShiftTooSmall { shift });
        }

        let warped_formation = formation - shift;
        let gamma = formation / warped_formation;
        let schedules: Vec<RateSchedule> = (0..n)
            .map(|k| {
                if side_fast[k] {
                    RateSchedule::builder(gamma)
                        .rate_from(warped_formation, 1.0)
                        .build()
                } else {
                    RateSchedule::constant(1.0)
                }
            })
            .collect();
        let warp = TimeWarp::from_schedule(
            RateSchedule::builder(warped_formation / formation)
                .rate_from(formation, 1.0)
                .build(),
        );
        let beta_horizon = warp.apply(horizon);
        let retiming = Retiming::new(schedules, beta_horizon).with_warp(warp);
        let transformed = retiming.try_apply(alpha)?;
        let formation_beta = retiming.map_shared_time(formation);

        let topo = alpha.topology().clone();
        let validation =
            retiming.try_validate(&transformed, self.bound, |i, j| (0.0, topo.distance(i, j)))?;

        // Each node's certified prefix ends at the formation as its own
        // clock experiences it: `T_f` on the fast side, which observes the
        // formation at that reading in both executions, but only `T_f − Δ`
        // on the slow side, which in β sees the link appear in what used
        // to be its quiet window. That lost `Δ` of certainty is the content
        // of the bound: until its clock reads `T_f − Δ`, the slow side
        // cannot know whether the link is about to appear.
        let cutoffs: Vec<f64> = side_fast
            .iter()
            .map(|&on_fast_side| {
                let cutoff = if on_fast_side {
                    formation
                } else {
                    warped_formation
                };
                cutoff - TOL
            })
            .collect();
        let pre_formation_distinctions =
            window_distinctions(alpha, &transformed, TOL, Window::Before(&cutoffs)).len();

        let skew_before = alpha.logical_at(fast, formation) - alpha.logical_at(slow, formation);
        let skew_after = transformed.logical_at(fast, formation_beta)
            - transformed.logical_at(slow, formation_beta);
        let realized_shift = formation - formation_beta;

        let report = FreshLinkReport {
            fast,
            slow,
            formation_alpha: formation,
            formation_beta,
            shift: realized_shift,
            gamma,
            drift_cap,
            delay_cap,
            skew_before,
            skew_after,
            gain: skew_after - skew_before,
            guaranteed_gain: realized_shift / 2.0,
            pre_formation_distinctions,
            validation,
        };

        Ok(FreshLinkOutcome {
            transformed,
            retiming,
            report,
        })
    }
}

/// The nodes reachable from `fast` in the base topology without using the
/// bridge edge.
fn fast_side(topology: &Topology, fast: usize, bridge: (usize, usize)) -> Vec<bool> {
    let n = topology.len();
    let mut side = vec![false; n];
    side[fast] = true;
    let mut stack = vec![fast];
    while let Some(i) = stack.pop() {
        for &j in topology.neighbors_of(i) {
            if (i.min(j), i.max(j)) == bridge || side[j] {
                continue;
            }
            side[j] = true;
            stack.push(j);
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indist::prefix_distinctions;
    use crate::problem::ValidityCondition;
    use crate::replay::{nominal_fallback, replay_execution};
    use gcs_dynamic::{ChurnEvent, ChurnKind, ChurnSchedule, DynamicTopology};
    use gcs_sim::{Context, Node, NodeId, SimulationBuilder};

    /// Max-style algorithm: the canonical gradient violator.
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

    fn rho() -> DriftBound {
        DriftBound::new(0.5).unwrap()
    }

    /// Two nodes at distance `d`; the link is down from time 0 and forms
    /// at `formation`; the run extends `delta` past the formation.
    fn fresh_link_run(d: f64, formation: f64, delta: f64) -> Execution<f64> {
        let topology = Topology::from_matrix(vec![0.0, d, d, 0.0], d).unwrap();
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 0.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            },
            ChurnEvent {
                time: formation,
                kind: ChurnKind::EdgeUp { a: 0, b: 1 },
            },
        ]);
        let view = DynamicTopology::new(topology, churn).unwrap();
        SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(formation + delta)
            .unwrap()
    }

    #[test]
    fn fresh_link_carries_the_shift_as_skew() {
        // No message crosses the fresh link within the half-unit window
        // (the first post-formation broadcast fires at t = 31), so the
        // shift is capped by drift alone: Δ = T_f·ρ/(1+ρ) = 30·0.5/1.5 = 10.
        let alpha = fresh_link_run(4.0, 30.0, 0.5);
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(0, 1))
            .unwrap();
        let r = &outcome.report;
        assert!((r.shift - 10.0).abs() < 1e-9, "shift {}", r.shift);
        assert_eq!(r.delay_cap, f64::INFINITY);
        // Max follows its hardware clock while isolated: the fresh link
        // opens with the full shift as skew.
        assert!(r.skew_before.abs() < 1e-9);
        assert!((r.skew_after - r.shift).abs() < 1e-9, "{r}");
        assert!(r.gain >= r.guaranteed_gain - 1e-9);
        assert_eq!(r.pre_formation_distinctions, 0);
        assert!(r.validation.is_valid(), "{}", r.validation);
        // Validity holds in α, which is what the Δ/2 guarantee needs.
        assert!(ValidityCondition::default().check(&alpha).is_empty());
    }

    #[test]
    fn delivered_cross_traffic_caps_the_shift() {
        // delta = 3 > d/2 = 2: messages cross the fresh link and are
        // delivered, so the shift is capped by their delay slack (d/2).
        let alpha = fresh_link_run(4.0, 30.0, 3.0);
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(0, 1))
            .unwrap();
        let r = &outcome.report;
        assert!(
            (r.delay_cap - 2.0).abs() < 1e-9,
            "delay cap {}",
            r.delay_cap
        );
        assert!((r.shift - 2.0).abs() < 1e-9);
        assert!(r.validation.is_valid(), "{}", r.validation);
        assert!(r.validation.messages_checked > 0, "cross messages checked");
        assert!(r.validation.links_checked > 0, "liveness actually checked");
        assert_eq!(r.pre_formation_distinctions, 0);
        assert!(r.gain >= r.guaranteed_gain - 1e-9);
    }

    #[test]
    fn formation_horizon_run_replays_bit_identically() {
        // With the horizon at the formation itself, the certified prefix
        // is the whole execution: the replay must reproduce every event
        // bit-for-bit.
        let alpha = fresh_link_run(4.0, 30.0, 0.0);
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(0, 1))
            .unwrap();
        let replayed = replay_execution(
            &outcome.transformed,
            outcome.retiming.horizon(),
            nominal_fallback(alpha.topology()),
            |_, _| Max,
        )
        .unwrap();
        let d = prefix_distinctions(&outcome.transformed, &replayed, 0.0);
        assert!(d.is_empty(), "replay diverged: {d:?}");
        assert_eq!(outcome.replay_prefix_distinctions(&replayed), 0);
    }

    #[test]
    fn replay_reproduces_every_certified_prefix() {
        // Extending past the formation, the slow side reacts to the
        // earlier link appearance (that reaction gap IS the bound), but
        // every node's pre-formation prefix must still replay exactly.
        let alpha = fresh_link_run(4.0, 30.0, 3.0);
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(0, 1))
            .unwrap();
        let replayed = replay_execution(
            &outcome.transformed,
            outcome.retiming.horizon(),
            nominal_fallback(alpha.topology()),
            |_, _| Max,
        )
        .unwrap();
        assert_eq!(outcome.replay_prefix_distinctions(&replayed), 0);
    }

    #[test]
    fn shift_cap_parameter_is_respected() {
        let alpha = fresh_link_run(4.0, 30.0, 1.0);
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(0, 1).with_max_shift(1.5))
            .unwrap();
        assert!((outcome.report.shift - 1.5).abs() < 1e-9);
        assert!(outcome.report.validation.is_valid());
    }

    #[test]
    fn shifting_the_other_side_mirrors_the_gain() {
        let alpha = fresh_link_run(4.0, 30.0, 1.0);
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(1, 0))
            .unwrap();
        let r = &outcome.report;
        assert!((r.skew_after - r.shift).abs() < 1e-9);
        assert!(r.validation.is_valid());
    }

    #[test]
    fn multi_node_sides_shift_together() {
        // A 4-node line whose middle edge (1, 2) is the fresh link: side
        // {0, 1} keeps exchanging messages while disconnected from {2, 3}.
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 0.0,
                kind: ChurnKind::EdgeDown { a: 1, b: 2 },
            },
            ChurnEvent {
                time: 20.0,
                kind: ChurnKind::EdgeUp { a: 1, b: 2 },
            },
        ]);
        let view = DynamicTopology::new(Topology::line(4), churn).unwrap();
        let alpha = SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 4])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(20.4)
            .unwrap();
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(1, 2))
            .unwrap();
        let r = &outcome.report;
        assert!(r.shift > 1.0);
        assert_eq!(r.pre_formation_distinctions, 0);
        assert!(r.validation.is_valid(), "{}", r.validation);
        assert!(r.gain >= r.guaranteed_gain - 1e-9);
        // Replay fidelity holds for the 4-node construction too.
        let replayed = replay_execution(
            &outcome.transformed,
            outcome.retiming.horizon(),
            nominal_fallback(alpha.topology()),
            |_, _| Max,
        )
        .unwrap();
        assert_eq!(outcome.replay_prefix_distinctions(&replayed), 0);
    }

    #[test]
    fn rejects_static_and_malformed_inputs() {
        let construction = FreshLinkSkew::new(rho());

        // Static execution.
        let static_exec = SimulationBuilder::new(Topology::line(2))
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(10.0)
            .unwrap();
        assert_eq!(
            construction
                .apply(&static_exec, FreshLinkParams::new(0, 1))
                .unwrap_err(),
            FreshLinkError::NotDynamic
        );

        let alpha = fresh_link_run(4.0, 30.0, 1.0);
        assert_eq!(
            construction
                .apply(&alpha, FreshLinkParams::new(1, 1))
                .unwrap_err(),
            FreshLinkError::BadPair { fast: 1, slow: 1 }
        );

        // A link that has been up since time 0 is not fresh.
        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::new(vec![ChurnEvent {
                time: 0.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            }]),
        )
        .unwrap();
        let never_up = SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(10.0)
            .unwrap();
        assert_eq!(
            construction
                .apply(&never_up, FreshLinkParams::new(0, 1))
                .unwrap_err(),
            FreshLinkError::NoFreshLink { fast: 0, slow: 1 }
        );
    }

    #[test]
    fn rejects_connected_sides_and_early_cross_traffic() {
        let construction = FreshLinkSkew::new(rho());

        // Triangle: removing (0, 1) leaves the 0-2-1 path.
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 0.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            },
            ChurnEvent {
                time: 10.0,
                kind: ChurnKind::EdgeUp { a: 0, b: 1 },
            },
        ]);
        let view = DynamicTopology::new(Topology::complete(3, 1.0), churn).unwrap();
        let alpha = SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 3])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(10.2)
            .unwrap();
        assert_eq!(
            construction
                .apply(&alpha, FreshLinkParams::new(0, 1))
                .unwrap_err(),
            FreshLinkError::SidesNotSeparated { fast: 0, slow: 1 }
        );

        // Flap: the link was up (and carried traffic) before re-forming.
        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::periodic_flap(0, 1, 10.0, 25.0),
        )
        .unwrap();
        let alpha = SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(20.3)
            .unwrap();
        assert!(matches!(
            construction
                .apply(&alpha, FreshLinkParams::new(0, 1))
                .unwrap_err(),
            FreshLinkError::CrossTrafficBeforeFormation { .. }
        ));
    }

    #[test]
    fn rejects_churn_beyond_the_bridge_and_drifted_rates() {
        let construction = FreshLinkSkew::new(rho());

        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 0.0,
                kind: ChurnKind::EdgeDown { a: 1, b: 2 },
            },
            ChurnEvent {
                time: 5.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            },
            ChurnEvent {
                time: 10.0,
                kind: ChurnKind::EdgeUp { a: 1, b: 2 },
            },
        ]);
        let view = DynamicTopology::new(Topology::line(3), churn).unwrap();
        let alpha = SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 3])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(10.2)
            .unwrap();
        assert_eq!(
            construction
                .apply(&alpha, FreshLinkParams::new(1, 2))
                .unwrap_err(),
            FreshLinkError::ChurnBeyondBridge { a: 0, b: 1 }
        );

        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 0.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            },
            ChurnEvent {
                time: 10.0,
                kind: ChurnKind::EdgeUp { a: 0, b: 1 },
            },
        ]);
        let view = DynamicTopology::new(Topology::line(2), churn).unwrap();
        let alpha = SimulationBuilder::new_dynamic(view)
            .schedules(vec![
                RateSchedule::constant(1.0),
                RateSchedule::constant(1.1),
            ])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(10.2)
            .unwrap();
        assert_eq!(
            construction
                .apply(&alpha, FreshLinkParams::new(0, 1))
                .unwrap_err(),
            FreshLinkError::RateNotNominal { node: 1 }
        );
    }

    #[test]
    fn report_display_names_the_pair() {
        let alpha = fresh_link_run(4.0, 30.0, 1.0);
        let outcome = FreshLinkSkew::new(rho())
            .apply(&alpha, FreshLinkParams::new(0, 1))
            .unwrap();
        let text = format!("{}", outcome.report);
        assert!(text.contains("0 over 1"));
        assert!(text.contains("shift"));
    }
}
