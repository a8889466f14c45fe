//! Lemma 6.1 — the Add Skew lemma, executable.
//!
//! Given an execution `α` whose suffix `[S, T]` is *nominal* (all hardware
//! rates 1, all delays exactly half the distance), the lemma constructs an
//! indistinguishable execution `β` of duration `T' < T` in which a chosen
//! pair of nodes has at least `distance/12` more skew than in `α`, while
//! every hardware rate stays within `[1, γ]` and every message delay within
//! `[d/4, 3d/4]`.
//!
//! The construction speeds up a *staircase* of hardware clocks (Figure 1 of
//! the paper): every node at or behind the `fast` node switches to rate
//! `γ = 1 + ρ/(4+ρ)` at time `S`; nodes between `fast` and `slow` switch
//! progressively later (`T_k = S + (τ/γ)·u_k` for offset `u_k` along the
//! line); nodes at or beyond `slow` never switch. Because the `fast` node's
//! logical clock is driven through the same hardware readings in less real
//! time, while validity forces the `slow` node's clock to keep advancing,
//! the pair's skew grows.

use std::fmt;

use gcs_clocks::{DriftBound, RateSchedule};
use gcs_sim::{Execution, MessageStatus};

use crate::retiming::{Retiming, RetimingReport, TOL};

use super::embedding::line_positions;
use super::first_non_nominal_rate;

/// Which pair to add skew between, and where the nominal suffix starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddSkewParams {
    /// The node whose side of the line is sped up; the construction
    /// increases `L_fast - L_slow`.
    pub fast: usize,
    /// The other node of the pair.
    pub slow: usize,
    /// Start `S` of the nominal window (`T = S + τ·distance(fast, slow)`
    /// must not exceed the execution horizon). `None` selects the latest
    /// possible window: `S = horizon - τ·distance`.
    pub start: Option<f64>,
}

impl AddSkewParams {
    /// Adds skew in favour of `fast` over `slow`, using the latest possible
    /// nominal window (ending at the execution horizon).
    #[must_use]
    pub fn suffix(fast: usize, slow: usize) -> Self {
        Self {
            fast,
            slow,
            start: None,
        }
    }

    /// Adds skew in favour of `fast` over `slow` with an explicit window
    /// start `S`.
    #[must_use]
    pub fn window(fast: usize, slow: usize, start: f64) -> Self {
        Self {
            fast,
            slow,
            start: Some(start),
        }
    }
}

/// Quantitative outcome of one Add Skew application.
#[derive(Debug, Clone)]
pub struct AddSkewReport {
    /// The sped-up node.
    pub fast: usize,
    /// The other node of the pair.
    pub slow: usize,
    /// Line distance between the pair.
    pub distance: f64,
    /// Window start `S`.
    pub start: f64,
    /// End `T` of the nominal window in `α`.
    pub alpha_end: f64,
    /// Duration `T'` of the transformed execution `β`.
    pub beta_end: f64,
    /// Directed skew `L_fast(T) - L_slow(T)` in `α`.
    pub skew_before: f64,
    /// Directed skew `L_fast(T') - L_slow(T')` in `β`.
    pub skew_after: f64,
    /// `skew_after - skew_before`.
    pub gain: f64,
    /// The lemma's guaranteed gain, `distance/12`.
    pub guaranteed_gain: f64,
    /// Model validation of `β` (rates within `[1-ρ, 1+ρ]`, delays received
    /// in `(S, T']` within `[d/4, 3d/4]`, earlier delays within `[0, d]`).
    pub validation: RetimingReport,
    /// Whether every transformed rate stays within the tighter `[1, 1+ρ/2]`
    /// band that the main theorem maintains (Property 1(4)).
    pub rates_upper_half: bool,
}

impl AddSkewReport {
    /// `max(|skew_before|, |skew_after|)`: since `β` is indistinguishable
    /// from `α` and their skews differ by at least `distance/12`, the
    /// larger magnitude is at least `distance/24` — the witnessed Ω(d)
    /// skew.
    #[must_use]
    pub fn skew_alpha_abs_max(&self) -> f64 {
        self.skew_before.abs().max(self.skew_after.abs())
    }
}

impl fmt::Display for AddSkewReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "add-skew({} over {}, distance {}): gain {:.4} (guaranteed {:.4}), valid={}",
            self.fast,
            self.slow,
            self.distance,
            self.gain,
            self.guaranteed_gain,
            self.validation.is_valid()
        )
    }
}

/// The transformed execution together with its report and the retiming that
/// produced it (for replay).
#[derive(Debug)]
pub struct AddSkewOutcome<M> {
    /// The predicted execution `β`.
    pub transformed: Execution<M>,
    /// The retiming that produced `β` (replayable via
    /// [`crate::replay::replay_execution`]).
    pub retiming: Retiming,
    /// Quantitative report.
    pub report: AddSkewReport,
}

/// Why an Add Skew application was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AddSkewError {
    /// The topology's metric is not a line metric.
    NotLineEmbeddable,
    /// `fast == slow` or an index is out of range.
    BadPair {
        /// The offending pair.
        fast: usize,
        /// The offending pair.
        slow: usize,
    },
    /// The window `[S, T]` does not fit in `[0, horizon]`.
    WindowOutOfRange {
        /// Window start.
        start: f64,
        /// Required window end `T = S + τ·distance`.
        end: f64,
        /// Available horizon.
        horizon: f64,
    },
    /// A node's hardware rate is not 1 throughout `[S, T]`.
    RateNotNominal {
        /// The offending node.
        node: usize,
    },
    /// A message received in `[S, T]` does not have delay `d/2`.
    DelayNotNominal {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Observed delay.
        delay: f64,
    },
}

impl fmt::Display for AddSkewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddSkewError::NotLineEmbeddable => {
                write!(f, "topology is not embeddable on a line")
            }
            AddSkewError::BadPair { fast, slow } => {
                write!(f, "invalid node pair ({fast}, {slow})")
            }
            AddSkewError::WindowOutOfRange {
                start,
                end,
                horizon,
            } => write!(
                f,
                "window [{start}, {end}] does not fit in horizon {horizon}"
            ),
            AddSkewError::RateNotNominal { node } => {
                write!(
                    f,
                    "node {node} does not run at rate 1 throughout the window"
                )
            }
            AddSkewError::DelayNotNominal { from, to, delay } => write!(
                f,
                "message {from}->{to} received in the window has delay {delay}, not d/2"
            ),
        }
    }
}

impl std::error::Error for AddSkewError {}

/// The Add Skew lemma (Lemma 6.1) for a given drift bound.
///
/// See the module documentation and the crate-level example.
#[derive(Debug, Clone, Copy)]
pub struct AddSkew {
    bound: DriftBound,
}

impl AddSkew {
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

    /// Applies the lemma to `alpha`, producing the indistinguishable
    /// execution `β` and its report.
    ///
    /// # Errors
    ///
    /// Returns an [`AddSkewError`] if the topology is not a line, the pair
    /// or window is invalid, or the preconditions (rate 1 and delay `d/2`
    /// throughout `[S, T]`) fail.
    pub fn apply<M: Clone>(
        &self,
        alpha: &Execution<M>,
        params: AddSkewParams,
    ) -> Result<AddSkewOutcome<M>, AddSkewError> {
        let n = alpha.node_count();
        let AddSkewParams { fast, slow, start } = params;
        if fast == slow || fast >= n || slow >= n {
            return Err(AddSkewError::BadPair { fast, slow });
        }
        let xs = line_positions(alpha.topology()).ok_or(AddSkewError::NotLineEmbeddable)?;

        let tau = self.bound.tau();
        let gamma = self.bound.gamma();
        let distance = (xs[fast] - xs[slow]).abs();
        let window = tau * distance;
        let horizon = alpha.horizon();
        let s = start.unwrap_or(horizon - window);
        let t_end = s + window;
        if s < -TOL || t_end > horizon + TOL {
            return Err(AddSkewError::WindowOutOfRange {
                start: s,
                end: t_end,
                horizon,
            });
        }

        Self::check_preconditions(alpha, s, t_end)?;

        // Offsets along the line, measured from the fast node toward the
        // slow node: u_k = clamp(signed offset, 0, distance).
        let sign = if xs[slow] >= xs[fast] { 1.0 } else { -1.0 };
        let offsets: Vec<f64> = (0..n)
            .map(|k| (sign * (xs[k] - xs[fast])).clamp(0.0, distance))
            .collect();

        let t_beta = s + (tau / gamma) * distance; // T'
        let schedules: Vec<RateSchedule> = (0..n)
            .map(|k| {
                let switch = s + (tau / gamma) * offsets[k]; // T_k
                rebuild_schedule(alpha.schedule(k), switch, t_beta, gamma)
            })
            .collect();

        let retiming = Retiming::new(schedules, t_beta);
        let transformed = retiming.apply(alpha);

        // Validation with the lemma's claimed bounds: messages received in
        // (S, T'] must have delay within [d/4, 3d/4]; earlier messages are
        // untouched and must satisfy the plain model bounds [0, d].
        let topo = alpha.topology();
        let validation = retiming
            .validate_per_message(&transformed, self.bound, |m| {
                let d = topo.distance(m.from, m.to);
                if m.arrival_time.expect("delivered") > s + TOL {
                    (d / 4.0, 3.0 * d / 4.0)
                } else {
                    (0.0, d)
                }
            })
            .expect("one schedule per node");
        let rates_upper_half = retiming
            .schedules()
            .iter()
            .all(|sch| self.bound.admits_upper_half(sch));

        let skew_before = alpha.logical_at(fast, t_end) - alpha.logical_at(slow, t_end);
        let skew_after =
            transformed.logical_at(fast, t_beta) - transformed.logical_at(slow, t_beta);

        let report = AddSkewReport {
            fast,
            slow,
            distance,
            start: s,
            alpha_end: t_end,
            beta_end: t_beta,
            skew_before,
            skew_after,
            gain: skew_after - skew_before,
            guaranteed_gain: distance / 12.0,
            validation,
            rates_upper_half,
        };

        Ok(AddSkewOutcome {
            transformed,
            retiming,
            report,
        })
    }

    fn check_preconditions<M>(
        alpha: &Execution<M>,
        s: f64,
        t_end: f64,
    ) -> Result<(), AddSkewError> {
        if let Some(node) = first_non_nominal_rate(alpha, s.max(0.0), t_end) {
            return Err(AddSkewError::RateNotNominal { node });
        }
        for m in alpha.messages() {
            if m.status != MessageStatus::Delivered {
                continue;
            }
            let arrival = m.arrival_time.expect("delivered");
            if arrival < s - TOL || arrival > t_end + TOL {
                continue;
            }
            let d = alpha.topology().distance(m.from, m.to);
            let delay = m.delay().expect("delivered");
            if (delay - d / 2.0).abs() > TOL {
                return Err(AddSkewError::DelayNotNominal {
                    from: m.from,
                    to: m.to,
                    delay,
                });
            }
        }
        Ok(())
    }
}

/// Builds node `k`'s transformed schedule: `α`'s rates before `switch`,
/// rate `gamma` on `[switch, t_beta)`, rate 1 afterwards.
fn rebuild_schedule(original: &RateSchedule, switch: f64, t_beta: f64, gamma: f64) -> RateSchedule {
    let mut builder = RateSchedule::builder(1.0);
    let mut first = true;
    for &(start, rate) in original.segments() {
        if start >= switch {
            break;
        }
        if first {
            builder = RateSchedule::builder(rate);
            first = false;
        } else {
            builder = builder.rate_from(start, rate);
        }
    }
    if switch < t_beta {
        builder = builder.rate_from(switch, gamma);
        builder = builder.rate_from(t_beta, 1.0);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indist::prefix_distinctions;
    use crate::problem::ValidityCondition;
    use gcs_net::Topology;
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

    fn nominal_run(n: usize) -> Execution<f64> {
        let tau = rho().tau();
        let horizon = tau * (n as f64 - 1.0);
        SimulationBuilder::new(Topology::line(n))
            .schedules(vec![RateSchedule::constant(1.0); n])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    #[test]
    fn gain_meets_lemma_guarantee() {
        let alpha = nominal_run(8);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 7))
            .unwrap();
        let r = &outcome.report;
        assert!(
            r.gain >= r.guaranteed_gain - 1e-9,
            "gain {} below guarantee {}",
            r.gain,
            r.guaranteed_gain
        );
        assert!((r.guaranteed_gain - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn transformed_execution_is_valid_and_indistinguishable() {
        let alpha = nominal_run(6);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 5))
            .unwrap();
        assert!(
            outcome.report.validation.is_valid(),
            "{}",
            outcome.report.validation
        );
        assert!(outcome.report.rates_upper_half);
        // Beta is a re-timed *prefix* of alpha: every node's observations in
        // beta coincide (bitwise) with the start of its observations in
        // alpha — nodes cannot tell the executions apart while beta lasts.
        assert!(prefix_distinctions(&outcome.transformed, &alpha, 0.0).is_empty());
        // Validity (rate >= 1/2) holds in beta too: the algorithm never
        // slowed its clocks and hardware rates only increased.
        assert!(ValidityCondition::default()
            .check(&outcome.transformed)
            .is_empty());
    }

    #[test]
    fn beta_is_shorter_than_alpha() {
        let alpha = nominal_run(5);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 4))
            .unwrap();
        let r = &outcome.report;
        assert!(r.beta_end < r.alpha_end);
        // T - T' = tau (1 - 1/gamma) (j - i) >= (j-i)/6.
        let shrink = r.alpha_end - r.beta_end;
        assert!(shrink >= r.distance / 6.0 - 1e-9);
    }

    #[test]
    fn fast_high_side_mirrors_construction() {
        let alpha = nominal_run(6);
        // Speed up the high end: gain accrues to L_5 - L_0.
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(5, 0))
            .unwrap();
        let r = &outcome.report;
        assert!(r.gain >= r.guaranteed_gain - 1e-9);
        assert!(r.validation.is_valid());
    }

    #[test]
    fn interior_pair_works() {
        let alpha = nominal_run(8);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(2, 5))
            .unwrap();
        let r = &outcome.report;
        assert_eq!(r.distance, 3.0);
        assert!(r.gain >= r.guaranteed_gain - 1e-9);
        assert!(r.validation.is_valid());
    }

    #[test]
    fn two_node_distance_d_network() {
        // The folklore Omega(d) setting: two nodes at distance 16.
        let d = 16.0;
        let tau = rho().tau();
        let topology = Topology::from_matrix(vec![0.0, d, d, 0.0], d).unwrap();
        let alpha = SimulationBuilder::new(topology)
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(tau * d)
            .unwrap();
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 1))
            .unwrap();
        assert!(outcome.report.gain >= d / 12.0 - 1e-9);
        assert!(outcome.report.validation.is_valid());
    }

    #[test]
    fn rejects_non_nominal_rates() {
        let n = 4;
        let tau = rho().tau();
        let mut schedules = vec![RateSchedule::constant(1.0); n];
        schedules[2] = RateSchedule::constant(1.1);
        let alpha = SimulationBuilder::new(Topology::line(n))
            .schedules(schedules)
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(tau * (n as f64 - 1.0))
            .unwrap();
        let err = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 3))
            .unwrap_err();
        assert_eq!(err, AddSkewError::RateNotNominal { node: 2 });
    }

    #[test]
    fn rejects_non_nominal_delays() {
        let n = 4;
        let tau = rho().tau();
        let alpha = SimulationBuilder::new(Topology::line(n))
            .schedules(vec![RateSchedule::constant(1.0); n])
            .delay_policy(gcs_net::FixedFractionDelay::for_topology(
                &Topology::line(n),
                0.25,
            ))
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(tau * (n as f64 - 1.0))
            .unwrap();
        let err = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 3))
            .unwrap_err();
        assert!(matches!(err, AddSkewError::DelayNotNominal { .. }));
    }

    #[test]
    fn rejects_short_horizon() {
        let alpha = SimulationBuilder::new(Topology::line(4))
            .schedules(vec![RateSchedule::constant(1.0); 4])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(1.0)
            .unwrap(); // far less than tau * 3
        let err = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(0, 3))
            .unwrap_err();
        assert!(matches!(err, AddSkewError::WindowOutOfRange { .. }));
    }

    #[test]
    fn rejects_bad_pair_and_bad_topology() {
        let alpha = nominal_run(4);
        let err = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::suffix(1, 1))
            .unwrap_err();
        assert!(matches!(err, AddSkewError::BadPair { .. }));

        let tau = rho().tau();
        let ring = SimulationBuilder::new(Topology::ring(5))
            .schedules(vec![RateSchedule::constant(1.0); 5])
            .build_with(|_, _| Max)
            .unwrap()
            .try_execute_until(tau * 2.0)
            .unwrap();
        let err = AddSkew::new(rho())
            .apply(&ring, AddSkewParams::suffix(0, 2))
            .unwrap_err();
        assert_eq!(err, AddSkewError::NotLineEmbeddable);
    }

    #[test]
    fn figure1_staircase_shape() {
        // Reproduce Figure 1: T_k is S for k <= fast, increases linearly
        // between, and equals T' for k >= slow.
        let alpha = nominal_run(8);
        let outcome = AddSkew::new(rho())
            .apply(&alpha, AddSkewParams::window(1, 6, 0.0))
            .unwrap();
        let gamma = rho().gamma();
        let tau = rho().tau();
        let t_beta = outcome.report.beta_end;
        // Node 0 and 1 switch at S = 0.
        for k in [0usize, 1] {
            let sched = &outcome.retiming.schedules()[k];
            assert!((sched.rate_at(0.0) - gamma).abs() < 1e-12, "node {k}");
        }
        // Nodes 2..=5 switch at S + (tau/gamma)(k - 1).
        for k in 2usize..=5 {
            let sched = &outcome.retiming.schedules()[k];
            let expect = (tau / gamma) * (k as f64 - 1.0);
            assert!((sched.rate_at(expect - 1e-6) - 1.0).abs() < 1e-12);
            assert!((sched.rate_at(expect + 1e-6) - gamma).abs() < 1e-12);
        }
        // Nodes 6, 7 never run at gamma.
        for k in [6usize, 7] {
            let sched = &outcome.retiming.schedules()[k];
            let (lo, hi) = sched.rate_range_in(0.0, t_beta).unwrap();
            assert!((lo - 1.0).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
        }
    }
}
