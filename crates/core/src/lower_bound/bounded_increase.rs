//! Lemma 7.1 — the Bounded Increase lemma, executable.
//!
//! The lemma: in any execution whose hardware rates stay within
//! `[1, 1+ρ/2]` and whose message delays stay within `[d/4, 3d/4]`, an
//! f-GCS algorithm can raise a logical clock by at most `16·f(1)` per unit
//! of real time (after a warm-up of `τ = 1/ρ`). Otherwise, speeding the
//! node's hardware clock by `ρ/4` over a `τ`-long window produces an
//! indistinguishable execution in which that node's clock runs ahead of a
//! distance-1 neighbour by more than `f(1)` — a gradient violation.
//!
//! This module provides both directions:
//!
//! - [`max_window_increase`] / [`max_unit_increase`] *measure* how fast an
//!   algorithm actually raises its clocks (the quantity the lemma bounds);
//! - [`SpeedUp`] applies the lemma's transformation, turning a measured
//!   fast increase into a witnessed skew between nearby nodes.

use std::fmt;

use gcs_clocks::{DriftBound, RateSchedule};
use gcs_sim::{Execution, MessageStatus};

use crate::analysis::node_breakpoint_times;
use crate::retiming::{Retiming, RetimingReport};

/// The largest increase of node `i`'s logical clock over any window of
/// length `window` starting in `[from, horizon - window]`, with the
/// witnessing window start.
///
/// `L_i(t + window) - L_i(t)` is piecewise linear in `t` between the knots
/// of `L_i` (shifted by 0 and by `window`), so the maximum is attained at a
/// knot.
///
/// # Panics
///
/// Panics if `window` is not positive or exceeds `horizon - from`.
#[must_use]
pub fn max_window_increase<M>(
    exec: &Execution<M>,
    node: usize,
    window: f64,
    from: f64,
) -> (f64, f64) {
    let horizon = exec.horizon();
    assert!(window > 0.0, "window must be positive");
    assert!(
        from + window <= horizon + 1e-9,
        "window [{from}, {}] exceeds horizon {horizon}",
        from + window
    );
    let hi = horizon - window;
    let mut candidates: Vec<f64> = Vec::new();
    for k in node_breakpoint_times(exec, node) {
        candidates.push(k);
        candidates.push(k - window);
    }
    candidates.push(from);
    candidates.push(hi);
    candidates.retain(|t| *t >= from - 1e-12 && *t <= hi + 1e-12);

    let mut best = (f64::NEG_INFINITY, from);
    for &t in &candidates {
        let t = t.clamp(from, hi.max(from));
        let inc = exec.logical_at(node, t + window) - exec.logical_at(node, t);
        if inc > best.0 {
            best = (inc, t);
        }
    }
    best
}

/// [`max_window_increase`] with the lemma's unit window.
#[must_use]
pub fn max_unit_increase<M>(exec: &Execution<M>, node: usize, from: f64) -> (f64, f64) {
    max_window_increase(exec, node, 1.0, from)
}

/// The fastest unit-window increase over all nodes: the quantity the
/// Bounded Increase lemma caps at `16·f(1)`.
#[must_use]
pub fn max_increase_over_nodes<M>(exec: &Execution<M>, from: f64) -> (f64, usize, f64) {
    let mut best = (f64::NEG_INFINITY, 0, from);
    for node in 0..exec.node_count() {
        let (inc, at) = max_unit_increase(exec, node, from);
        if inc > best.0 {
            best = (inc, node, at);
        }
    }
    best
}

/// Checks the lemma's preconditions on an execution: every hardware rate in
/// `[1, 1+ρ/2]` and every delivered message's delay in `[d/4, 3d/4]`.
#[must_use]
pub fn preconditions_hold<M>(exec: &Execution<M>, bound: DriftBound) -> bool {
    if !exec.schedules().iter().all(|s| bound.admits_upper_half(s)) {
        return false;
    }
    exec.messages().iter().all(|m| {
        if m.status != MessageStatus::Delivered {
            return true;
        }
        let d = exec.topology().distance(m.from, m.to);
        let delay = m.delay().expect("delivered");
        delay >= d / 4.0 - 1e-9 && delay <= 3.0 * d / 4.0 + 1e-9
    })
}

/// Outcome of a [`SpeedUp`] application.
#[derive(Debug)]
pub struct SpeedUpOutcome<M> {
    /// The transformed execution `β`.
    pub transformed: Execution<M>,
    /// The retiming that produced it.
    pub retiming: Retiming,
    /// Quantitative report.
    pub report: SpeedUpReport,
}

/// Report of a speed-up transformation at node `i` ending at `t0`.
#[derive(Debug, Clone)]
pub struct SpeedUpReport {
    /// The sped-up node.
    pub node: usize,
    /// End of the sped-up window (window is `[t0 - τ, t0]`).
    pub t0: f64,
    /// `L^β_i(t0) - L^α_i(t0)`: how much further the node's logical clock
    /// is at `t0` in the transformed execution.
    pub logical_advance: f64,
    /// For each distance-1 neighbour `j` of the node: the directed skew
    /// `L^β_i(t0) - L^β_j(t0)` in the transformed execution.
    pub neighbor_skews: Vec<(usize, f64)>,
    /// Model validation of `β`.
    pub validation: RetimingReport,
}

impl SpeedUpReport {
    /// The worst (largest) skew `L^β_i - L^β_j` over distance-1 neighbours.
    /// Exceeding `f(1)` witnesses a gradient violation.
    #[must_use]
    pub fn worst_neighbor_skew(&self) -> Option<(usize, f64)> {
        self.neighbor_skews
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite skews"))
    }
}

impl fmt::Display for SpeedUpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "speed-up(node {}, t0 {}): advance {:.4}, worst neighbor skew {:?}",
            self.node,
            self.t0,
            self.logical_advance,
            self.worst_neighbor_skew()
        )
    }
}

/// Why a speed-up application was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedUpError {
    /// `t0 < τ` (the window would start before time 0) or `t0 > horizon`.
    WindowOutOfRange {
        /// Requested window end.
        t0: f64,
        /// Required minimum (`τ`).
        min: f64,
        /// Available horizon.
        max: f64,
    },
    /// The node index is out of range.
    BadNode(usize),
    /// The execution does not satisfy the lemma's preconditions.
    PreconditionsFail,
}

impl fmt::Display for SpeedUpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpeedUpError::WindowOutOfRange { t0, min, max } => {
                write!(f, "window end {t0} outside [{min}, {max}]")
            }
            SpeedUpError::BadNode(n) => write!(f, "node index {n} out of range"),
            SpeedUpError::PreconditionsFail => {
                write!(f, "execution violates the lemma's rate/delay preconditions")
            }
        }
    }
}

impl std::error::Error for SpeedUpError {}

/// The speed-up transformation from the proof of Lemma 7.1: node `i`'s
/// hardware rate is raised by `ρ/4` over the window `[t0 - τ, t0]`,
/// advancing its hardware clock by exactly `1/4` by the end of the window.
#[derive(Debug, Clone, Copy)]
pub struct SpeedUp {
    bound: DriftBound,
}

impl SpeedUp {
    /// Creates the transformation for drift bound `ρ`.
    #[must_use]
    pub fn new(bound: DriftBound) -> Self {
        Self { bound }
    }

    /// Applies the transformation to `alpha` at `node`, with the sped-up
    /// window ending at `t0`.
    ///
    /// # Errors
    ///
    /// Returns [`SpeedUpError`] if the window does not fit, the node is out
    /// of range, or the preconditions fail.
    pub fn apply<M: Clone>(
        &self,
        alpha: &Execution<M>,
        node: usize,
        t0: f64,
    ) -> Result<SpeedUpOutcome<M>, SpeedUpError> {
        let n = alpha.node_count();
        if node >= n {
            return Err(SpeedUpError::BadNode(node));
        }
        let tau = self.bound.tau();
        let horizon = alpha.horizon();
        if t0 < tau - 1e-9 || t0 > horizon + 1e-9 {
            return Err(SpeedUpError::WindowOutOfRange {
                t0,
                min: tau,
                max: horizon,
            });
        }
        if !preconditions_hold(alpha, self.bound) {
            return Err(SpeedUpError::PreconditionsFail);
        }

        let bump = self.bound.rho() / 4.0;
        let mut schedules: Vec<RateSchedule> = alpha.schedules().to_vec();
        schedules[node] = bump_schedule(alpha.schedule(node), t0 - tau, t0, bump);

        let retiming = Retiming::new(schedules, horizon);
        let transformed = retiming.apply(alpha);
        let topo = alpha.topology().clone();
        let validation =
            retiming.validate(&transformed, self.bound, |i, j| (0.0, topo.distance(i, j)));

        let logical_advance = transformed.logical_at(node, t0) - alpha.logical_at(node, t0);
        let mut neighbor_skews = Vec::new();
        for j in 0..n {
            if j != node && (topo.distance(node, j) - 1.0).abs() < 1e-9 {
                neighbor_skews.push((
                    j,
                    transformed.logical_at(node, t0) - transformed.logical_at(j, t0),
                ));
            }
        }

        let report = SpeedUpReport {
            node,
            t0,
            logical_advance,
            neighbor_skews,
            validation,
        };
        Ok(SpeedUpOutcome {
            transformed,
            retiming,
            report,
        })
    }
}

/// Adds `bump` to every rate of `original` within `[from, to)`.
fn bump_schedule(original: &RateSchedule, from: f64, to: f64, bump: f64) -> RateSchedule {
    let mut points: Vec<(f64, f64)> = Vec::new();
    let segments = original.segments();
    for (idx, &(start, rate)) in segments.iter().enumerate() {
        let end = segments.get(idx + 1).map_or(f64::INFINITY, |&(s, _)| s);
        // Portion before the window.
        if start < from {
            points.push((start, rate));
        }
        // Portion inside the window.
        let w_lo = start.max(from);
        let w_hi = end.min(to);
        if w_lo < w_hi {
            points.push((w_lo, rate + bump));
        }
        // Portion after the window.
        if end > to && start < end {
            let after = start.max(to);
            if after < end {
                points.push((after, rate));
            }
        }
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    points.dedup_by(|a, b| a.0 == b.0);
    let mut builder = RateSchedule::builder(points[0].1);
    for &(t, r) in &points[1..] {
        builder = builder.rate_from(t, r);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_net::{FixedFractionDelay, Topology};
    use gcs_sim::{Context, Node, NodeId, SimulationBuilder};

    /// An aggressive algorithm: on every message, jumps its clock ahead of
    /// the received value by 1. Increases fast; the lemma punishes it.
    #[derive(Debug)]
    struct Eager;
    impl Node<f64> for Eager {
        fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
            ctx.set_timer(0.5);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _t: u64) {
            let v = ctx.logical_now();
            ctx.send_to_neighbors(&v);
            ctx.set_timer(0.5);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, f64>, _f: NodeId, m: &f64) {
            if *m + 1.0 > ctx.logical_now() {
                ctx.set_logical(*m + 1.0);
            }
        }
    }

    /// A calm algorithm: never touches its logical clock (L = H).
    #[derive(Debug)]
    struct Calm;
    impl Node<f64> for Calm {
        fn on_start(&mut self, _ctx: &mut Context<'_, f64>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, f64>, _f: NodeId, _m: &f64) {}
    }

    fn rho() -> DriftBound {
        DriftBound::new(0.5).unwrap()
    }

    fn run<N: Node<f64> + Send + 'static>(
        make: impl FnMut(usize, usize) -> N,
        n: usize,
        horizon: f64,
    ) -> Execution<f64> {
        let topo = Topology::line(n);
        SimulationBuilder::new(topo.clone())
            .schedules(vec![RateSchedule::constant(1.0); n])
            .delay_policy(FixedFractionDelay::for_topology(&topo, 0.5))
            .build_with(make)
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    #[test]
    fn calm_algorithm_increases_at_hardware_rate() {
        let exec = run(|_, _| Calm, 3, 10.0);
        let (inc, _) = max_unit_increase(&exec, 1, 2.0);
        assert!((inc - 1.0).abs() < 1e-9, "inc = {inc}");
    }

    #[test]
    fn eager_algorithm_increases_fast() {
        // Steady state: each node leapfrogs its neighbor's half-unit-old
        // value plus one, giving exactly rate 2 per unit time — twice the
        // calm algorithm's rate 1.
        let exec = run(|_, _| Eager, 3, 20.0);
        let (inc, node, _) = max_increase_over_nodes(&exec, 2.0);
        assert!(
            inc >= 2.0 - 1e-9,
            "eager should jump, inc = {inc} at node {node}"
        );
    }

    #[test]
    fn max_window_increase_finds_jumps() {
        // Hand-built execution: node jumps by 5 at t = 3.
        use gcs_clocks::PiecewiseLinear;
        let topo = Topology::line(1);
        let mut traj = PiecewiseLinear::new(0.0, 0.0, 1.0);
        traj.push(3.0, 8.0, 1.0);
        let exec: Execution<()> = Execution::from_parts(
            topo,
            vec![RateSchedule::constant(1.0)],
            10.0,
            vec![],
            vec![],
            vec![traj],
        );
        let (inc, at) = max_window_increase(&exec, 0, 1.0, 0.0);
        assert!(
            (inc - 6.0).abs() < 1e-9,
            "jump 5 plus rate 1 => 6, got {inc}"
        );
        assert!((2.0 - 1e-9..=3.0).contains(&at));
    }

    #[test]
    fn preconditions_accept_nominal_runs() {
        let exec = run(|_, _| Calm, 3, 8.0);
        assert!(preconditions_hold(&exec, rho()));
    }

    #[test]
    fn preconditions_reject_fast_hardware() {
        let topo = Topology::line(2);
        let exec = SimulationBuilder::new(topo)
            .schedules(vec![
                RateSchedule::constant(1.0),
                RateSchedule::constant(1.4), // beyond 1 + rho/2 = 1.25
            ])
            .build_with(|_, _| Calm)
            .unwrap()
            .try_execute_until(5.0)
            .unwrap();
        assert!(!preconditions_hold(&exec, rho()));
    }

    #[test]
    fn preconditions_reject_extreme_delays() {
        let topo = Topology::line(2);
        let exec = SimulationBuilder::new(topo.clone())
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .delay_policy(FixedFractionDelay::for_topology(&topo, 0.9))
            .build_with(|_, _| Eager)
            .unwrap()
            .try_execute_until(5.0)
            .unwrap();
        assert!(!preconditions_hold(&exec, rho()));
    }

    #[test]
    fn speed_up_advances_hardware_by_quarter() {
        let exec = run(|_, _| Calm, 3, 10.0);
        let outcome = SpeedUp::new(rho()).apply(&exec, 1, 4.0).unwrap();
        // H^beta(t0) = H^alpha(t0) + tau * rho/4 = t0 + 1/4; Calm has L = H.
        assert!((outcome.report.logical_advance - 0.25).abs() < 1e-9);
        assert!(outcome.report.validation.is_valid());
    }

    #[test]
    fn speed_up_is_indistinguishable() {
        use crate::indist::indistinguishable;
        let exec = run(|_, _| Eager, 4, 12.0);
        let outcome = SpeedUp::new(rho()).apply(&exec, 2, 6.0).unwrap();
        assert!(indistinguishable(&exec, &outcome.transformed, 0.0));
    }

    #[test]
    fn speed_up_creates_neighbor_skew_on_calm() {
        let exec = run(|_, _| Calm, 3, 10.0);
        let outcome = SpeedUp::new(rho()).apply(&exec, 1, 5.0).unwrap();
        let (_, worst) = outcome.report.worst_neighbor_skew().unwrap();
        // Calm nodes never communicate; the sped node is 1/4 ahead.
        assert!((worst - 0.25).abs() < 1e-9);
    }

    #[test]
    fn speed_up_rejects_early_window() {
        let exec = run(|_, _| Calm, 3, 10.0);
        let err = SpeedUp::new(rho()).apply(&exec, 1, 1.0).unwrap_err();
        assert!(matches!(err, SpeedUpError::WindowOutOfRange { .. }));
    }

    #[test]
    fn speed_up_rejects_bad_node() {
        let exec = run(|_, _| Calm, 3, 10.0);
        let err = SpeedUp::new(rho()).apply(&exec, 9, 5.0).unwrap_err();
        assert_eq!(err, SpeedUpError::BadNode(9));
    }

    #[test]
    fn bump_schedule_shapes_window() {
        let original = RateSchedule::constant(1.0);
        let bumped = bump_schedule(&original, 2.0, 4.0, 0.125);
        assert_eq!(bumped.rate_at(1.0), 1.0);
        assert_eq!(bumped.rate_at(2.0), 1.125);
        assert_eq!(bumped.rate_at(3.9), 1.125);
        assert_eq!(bumped.rate_at(4.0), 1.0);
        // Hardware advance over the window is 2 * 0.125 = 0.25.
        assert!((bumped.value_at(4.0) - original.value_at(4.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bump_schedule_preserves_existing_breakpoints() {
        let original = RateSchedule::builder(1.0).rate_from(3.0, 1.1).build();
        let bumped = bump_schedule(&original, 2.0, 4.0, 0.1);
        assert!((bumped.rate_at(1.0) - 1.0).abs() < 1e-12);
        assert!((bumped.rate_at(2.5) - 1.1).abs() < 1e-12);
        assert!((bumped.rate_at(3.5) - 1.2).abs() < 1e-12);
        assert!((bumped.rate_at(5.0) - 1.1).abs() < 1e-12);
    }
}
