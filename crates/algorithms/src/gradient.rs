//! Gradient clock synchronization algorithms.
//!
//! The paper *conjectures* (Section 9) that an `f(d) = O(d + log D)`
//! gradient algorithm exists; the conjecture was later settled
//! affirmatively by Locher & Wattenhofer and (optimally) by Lenzen, Locher
//! & Wattenhofer. The algorithms here realize the key idea those works
//! share: a node may adopt information from a neighbor only up to a
//! *distance-proportional slack*, so a burst of new clock value entering
//! the network propagates as a bounded-steepness wavefront instead of a
//! cliff.

use gcs_sim::{Context, Node, NodeId, TimerId};

use crate::SyncMsg;

/// Parameters of [`GradientNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientParams {
    /// Broadcast period in hardware time.
    pub period: f64,
    /// Slack per unit distance `κ`: a node adopts a neighbor's value only
    /// up to `value - κ·d`. The steady-state skew between nodes at
    /// distance `d` is then `≈ κ·d` plus drift accumulated per period.
    pub kappa: f64,
    /// Fraction of the sender distance credited to received values for
    /// in-flight delay (0 = conservative lower bound, 0.5 = midpoint).
    pub compensation: f64,
}

impl Default for GradientParams {
    fn default() -> Self {
        Self {
            period: 1.0,
            kappa: 0.5,
            compensation: 0.0,
        }
    }
}

/// Jump-based gradient synchronization with distance-proportional slack.
///
/// Every `period` of hardware time a node broadcasts its logical clock to
/// its neighbors. On receiving value `v` from a neighbor at distance `d`,
/// a node jumps to `v + compensation·d − κ·d` if that exceeds its own
/// clock. The `−κ·d` slack caps the steepness of the adopted clock
/// gradient at `κ` per unit distance: a node never moves more than `κ·d`
/// ahead of what it knows about any neighbor.
///
/// Satisfies validity (the logical clock never slows below the hardware
/// rate and only jumps forward). Empirically achieves a distance gradient
/// (experiment E8) where max algorithms do not.
///
/// # Examples
///
/// ```
/// use gcs_algorithms::{GradientNode, GradientParams};
/// use gcs_clocks::RateSchedule;
/// use gcs_net::Topology;
/// use gcs_sim::SimulationBuilder;
///
/// let rates = [1.02, 1.0, 0.99, 1.01];
/// let sim = SimulationBuilder::new(Topology::line(4))
///     .schedules(rates.iter().map(|&r| RateSchedule::constant(r)).collect())
///     .build_with(|_, _| GradientNode::new(GradientParams::default()))
///     .unwrap();
/// let exec = sim.try_execute_until(150.0).unwrap();
/// // Neighbors stay within a few slack units of each other.
/// assert!(exec.skew(1, 2, 150.0).abs() < 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct GradientNode {
    params: GradientParams,
}

impl GradientNode {
    /// Creates a node. Construction is identity- and
    /// topology-size-independent: the node carries only its parameters.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive, `κ` is negative, or the
    /// compensation is outside `[0, 1]`.
    #[must_use]
    pub fn new(params: GradientParams) -> Self {
        assert!(
            params.period.is_finite() && params.period > 0.0,
            "period must be positive"
        );
        assert!(
            params.kappa.is_finite() && params.kappa >= 0.0,
            "kappa must be nonnegative"
        );
        assert!(
            (0.0..=1.0).contains(&params.compensation),
            "compensation must be in [0, 1]"
        );
        Self { params }
    }

    /// The node's parameters.
    #[must_use]
    pub fn params(&self) -> GradientParams {
        self.params
    }
}

impl Node<SyncMsg> for GradientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        ctx.set_timer(self.params.period);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId) {
        let value = ctx.logical_now();
        ctx.send_to_neighbors(&SyncMsg::Clock(value));
        ctx.set_timer(self.params.period);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        if let SyncMsg::Clock(value) = msg {
            let d = ctx.distance_to(from);
            let target = value + self.params.compensation * d - self.params.kappa * d;
            if target > ctx.logical_now() {
                ctx.set_logical(target);
            }
        }
    }
}

/// Parameters of [`GradientRateNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientRateParams {
    /// Broadcast period in hardware time.
    pub period: f64,
    /// Catch-up threshold per unit distance: the node speeds up while it
    /// believes some neighbor is more than `threshold·d` ahead.
    pub threshold: f64,
    /// Logical rate multiplier while catching up (must be > 1).
    pub boost: f64,
}

impl Default for GradientRateParams {
    fn default() -> Self {
        Self {
            period: 1.0,
            threshold: 0.5,
            boost: 1.5,
        }
    }
}

/// Rate-based gradient synchronization: the fast/slow-mode discipline of
/// the later optimal gradient algorithms, in place of jumps.
///
/// The node tracks, per received message, the most advanced
/// slack-discounted neighbor estimate (advanced at the node's own
/// hardware rate between messages). While its clock is more than
/// `threshold·d` behind that estimate it runs its logical clock at
/// `boost × hardware rate`; otherwise at the hardware rate.
///
/// Because the logical clock is continuous (never jumps), applications
/// that cannot tolerate discontinuities — TDMA slot schedules, timestamped
/// sensor fusion — can consume it directly. This realizes the "smooth
/// clocks" extension the gradient literature develops after this paper.
#[derive(Debug, Clone)]
pub struct GradientRateNode {
    params: GradientRateParams,
    /// Best slack-discounted estimate, as (estimate value, own hardware
    /// reading when computed); advanced at hardware rate between events.
    best: Option<(f64, f64)>,
}

impl GradientRateNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive, the threshold is negative, or
    /// `boost ≤ 1`.
    #[must_use]
    pub fn new(params: GradientRateParams) -> Self {
        assert!(
            params.period.is_finite() && params.period > 0.0,
            "period must be positive"
        );
        assert!(
            params.threshold.is_finite() && params.threshold >= 0.0,
            "threshold must be nonnegative"
        );
        assert!(
            params.boost.is_finite() && params.boost > 1.0,
            "boost must exceed 1"
        );
        Self { params, best: None }
    }

    fn current_estimate(&self, hw_now: f64) -> Option<f64> {
        self.best.map(|(v, at)| v + (hw_now - at))
    }

    fn update_mode(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        let l = ctx.logical_now();
        let behind = self
            .current_estimate(ctx.hw_now())
            .is_some_and(|est| l < est);
        let target = if behind { self.params.boost } else { 1.0 };
        if (ctx.rate_multiplier() - target).abs() > 1e-12 {
            ctx.set_rate_multiplier(target);
        }
    }
}

impl Node<SyncMsg> for GradientRateNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        ctx.set_timer(self.params.period);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId) {
        let value = ctx.logical_now();
        ctx.send_to_neighbors(&SyncMsg::Clock(value));
        self.update_mode(ctx);
        ctx.set_timer(self.params.period);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        if let SyncMsg::Clock(value) = msg {
            let d = ctx.distance_to(from);
            let discounted = value - self.params.threshold * d;
            let hw = ctx.hw_now();
            let advanced = self.current_estimate(hw).unwrap_or(f64::NEG_INFINITY);
            if discounted > advanced {
                self.best = Some((discounted, hw));
            }
            self.update_mode(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_net::Topology;
    use gcs_sim::SimulationBuilder;

    fn drifting_line(n: usize) -> Vec<RateSchedule> {
        (0..n)
            .map(|i| RateSchedule::constant(1.0 + 0.02 * ((i % 3) as f64 - 1.0)))
            .collect()
    }

    #[test]
    fn gradient_keeps_neighbors_close() {
        let n = 6;
        let sim = SimulationBuilder::new(Topology::line(n))
            .schedules(drifting_line(n))
            .build_with(|_, _| GradientNode::new(GradientParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(200.0).unwrap();
        for i in 0..n - 1 {
            let s = exec.skew(i, i + 1, 200.0).abs();
            assert!(s < 3.0, "neighbors ({i},{}) skew {s}", i + 1);
        }
    }

    #[test]
    fn gradient_clock_never_jumps_backward() {
        let n = 5;
        let sim = SimulationBuilder::new(Topology::line(n))
            .schedules(drifting_line(n))
            .build_with(|_, _| GradientNode::new(GradientParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(100.0).unwrap();
        for node in 0..n {
            assert_eq!(exec.trajectory(node).max_backward_jump(0.0, f64::MAX), 0.0);
        }
    }

    #[test]
    fn slack_caps_adopted_steepness() {
        // A single fast node at the end of a line: with kappa = 1, each hop
        // can be up to ~1 + period behind the previous, forming a gradient
        // rather than a cliff.
        let n = 5;
        let mut rates = vec![1.0; n];
        rates[0] = 1.05;
        let sim = SimulationBuilder::new(Topology::line(n))
            .schedules(rates.into_iter().map(RateSchedule::constant).collect())
            .build_with(|_, _| {
                GradientNode::new(GradientParams {
                    period: 1.0,
                    kappa: 1.0,
                    compensation: 0.0,
                })
            })
            .unwrap();
        let exec = sim.try_execute_until(300.0).unwrap();
        // Adjacent skews bounded by kappa + drift + period slack…
        for i in 0..n - 1 {
            let s = exec.skew(i, i + 1, 300.0).abs();
            assert!(s < 2.5, "adjacent skew {s} at ({i}, {})", i + 1);
        }
        // …and the far pair's skew reflects the gradient, not a cliff.
        let far = exec.skew(0, n - 1, 300.0).abs();
        assert!(far < 2.5 * (n as f64 - 1.0));
    }

    #[test]
    fn gradient_rate_node_is_continuous() {
        let n = 4;
        let sim = SimulationBuilder::new(Topology::line(n))
            .schedules(drifting_line(n))
            .build_with(|_, _| GradientRateNode::new(GradientRateParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(150.0).unwrap();
        for node in 0..n {
            // No jumps at all: every trajectory breakpoint is continuous.
            let traj = exec.trajectory(node);
            for w in traj.breakpoints().windows(2) {
                let left = w[0].y + w[0].slope * (w[1].x - w[0].x);
                assert!(
                    (left - w[1].y).abs() < 1e-9,
                    "node {node} jumped at hw {}",
                    w[1].x
                );
            }
        }
    }

    #[test]
    fn gradient_rate_node_catches_up() {
        // Node 1 starts behind in hardware rate; the boost keeps it near
        // its fast neighbor.
        let sim = SimulationBuilder::new(Topology::line(2))
            .schedules(vec![
                RateSchedule::constant(1.04),
                RateSchedule::constant(1.0),
            ])
            .build_with(|_, _| GradientRateNode::new(GradientRateParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(200.0).unwrap();
        let skew = exec.skew(0, 1, 200.0).abs();
        // Without catching up the skew would be 8; with the boost it stays
        // near the threshold.
        assert!(skew < 3.0, "skew = {skew}");
    }

    #[test]
    fn gradient_rate_multiplier_respects_validity() {
        let sim = SimulationBuilder::new(Topology::line(3))
            .schedules(drifting_line(3))
            .build_with(|_, _| GradientRateNode::new(GradientRateParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(100.0).unwrap();
        for node in 0..3 {
            let traj = exec.trajectory(node);
            for bp in traj.breakpoints() {
                assert!(bp.slope >= 1.0 - 1e-12, "multiplier below 1 at node {node}");
            }
        }
    }

    #[test]
    fn params_accessor_roundtrips() {
        let p = GradientParams {
            period: 2.0,
            kappa: 0.25,
            compensation: 0.5,
        };
        let node = GradientNode::new(p);
        assert_eq!(node.params(), p);
    }

    #[test]
    #[should_panic(expected = "boost must exceed 1")]
    fn rate_node_rejects_unit_boost() {
        let _ = GradientRateNode::new(GradientRateParams {
            period: 1.0,
            threshold: 0.5,
            boost: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "kappa must be nonnegative")]
    fn gradient_rejects_negative_kappa() {
        let _ = GradientNode::new(GradientParams {
            period: 1.0,
            kappa: -0.1,
            compensation: 0.0,
        });
    }
}
