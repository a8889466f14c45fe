//! Max-based synchronization (the simplified Srikanth-Toueg algorithm of
//! Section 2 of the paper) and its delay-compensated variant.
//!
//! State audit (100k-node scale runs): both nodes here hold O(1) state —
//! just their parameters — so they are unconditionally scale-safe.

use gcs_sim::{Context, Node, NodeId, TimerId};

use crate::SyncMsg;

/// Parameters of [`MaxNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxParams {
    /// Broadcast period in hardware time.
    pub period: f64,
}

impl Default for MaxParams {
    fn default() -> Self {
        Self { period: 1.0 }
    }
}

/// The simplified Srikanth-Toueg max algorithm from Section 2 of the
/// paper: nodes periodically broadcast their logical clock to their
/// neighbors, and a node receiving a value larger than its own adopts it.
///
/// Guarantees `O(D)` global skew (the fastest clock propagates to everyone
/// within a diameter of message delay) but **violates the gradient
/// property**: as the paper's three-node example shows, a node can jump
/// `Θ(D)` ahead of a distance-1 neighbor the instant it hears from a fast
/// faraway node, because its neighbor hears the same news up to one time
/// unit later. Experiment E6 reproduces this.
///
/// # Examples
///
/// ```
/// use gcs_algorithms::{MaxNode, MaxParams};
/// use gcs_clocks::RateSchedule;
/// use gcs_net::Topology;
/// use gcs_sim::SimulationBuilder;
///
/// let sim = SimulationBuilder::new(Topology::line(3))
///     .schedules(vec![
///         RateSchedule::constant(1.04),
///         RateSchedule::constant(1.0),
///         RateSchedule::constant(0.97),
///     ])
///     .build_with(|_, _| MaxNode::new(MaxParams::default()))
///     .unwrap();
/// let exec = sim.try_execute_until(100.0).unwrap();
/// // Everyone tracks the fastest clock to within a few message delays.
/// assert!(exec.skew(0, 2, 100.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MaxNode {
    params: MaxParams,
}

impl MaxNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive.
    #[must_use]
    pub fn new(params: MaxParams) -> Self {
        assert!(
            params.period.is_finite() && params.period > 0.0,
            "period must be positive"
        );
        Self { params }
    }
}

impl Node<SyncMsg> for MaxNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        ctx.set_timer(self.params.period);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId) {
        let value = ctx.logical_now();
        ctx.send_to_neighbors(&SyncMsg::Clock(value));
        ctx.set_timer(self.params.period);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, _from: NodeId, msg: &SyncMsg) {
        if let SyncMsg::Clock(value) = msg {
            if *value > ctx.logical_now() {
                ctx.set_logical(*value);
            }
        }
    }
}

/// Parameters of [`OffsetMaxNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetMaxParams {
    /// Broadcast period in hardware time.
    pub period: f64,
    /// Fraction of the sender distance added to received values,
    /// compensating for expected in-flight delay. `0.0` is the
    /// conservative max algorithm; `0.5` assumes midpoint delays.
    pub compensation: f64,
}

impl Default for OffsetMaxParams {
    fn default() -> Self {
        Self {
            period: 1.0,
            compensation: 0.5,
        }
    }
}

/// Max synchronization with delay compensation: a received value is
/// credited with `compensation × d` before comparison, estimating how far
/// the sender's clock advanced while the message was in flight.
///
/// Tightens average skew but remains a max algorithm — it inherits the
/// gradient violation of [`MaxNode`], and overcompensation (delays shorter
/// than assumed) can push clocks *ahead* of every real clock.
#[derive(Debug, Clone, Copy)]
pub struct OffsetMaxNode {
    params: OffsetMaxParams,
}

impl OffsetMaxNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive or the compensation is not in
    /// `[0, 1]`.
    #[must_use]
    pub fn new(params: OffsetMaxParams) -> Self {
        assert!(
            params.period.is_finite() && params.period > 0.0,
            "period must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&params.compensation),
            "compensation must be in [0, 1]"
        );
        Self { params }
    }
}

impl Node<SyncMsg> for OffsetMaxNode {
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
            let estimate = value + self.params.compensation * ctx.distance_to(from);
            if estimate > ctx.logical_now() {
                ctx.set_logical(estimate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_net::{AdversarialDelay, DelayOutcome, Topology};
    use gcs_sim::SimulationBuilder;

    #[test]
    fn max_adopts_larger_values() {
        let sim = SimulationBuilder::new(Topology::line(2))
            .schedules(vec![
                RateSchedule::constant(1.1),
                RateSchedule::constant(1.0),
            ])
            .build_with(|_, _| MaxNode::new(MaxParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(50.0).unwrap();
        // Node 1 must track node 0's faster clock.
        assert!(exec.logical_at(1, 50.0) > 52.0);
    }

    #[test]
    fn max_never_decreases_clocks() {
        let sim = SimulationBuilder::new(Topology::line(3))
            .schedules(vec![
                RateSchedule::constant(1.1),
                RateSchedule::constant(1.0),
                RateSchedule::constant(0.9),
            ])
            .build_with(|_, _| MaxNode::new(MaxParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(30.0).unwrap();
        for node in 0..3 {
            assert_eq!(exec.trajectory(node).max_backward_jump(0.0, f64::MAX), 0.0);
        }
    }

    #[test]
    fn section2_example_max_violates_gradient() {
        // The paper's Section-2 scenario in miniature: x far from y, z next
        // to y. x runs fast; the x->y link suddenly becomes instant while
        // y->z stays slow, so y jumps ahead of z by ~D.
        let d = 8.0;
        let topology = Topology::from_matrix(
            vec![
                0.0,
                d,
                d + 1.0, //
                d,
                0.0,
                1.0, //
                d + 1.0,
                1.0,
                0.0,
            ],
            d + 1.0,
        )
        .unwrap();
        let switch_time = 30.0;
        let policy = AdversarialDelay::new(move |from, to, _seq, send| {
            let dist = match (from, to) {
                (0, 1) | (1, 0) => d,
                (1, 2) | (2, 1) => 1.0,
                _ => d + 1.0,
            };
            if (from, to) == (0, 1) && send >= switch_time {
                DelayOutcome::Delay(0.0)
            } else {
                DelayOutcome::Delay(dist / 2.0)
            }
        });
        let sim = SimulationBuilder::new(topology)
            .schedules(vec![
                RateSchedule::constant(1.05),
                RateSchedule::constant(1.0),
                RateSchedule::constant(1.0),
            ])
            .delay_policy(policy)
            .build_with(|_, _| MaxNode::new(MaxParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(60.0).unwrap();
        // Find the worst skew between y (1) and z (2), distance 1 apart.
        let (worst, _) = gcs_core_free_max_skew(&exec, 1, 2);
        assert!(
            worst > 1.0,
            "max algorithm should violate a unit gradient between y and z, got {worst}"
        );
    }

    /// Local helper replicating exact pairwise max skew (gcs-core is not a
    /// dependency of this crate).
    fn gcs_core_free_max_skew(
        exec: &gcs_sim::Execution<SyncMsg>,
        i: usize,
        j: usize,
    ) -> (f64, f64) {
        let mut best = (0.0, 0.0);
        let mut t = 0.0;
        while t <= exec.horizon() {
            let s = exec.skew(i, j, t).abs();
            if s > best.0 {
                best = (s, t);
            }
            t += 0.05;
        }
        best
    }

    #[test]
    fn offset_max_tracks_tighter_than_plain_max() {
        let run = |comp: f64| {
            let topo = Topology::line(4);
            let sim = SimulationBuilder::new(topo)
                .schedules(vec![
                    RateSchedule::constant(1.05),
                    RateSchedule::constant(1.0),
                    RateSchedule::constant(1.0),
                    RateSchedule::constant(0.95),
                ])
                .build_with(|_, _| {
                    OffsetMaxNode::new(OffsetMaxParams {
                        period: 1.0,
                        compensation: comp,
                    })
                })
                .unwrap();
            let exec = sim.try_execute_until(80.0).unwrap();
            exec.skew(0, 3, 80.0).abs()
        };
        // Midpoint compensation tracks the leader at least as tightly as
        // no compensation under midpoint delays.
        assert!(run(0.5) <= run(0.0) + 1e-9);
    }

    #[test]
    fn offset_max_ignores_non_clock_messages() {
        // Node 1 sends a Beacon; the max node must not misinterpret it.
        use gcs_sim::{Context as Ctx, Node as NodeTrait};
        #[derive(Debug)]
        struct BeaconSender;
        impl NodeTrait<SyncMsg> for BeaconSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, SyncMsg>) {
                ctx.send(0, SyncMsg::Beacon { round: 1 });
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, SyncMsg>, _f: NodeId, _m: &SyncMsg) {}
        }
        let sim = SimulationBuilder::new(Topology::line(2))
            .build_with(|id, _| -> Box<dyn NodeTrait<SyncMsg> + Send> {
                if id == 0 {
                    Box::new(OffsetMaxNode::new(OffsetMaxParams::default()))
                } else {
                    Box::new(BeaconSender)
                }
            })
            .unwrap();
        let exec = sim.try_execute_until(10.0).unwrap();
        // Logical clock unaffected by the beacon (stays = H at rate 1).
        assert!((exec.logical_at(0, 10.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = MaxNode::new(MaxParams { period: 0.0 });
    }

    #[test]
    #[should_panic(expected = "compensation must be in")]
    fn bad_compensation_panics() {
        let _ = OffsetMaxNode::new(OffsetMaxParams {
            period: 1.0,
            compensation: 1.5,
        });
    }
}
