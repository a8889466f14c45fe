//! The node (algorithm) trait and its execution context.

use crate::{NodeId, TimerId};
use gcs_clocks::PiecewiseLinear;
use gcs_net::Topology;

/// A clock-synchronization algorithm running at one node.
///
/// Implementations must be *deterministic* given the sequence of callbacks
/// and hardware clock readings they observe — this is what makes executions
/// replayable and is assumed by the indistinguishability arguments.
///
/// Nodes interact with the world only through the [`Context`]: they can read
/// their hardware clock, read and adjust their logical clock, send messages,
/// and set hardware-time timers. They can never observe real time.
pub trait Node<M> {
    /// Called once at real time 0 (hardware time 0).
    fn on_start(&mut self, ctx: &mut Context<'_, M>);

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: &M);

    /// Called when a timer previously created with [`Context::set_timer`]
    /// fires. The default implementation does nothing.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// Called when the link between this node and `peer` changes state
    /// (dynamic topologies only; `up` is `true` when the link came up).
    /// [`Context::neighbors`] already reflects the new live set when this
    /// runs. The default implementation does nothing, so algorithms
    /// written for static networks compile and run unchanged.
    fn on_topology_change(&mut self, ctx: &mut Context<'_, M>, peer: NodeId, up: bool) {
        let _ = (ctx, peer, up);
    }
}

impl<M, N: Node<M> + ?Sized> Node<M> for Box<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        (**self).on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: &M) {
        (**self).on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId) {
        (**self).on_timer(ctx, timer);
    }
    fn on_topology_change(&mut self, ctx: &mut Context<'_, M>, peer: NodeId, up: bool) {
        (**self).on_topology_change(ctx, peer, up);
    }
}

/// Buffered externally-visible actions produced during one callback.
///
/// The engine owns one long-lived instance and drains it after every
/// dispatch, so the send/timer buffers are allocated once and reused for
/// the whole run instead of per callback.
#[derive(Debug)]
pub(crate) struct Actions<M> {
    pub sends: Vec<Outgoing<M>>,
    pub timers: Vec<(TimerId, f64)>,
}

impl<M> Default for Actions<M> {
    fn default() -> Self {
        Self {
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }
}

/// One buffered send: to one node, or one payload to every neighbour (a
/// [`Context::send_to_neighbors`] broadcast, whose streamed local
/// deliveries share one in-flight slot).
#[derive(Debug, PartialEq)]
pub(crate) enum Outgoing<M> {
    To(NodeId, M),
    Neighbors(M),
}

/// The interface through which a [`Node`] observes and affects the world
/// during a callback.
///
/// The context exposes the node's identity, its neighborhood, its *hardware*
/// clock reading, and its *logical* clock; it accepts message sends and
/// timer requests. Real time is deliberately not observable.
#[derive(Debug)]
pub struct Context<'a, M> {
    id: NodeId,
    n: usize,
    hw: f64,
    neighbors: &'a [NodeId],
    topology: &'a Topology,
    trajectory: &'a mut PiecewiseLinear,
    next_timer: &'a mut TimerId,
    actions: &'a mut Actions<M>,
}

impl<'a, M> Context<'a, M> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        n: usize,
        hw: f64,
        neighbors: &'a [NodeId],
        topology: &'a Topology,
        trajectory: &'a mut PiecewiseLinear,
        next_timer: &'a mut TimerId,
        actions: &'a mut Actions<M>,
    ) -> Self {
        Self {
            id,
            n,
            hw,
            neighbors,
            topology,
            trajectory,
            next_timer,
            actions,
        }
    }

    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The number of nodes in the network.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The node's neighbors (the nodes it exchanges messages with).
    #[must_use]
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// The distance (message-delay uncertainty) to node `other`.
    ///
    /// Algorithms are allowed to know distances: the paper's model fixes the
    /// network, and `d_ij` is part of the problem instance.
    ///
    /// # Panics
    ///
    /// Panics if `other` is out of range.
    #[must_use]
    pub fn distance_to(&self, other: NodeId) -> f64 {
        assert!(other < self.n, "node index out of range");
        self.topology.distance(self.id, other)
    }

    /// The current hardware clock reading `H_i(now)`.
    #[must_use]
    pub fn hw_now(&self) -> f64 {
        self.hw
    }

    /// The current logical clock value `L_i(now)`.
    #[must_use]
    pub fn logical_now(&self) -> f64 {
        self.trajectory.value_at(self.hw)
    }

    /// The current logical rate multiplier: the logical clock advances at
    /// `multiplier × (hardware rate)`.
    #[must_use]
    pub fn rate_multiplier(&self) -> f64 {
        self.trajectory.slope_at(self.hw)
    }

    /// Sets the logical clock to `value` immediately (a jump), keeping the
    /// current rate multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn set_logical(&mut self, value: f64) {
        let mult = self.rate_multiplier();
        self.trajectory.push(self.hw, value, mult);
    }

    /// Sets the logical rate multiplier from now on: the logical clock will
    /// advance at `multiplier × (hardware rate)` until changed again.
    ///
    /// To satisfy the paper's validity condition (rate ≥ 1/2 in real time)
    /// the multiplier must be at least `0.5 / (1 - ρ)`.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not finite and nonnegative.
    pub fn set_rate_multiplier(&mut self, multiplier: f64) {
        assert!(
            multiplier.is_finite() && multiplier >= 0.0,
            "rate multiplier must be finite and nonnegative"
        );
        let value = self.logical_now();
        self.trajectory.push(self.hw, value, multiplier);
    }

    /// Sends `msg` to node `to`. Delivery is scheduled by the simulation's
    /// delay policy within `[0, d]` of the send.
    ///
    /// # Panics
    ///
    /// Panics if `to` is this node or out of range.
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(to < self.n, "node index out of range");
        assert!(to != self.id, "a node cannot send to itself");
        self.actions.sends.push(Outgoing::To(to, msg));
    }

    /// Sends a clone of `msg` to every neighbor.
    pub fn send_to_neighbors(&mut self, msg: &M)
    where
        M: Clone,
    {
        self.actions.sends.push(Outgoing::Neighbors(msg.clone()));
    }

    /// Schedules a timer to fire when this node's hardware clock has
    /// advanced by `delta_hw > 0`. Returns the timer's id, which is passed
    /// back to [`Node::on_timer`].
    ///
    /// # Panics
    ///
    /// Panics if `delta_hw` is not finite and strictly positive.
    pub fn set_timer(&mut self, delta_hw: f64) -> TimerId {
        assert!(
            delta_hw.is_finite() && delta_hw > 0.0,
            "timer delta must be positive, got {delta_hw}"
        );
        let id = *self.next_timer;
        *self.next_timer += 1;
        // The target is an exact float sum of the dispatch reading and the
        // delta, so replays of re-timed executions reproduce it bit-for-bit.
        self.actions.timers.push((id, self.hw + delta_hw));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_fixture<'a>(
        traj: &'a mut PiecewiseLinear,
        next_timer: &'a mut TimerId,
        actions: &'a mut Actions<u8>,
        neighbors: &'a [NodeId],
        topology: &'a Topology,
    ) -> Context<'a, u8> {
        Context::new(1, 3, 5.0, neighbors, topology, traj, next_timer, actions)
    }

    #[test]
    fn logical_clock_reads_through_trajectory() {
        let mut traj = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let mut next = 0;
        let mut actions = Actions::default();
        let neighbors = [0, 2];
        let topology = Topology::line(3);
        let mut ctx = ctx_fixture(&mut traj, &mut next, &mut actions, &neighbors, &topology);
        assert_eq!(ctx.logical_now(), 5.0);
        ctx.set_logical(9.0);
        assert_eq!(ctx.logical_now(), 9.0);
        ctx.set_rate_multiplier(2.0);
        assert_eq!(ctx.rate_multiplier(), 2.0);
        // Trajectory reflects the changes beyond the current hw time.
        let _ = ctx;
        assert_eq!(traj.value_at(6.0), 11.0);
    }

    #[test]
    fn sends_and_timers_are_buffered() {
        let mut traj = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let mut next = 0;
        let mut actions = Actions::default();
        let neighbors = [0, 2];
        let topology = Topology::line(3);
        let mut ctx = ctx_fixture(&mut traj, &mut next, &mut actions, &neighbors, &topology);
        ctx.send(0, 42);
        ctx.send_to_neighbors(&7);
        let t0 = ctx.set_timer(2.5);
        let t1 = ctx.set_timer(0.5);
        assert_eq!((t0, t1), (0, 1));
        let _ = ctx;
        assert_eq!(
            actions.sends,
            vec![Outgoing::To(0, 42), Outgoing::Neighbors(7)]
        );
        assert_eq!(actions.timers, vec![(0, 7.5), (1, 5.5)]);
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_send_panics() {
        let mut traj = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let mut next = 0;
        let mut actions = Actions::default();
        let neighbors = [0, 2];
        let topology = Topology::line(3);
        let mut ctx = ctx_fixture(&mut traj, &mut next, &mut actions, &neighbors, &topology);
        ctx.send(1, 1);
    }

    #[test]
    #[should_panic(expected = "timer delta must be positive")]
    fn nonpositive_timer_panics() {
        let mut traj = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let mut next = 0;
        let mut actions = Actions::default();
        let neighbors = [0, 2];
        let topology = Topology::line(3);
        let mut ctx = ctx_fixture(&mut traj, &mut next, &mut actions, &neighbors, &topology);
        let _ = ctx.set_timer(0.0);
    }

    #[test]
    fn distance_lookup() {
        let mut traj = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let mut next = 0;
        let mut actions: Actions<u8> = Actions::default();
        let neighbors = [0, 2];
        let topology = Topology::from_matrix(
            vec![0.0, 1.5, 4.0, 1.5, 0.0, 2.5, 4.0, 2.5, 0.0],
            f64::INFINITY,
        )
        .unwrap();
        let ctx = ctx_fixture(&mut traj, &mut next, &mut actions, &neighbors, &topology);
        assert_eq!(ctx.distance_to(0), 1.5);
        assert_eq!(ctx.distance_to(2), 2.5);
        assert_eq!(ctx.id(), 1);
        assert_eq!(ctx.node_count(), 3);
        assert_eq!(ctx.neighbors(), &[0, 2]);
    }
}
