//! Failure injection: crash-stop and temporarily-silent node wrappers.
//!
//! The paper's model assumes reliable, always-on nodes; these wrappers
//! support the robustness extension experiments (how gracefully do the
//! algorithms degrade when the model is violated?). A wrapped node behaves
//! exactly like its inner algorithm until its fault point.

use gcs_sim::{Context, Node, NodeId, TimerId};

use crate::SyncMsg;

/// A crash-stop wrapper: the inner node behaves normally until its
/// hardware clock reaches `crash_at`, after which the node neither sends,
/// adjusts its clock, nor reacts to anything (its logical clock keeps
/// advancing at the hardware rate with its last multiplier — a crashed
/// node's oscillator keeps ticking, its radio stays off).
///
/// # Examples
///
/// ```
/// use gcs_algorithms::{fault::CrashingNode, MaxNode, MaxParams};
/// use gcs_net::Topology;
/// use gcs_sim::SimulationBuilder;
///
/// let sim = SimulationBuilder::new(Topology::line(2))
///     .build_with(|_, _| CrashingNode::new(MaxNode::new(MaxParams::default()), 5.0))
///     .unwrap();
/// let exec = sim.try_execute_until(20.0).unwrap();
/// // No messages are sent after both nodes crash (plus one in-flight round).
/// assert!(exec.messages().iter().all(|m| m.send_time <= 6.0));
/// ```
#[derive(Debug, Clone)]
pub struct CrashingNode<N> {
    inner: N,
    crash_at: f64,
}

impl<N> CrashingNode<N> {
    /// Wraps `inner`, crashing it when its hardware clock reaches
    /// `crash_at`.
    ///
    /// # Panics
    ///
    /// Panics if `crash_at` is not finite and nonnegative.
    #[must_use]
    pub fn new(inner: N, crash_at: f64) -> Self {
        assert!(
            crash_at.is_finite() && crash_at >= 0.0,
            "crash time must be finite and nonnegative"
        );
        Self { inner, crash_at }
    }

    /// The wrapped node.
    #[must_use]
    pub fn inner(&self) -> &N {
        &self.inner
    }

    fn crashed(&self, ctx: &Context<'_, SyncMsg>) -> bool {
        ctx.hw_now() >= self.crash_at
    }
}

impl<N: Node<SyncMsg>> Node<SyncMsg> for CrashingNode<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        if !self.crashed(ctx) {
            self.inner.on_start(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, timer: TimerId) {
        if !self.crashed(ctx) {
            self.inner.on_timer(ctx, timer);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        if !self.crashed(ctx) {
            self.inner.on_message(ctx, from, msg);
        }
    }

    fn on_topology_change(&mut self, ctx: &mut Context<'_, SyncMsg>, peer: NodeId, up: bool) {
        if !self.crashed(ctx) {
            self.inner.on_topology_change(ctx, peer, up);
        }
    }
}

/// A wrapper that silences a node during a hardware-time window
/// (`[from, to)`): messages and timers arriving in the window are ignored
/// and the node sends nothing, but it resumes normal operation afterwards
/// — a transient partition or a duty-cycled radio.
///
/// Note that timers the inner node armed before the window that fire
/// *inside* it are swallowed, so periodic algorithms must survive losing a
/// beat; the wrapper re-kicks the inner node by delivering a synthetic
/// timer... it does not — instead the inner algorithm's own robustness is
/// under test, which is the point of the wrapper.
#[derive(Debug, Clone)]
pub struct SilencedNode<N> {
    inner: N,
    from: f64,
    to: f64,
    /// Re-arm tick so the node wakes up after the window even if all its
    /// own timers were swallowed.
    wake_timer: Option<TimerId>,
}

impl<N> SilencedNode<N> {
    /// Wraps `inner`, silencing it on hardware interval `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ from < to` and both are finite.
    #[must_use]
    pub fn new(inner: N, from: f64, to: f64) -> Self {
        assert!(
            from.is_finite() && to.is_finite() && from >= 0.0 && from < to,
            "silence window must satisfy 0 <= from < to"
        );
        Self {
            inner,
            from,
            to,
            wake_timer: None,
        }
    }

    fn silenced(&self, ctx: &Context<'_, SyncMsg>) -> bool {
        let hw = ctx.hw_now();
        hw >= self.from && hw < self.to
    }
}

impl<N: Node<SyncMsg>> Node<SyncMsg> for SilencedNode<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        self.inner.on_start(ctx);
        // Schedule a wake-up just past the window's end.
        self.wake_timer = Some(ctx.set_timer(self.to + 1e-9));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, timer: TimerId) {
        if self.wake_timer == Some(timer) {
            // Restart the inner algorithm's periodic machinery.
            self.inner.on_start(ctx);
            return;
        }
        if !self.silenced(ctx) {
            self.inner.on_timer(ctx, timer);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        if !self.silenced(ctx) {
            self.inner.on_message(ctx, from, msg);
        }
    }

    fn on_topology_change(&mut self, ctx: &mut Context<'_, SyncMsg>, peer: NodeId, up: bool) {
        // Link state is observed locally, not over the radio: a silenced
        // node still sees its ports go up and down.
        self.inner.on_topology_change(ctx, peer, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GradientNode, GradientParams, MaxNode, MaxParams};
    use gcs_clocks::RateSchedule;
    use gcs_net::Topology;
    use gcs_sim::SimulationBuilder;

    #[test]
    fn crashed_node_goes_silent() {
        let sim = SimulationBuilder::new(Topology::line(3))
            .build_with(|id, _| {
                let crash_at = if id == 1 { 10.0 } else { f64::MAX / 2.0 };
                CrashingNode::new(MaxNode::new(MaxParams::default()), crash_at)
            })
            .unwrap();
        let exec = sim.try_execute_until(40.0).unwrap();
        // Node 1 sends nothing after hw 10 (rate 1 -> real 10).
        assert!(exec
            .messages()
            .iter()
            .filter(|m| m.from == 1)
            .all(|m| m.send_time <= 10.0));
        // Others keep sending.
        assert!(exec
            .messages()
            .iter()
            .any(|m| m.from == 0 && m.send_time > 30.0));
    }

    #[test]
    fn crash_at_zero_means_never_started() {
        let sim = SimulationBuilder::new(Topology::line(2))
            .build_with(|_, _| CrashingNode::new(MaxNode::new(MaxParams::default()), 0.0))
            .unwrap();
        let exec = sim.try_execute_until(10.0).unwrap();
        assert!(exec.messages().is_empty());
    }

    #[test]
    fn survivors_keep_synchronizing_after_a_crash() {
        // Node 2 (middle of a 5-line) crashes; its neighbors can no longer
        // relay through it, but each side keeps its own side synchronized.
        let rates = [1.02, 1.0, 1.0, 1.0, 0.98];
        let sim = SimulationBuilder::new(Topology::line(5))
            .schedules(rates.iter().map(|&r| RateSchedule::constant(r)).collect())
            .build_with(|id, _| {
                let crash_at = if id == 2 { 20.0 } else { f64::MAX / 2.0 };
                CrashingNode::new(GradientNode::new(GradientParams::default()), crash_at)
            })
            .unwrap();
        let exec = sim.try_execute_until(200.0).unwrap();
        // Left pair still tight (node 0 fast, node 1 follows).
        assert!(exec.skew(0, 1, 200.0).abs() < 3.0);
        // Across the dead node, skew grows freely (partition).
        assert!(exec.skew(0, 4, 200.0).abs() > 3.0);
    }

    #[test]
    fn silenced_node_resumes() {
        let rates = [1.03, 1.0];
        let sim = SimulationBuilder::new(Topology::line(2))
            .schedules(rates.iter().map(|&r| RateSchedule::constant(r)).collect())
            .build_with(|_, _| SilencedNode::new(MaxNode::new(MaxParams::default()), 20.0, 40.0))
            .unwrap();
        let exec = sim.try_execute_until(120.0).unwrap();
        // After resuming, node 1 tracks node 0 again.
        let final_skew = exec.skew(0, 1, 120.0).abs();
        assert!(final_skew < 2.0, "post-resume skew {final_skew}");
        // And messages exist both before and after the window.
        assert!(exec.messages().iter().any(|m| m.send_time < 20.0));
        assert!(exec.messages().iter().any(|m| m.send_time > 50.0));
    }

    #[test]
    #[should_panic(expected = "crash time must be finite")]
    fn negative_crash_time_panics() {
        let _ = CrashingNode::new(MaxNode::new(MaxParams::default()), -1.0);
    }

    #[test]
    #[should_panic(expected = "silence window")]
    fn inverted_silence_window_panics() {
        let _ = SilencedNode::new(MaxNode::new(MaxParams::default()), 10.0, 5.0);
    }
}
