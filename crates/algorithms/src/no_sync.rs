//! The trivial baseline: no synchronization at all.

use gcs_sim::{Context, Node, NodeId};

use crate::SyncMsg;

/// A node that never adjusts its logical clock: `L = H`.
///
/// Satisfies validity (rate ≥ `1-ρ` ≥ 1/2 for `ρ < 1/2`) but provides no
/// synchronization: the skew between two nodes grows like the hardware
/// drift difference times elapsed time, independent of distance — the
/// reason clock synchronization algorithms exist.
///
/// # Examples
///
/// ```
/// use gcs_algorithms::NoSyncNode;
/// use gcs_clocks::RateSchedule;
/// use gcs_net::Topology;
/// use gcs_sim::SimulationBuilder;
///
/// let sim = SimulationBuilder::new(Topology::line(2))
///     .schedules(vec![RateSchedule::constant(1.01), RateSchedule::constant(0.99)])
///     .build_with(|_, _| NoSyncNode::new())
///     .unwrap();
/// let exec = sim.try_execute_until(100.0).unwrap();
/// assert!((exec.skew(0, 1, 100.0) - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSyncNode;

impl NoSyncNode {
    /// Creates the node.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Node<SyncMsg> for NoSyncNode {
    fn on_start(&mut self, _ctx: &mut Context<'_, SyncMsg>) {}

    fn on_message(&mut self, _ctx: &mut Context<'_, SyncMsg>, _from: NodeId, _msg: &SyncMsg) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_net::Topology;
    use gcs_sim::SimulationBuilder;

    #[test]
    fn logical_equals_hardware() {
        let sim = SimulationBuilder::new(Topology::line(2))
            .schedules(vec![
                RateSchedule::constant(1.05),
                RateSchedule::constant(1.0),
            ])
            .build_with(|_, _| NoSyncNode::new())
            .unwrap();
        let exec = sim.try_execute_until(40.0).unwrap();
        assert!((exec.logical_at(0, 40.0) - 42.0).abs() < 1e-9);
        assert!((exec.logical_at(1, 40.0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn sends_no_messages() {
        let sim = SimulationBuilder::new(Topology::line(3))
            .build_with(|_, _| NoSyncNode::new())
            .unwrap();
        let exec = sim.try_execute_until(50.0).unwrap();
        assert!(exec.messages().is_empty());
    }

    #[test]
    fn skew_grows_with_drift_and_time() {
        let run = |horizon: f64| {
            let sim = SimulationBuilder::new(Topology::line(2))
                .schedules(vec![
                    RateSchedule::constant(1.02),
                    RateSchedule::constant(0.98),
                ])
                .build_with(|_, _| NoSyncNode::new())
                .unwrap();
            sim.try_execute_until(horizon).unwrap().skew(0, 1, horizon)
        };
        assert!(run(100.0) > run(10.0));
    }
}
