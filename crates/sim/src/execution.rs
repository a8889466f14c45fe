//! Recorded executions.

use std::fmt;

use gcs_clocks::{PiecewiseLinear, RateSchedule};
use gcs_dynamic::DynamicTopology;
use gcs_net::Topology;

use crate::event::{EventRecord, MessageRecord};
use crate::NodeId;

/// A fully recorded execution of a clock-synchronization algorithm.
///
/// An execution knows, for every node:
///
/// - its hardware clock schedule (rate as a function of real time),
/// - its logical clock *trajectory* — the logical clock as a
///   piecewise-linear function of the node's **hardware** time, which is the
///   representation preserved by the indistinguishability principle, and
/// - every dispatched event and every message (with send/arrival times in
///   both real and hardware time).
///
/// Logical values at arbitrary real times are derived on demand:
/// `L_i(t) = trajectory_i(H_i(t))`.
///
/// Executions of dynamic (churning) runs additionally carry the
/// [`DynamicTopology`] view they ran against, so downstream consumers —
/// the churn-aware retiming engine and its validators in `gcs-core` —
/// can warp the churn timeline together with the node schedules and
/// check link liveness of re-timed messages.
#[derive(Debug, Clone)]
pub struct Execution<M> {
    topology: Topology,
    schedules: Vec<RateSchedule>,
    horizon: f64,
    events: Vec<EventRecord>,
    messages: Vec<MessageRecord<M>>,
    trajectories: Vec<PiecewiseLinear>,
    dynamic: Option<DynamicTopology>,
    /// The in-flight policy the run used (see
    /// [`crate::SimulationBuilder::drop_in_flight_on_link_down`]).
    /// Recorded so replays can reproduce the run faithfully: a replay
    /// that silently switched policies would drop (or keep) different
    /// messages than the original.
    drop_in_flight: bool,
}

impl<M> Execution<M> {
    pub(crate) fn new(
        topology: Topology,
        schedules: Vec<RateSchedule>,
        horizon: f64,
        events: Vec<EventRecord>,
        messages: Vec<MessageRecord<M>>,
        trajectories: Vec<PiecewiseLinear>,
        dynamic: Option<DynamicTopology>,
    ) -> Self {
        Self {
            topology,
            schedules,
            horizon,
            events,
            messages,
            trajectories,
            dynamic,
            drop_in_flight: true,
        }
    }

    /// Assembles a static execution from parts. This is the constructor
    /// used by the lower-bound retiming engine in `gcs-core` to
    /// materialize a *predicted* (transformed) execution without
    /// re-running the algorithm.
    #[must_use]
    pub fn from_parts(
        topology: Topology,
        schedules: Vec<RateSchedule>,
        horizon: f64,
        events: Vec<EventRecord>,
        messages: Vec<MessageRecord<M>>,
        trajectories: Vec<PiecewiseLinear>,
    ) -> Self {
        Self::from_parts_dynamic(
            topology,
            schedules,
            horizon,
            events,
            messages,
            trajectories,
            None,
        )
    }

    /// As [`Execution::from_parts`], with the dynamic-topology view the
    /// execution's churn timeline came from (pass `None` for a static
    /// execution).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_dynamic(
        topology: Topology,
        schedules: Vec<RateSchedule>,
        horizon: f64,
        events: Vec<EventRecord>,
        messages: Vec<MessageRecord<M>>,
        trajectories: Vec<PiecewiseLinear>,
        dynamic: Option<DynamicTopology>,
    ) -> Self {
        assert_eq!(schedules.len(), topology.len(), "one schedule per node");
        assert_eq!(
            trajectories.len(),
            topology.len(),
            "one trajectory per node"
        );
        if let Some(view) = &dynamic {
            assert_eq!(
                view.len(),
                topology.len(),
                "dynamic view must cover the topology's node universe"
            );
        }
        Self::new(
            topology,
            schedules,
            horizon,
            events,
            messages,
            trajectories,
            dynamic,
        )
    }

    /// Sets the recorded in-flight policy (default `true`, the model's
    /// drop-on-link-down behavior). Builder-style so the engine and the
    /// retiming materializer can stamp it without widening `from_parts`.
    #[must_use]
    pub fn with_drop_in_flight(mut self, drop: bool) -> Self {
        self.drop_in_flight = drop;
        self
    }

    /// Whether the run dropped in-flight messages when their link went
    /// down. Replays must use the same policy to be faithful.
    #[must_use]
    pub fn drops_in_flight(&self) -> bool {
        self.drop_in_flight
    }

    /// The network topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topology.len()
    }

    /// The real-time duration `ℓ(α)` of the execution.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The hardware clock schedule of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn schedule(&self, i: NodeId) -> &RateSchedule {
        &self.schedules[i]
    }

    /// All hardware clock schedules.
    #[must_use]
    pub fn schedules(&self) -> &[RateSchedule] {
        &self.schedules
    }

    /// The dynamic-topology view this execution ran against, if it was a
    /// dynamic (churning) run. The view is the execution's churn
    /// timeline: the retiming engine warps it together with the node
    /// schedules, and validation reads link liveness from it.
    #[must_use]
    pub fn dynamic_topology(&self) -> Option<&DynamicTopology> {
        self.dynamic.as_ref()
    }

    /// Node `i`'s logical clock as a function of its hardware time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn trajectory(&self, i: NodeId) -> &PiecewiseLinear {
        &self.trajectories[i]
    }

    /// All logical trajectories.
    #[must_use]
    pub fn trajectories(&self) -> &[PiecewiseLinear] {
        &self.trajectories
    }

    /// All dispatched events, in dispatch order.
    #[must_use]
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// All messages, in send order.
    #[must_use]
    pub fn messages(&self) -> &[MessageRecord<M>] {
        &self.messages
    }

    /// The hardware clock value `H_i(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `t` is negative.
    #[must_use]
    pub fn hw_at(&self, i: NodeId, t: f64) -> f64 {
        self.schedules[i].value_at(t)
    }

    /// The logical clock value `L_i(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, `t` is negative, or `t` exceeds the
    /// horizon (logical behaviour beyond the recorded execution is
    /// unknown).
    #[must_use]
    pub fn logical_at(&self, i: NodeId, t: f64) -> f64 {
        assert!(
            t <= self.horizon + 1e-9,
            "queried logical clock at {t}, beyond horizon {}",
            self.horizon
        );
        self.trajectories[i].value_at(self.schedules[i].value_at(t))
    }

    /// The logical clock skew `L_i(t) - L_j(t)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Execution::logical_at`].
    #[must_use]
    pub fn skew(&self, i: NodeId, j: NodeId, t: f64) -> f64 {
        self.logical_at(i, t) - self.logical_at(j, t)
    }

    /// The per-node observation sequence: `(hw, kind)` for every event at
    /// node `i`, in dispatch order. Two executions are indistinguishable to
    /// node `i` iff these sequences are equal.
    #[must_use]
    pub fn observations(&self, i: NodeId) -> Vec<(f64, crate::EventKind)> {
        self.events
            .iter()
            .filter(|e| e.node == i)
            .map(|e| (e.hw, e.kind.clone()))
            .collect()
    }

    /// Consumes the execution and keeps only its events, in dispatch
    /// order: what an observation check reads, without the messages,
    /// trajectories and schedules around them.
    #[must_use]
    pub fn into_events(self) -> Vec<EventRecord> {
        self.events
    }
}

impl<M> fmt::Display for Execution<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execution({} nodes, horizon {}, {} events, {} messages)",
            self.node_count(),
            self.horizon,
            self.events.len(),
            self.messages.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn tiny_execution() -> Execution<()> {
        let topology = Topology::line(2);
        let schedules = vec![RateSchedule::constant(1.0), RateSchedule::constant(2.0)];
        // Node 0: L = H. Node 1: L = H until H=2, then jumps to 5.
        let t0 = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let mut t1 = PiecewiseLinear::new(0.0, 0.0, 1.0);
        t1.push(2.0, 5.0, 1.0);
        let events = vec![
            EventRecord {
                time: 0.0,
                node: 0,
                hw: 0.0,
                kind: EventKind::Start,
            },
            EventRecord {
                time: 0.0,
                node: 1,
                hw: 0.0,
                kind: EventKind::Start,
            },
            EventRecord {
                time: 1.0,
                node: 1,
                hw: 2.0,
                kind: EventKind::Timer { id: 0 },
            },
        ];
        Execution::from_parts(topology, schedules, 10.0, events, vec![], vec![t0, t1])
    }

    #[test]
    fn logical_combines_schedule_and_trajectory() {
        let e = tiny_execution();
        assert_eq!(e.logical_at(0, 3.0), 3.0);
        // Node 1 at t=3: H = 6, L = 5 + (6 - 2) = 9.
        assert_eq!(e.logical_at(1, 3.0), 9.0);
        assert_eq!(e.skew(1, 0, 3.0), 6.0);
        assert_eq!(e.skew(0, 1, 3.0), -6.0);
    }

    #[test]
    fn observations_filter_by_node() {
        let e = tiny_execution();
        let obs = e.observations(1);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0], (0.0, EventKind::Start));
        assert_eq!(obs[1], (2.0, EventKind::Timer { id: 0 }));
        assert_eq!(e.observations(0).len(), 1);
    }

    #[test]
    fn into_events_keeps_the_events() {
        let e = tiny_execution();
        let events = e.events().to_vec();
        assert_eq!(e.into_events(), events);
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn logical_beyond_horizon_panics() {
        let _ = tiny_execution().logical_at(0, 11.0);
    }

    #[test]
    fn display_summarizes() {
        let e = tiny_execution();
        let s = format!("{e}");
        assert!(s.contains("2 nodes"));
        assert!(s.contains("3 events"));
    }

    #[test]
    #[should_panic(expected = "one schedule per node")]
    fn from_parts_validates_lengths() {
        let topology = Topology::line(2);
        let _ = Execution::<()>::from_parts(
            topology,
            vec![RateSchedule::default()],
            1.0,
            vec![],
            vec![],
            vec![
                PiecewiseLinear::new(0.0, 0.0, 1.0),
                PiecewiseLinear::new(0.0, 0.0, 1.0),
            ],
        );
    }
}
