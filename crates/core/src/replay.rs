//! Replaying transformed executions and extending them.
//!
//! A [`crate::retiming::Retiming`] predicts a transformed execution without
//! re-running the algorithm. To *extend* the transformed execution past its
//! horizon (as the main theorem's iteration requires), the algorithm must
//! actually run again: this module rebuilds a simulation with
//!
//! - the transformed execution's hardware schedules, and
//! - a delay policy that pins every recorded message delivery to its exact
//!   recorded *receiver hardware reading* ([`HwReplayDelay`]), falling back
//!   to a nominal policy for messages the prefix never saw.
//!
//! Because algorithms are deterministic in their observations and all
//! schedule conversions share one code path, the replayed prefix is
//! bit-identical to the prediction; [`crate::indist::prefix_distinctions`]
//! verifies this.

use std::collections::HashMap;
use std::fmt;

use gcs_clocks::RateSchedule;
use gcs_net::{DelayOutcome, DelayPolicy, Topology};
use gcs_sim::{Execution, MessageStatus, Node, NodeId, SimError, SimulationBuilder};

/// Delay policy that replays recorded arrivals by receiver hardware
/// reading, with validity-guarded fallback.
///
/// For each `(from, to, seq)` with a recorded arrival reading `h`, the
/// policy computes the corresponding real time under the receiver's
/// schedule; if that is a legal delivery for the actual send time (delay in
/// `[0, d_ij]`), it returns [`DelayOutcome::ArriveAtHw`]. Otherwise — the
/// replayed run has diverged past the recorded prefix — the fallback
/// decides.
pub struct HwReplayDelay {
    arrivals: HashMap<(NodeId, NodeId, u64), f64>,
    schedules: Vec<RateSchedule>,
    topology: Topology,
    fallback: Box<dyn DelayPolicy + Send>,
}

impl fmt::Debug for HwReplayDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HwReplayDelay")
            .field("recorded", &self.arrivals.len())
            .finish_non_exhaustive()
    }
}

impl HwReplayDelay {
    /// Builds a replay policy from a transformed execution: every message
    /// with a recorded arrival reading (delivered or in flight) is pinned.
    #[must_use]
    pub fn from_execution<M>(exec: &Execution<M>, fallback: Box<dyn DelayPolicy + Send>) -> Self {
        let mut arrivals = HashMap::new();
        for m in exec.messages() {
            if m.status == MessageStatus::Dropped {
                continue;
            }
            if let Some(h) = m.arrival_hw {
                arrivals.insert((m.from, m.to, m.seq), h);
            }
        }
        Self {
            arrivals,
            schedules: exec.schedules().to_vec(),
            topology: exec.topology().clone(),
            fallback,
        }
    }

    /// Number of pinned deliveries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True if no deliveries are pinned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

impl DelayPolicy for HwReplayDelay {
    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome {
        if let Some(&h) = self.arrivals.get(&(from, to, seq)) {
            let t = self.schedules[to].time_at_value(h);
            let d = self.topology.distance(from, to);
            if t >= send_time - 1e-9 && t <= send_time + d + 1e-9 {
                return DelayOutcome::ArriveAtHw(h);
            }
        }
        self.fallback.decide(from, to, seq, send_time)
    }
}

/// Re-runs the algorithm under `transformed`'s schedules and recorded
/// deliveries until `horizon` (which may exceed the transformed horizon —
/// the suffix runs under `fallback` delays).
///
/// A dynamic transformed execution is replayed against its carried
/// (warped) churn timeline ([`Execution::dynamic_topology`]): the engine
/// re-dispatches every topology change at its warped time, so the
/// replayed prefix reproduces a churn-aware retiming's prediction
/// bit-for-bit just as in the static case.
///
/// # Errors
///
/// Propagates [`SimError`] from building or running the replay, e.g.
/// [`SimError::InvalidHorizon`] for a NaN `horizon`.
pub fn replay_execution<M, N, F>(
    transformed: &Execution<M>,
    horizon: f64,
    fallback: Box<dyn DelayPolicy + Send>,
    make: F,
) -> Result<Execution<M>, SimError>
where
    M: Clone + fmt::Debug + Send + 'static,
    N: Node<M> + Send + 'static,
    F: FnMut(NodeId, usize) -> N,
{
    let policy = HwReplayDelay::from_execution(transformed, fallback);
    let builder = match transformed.dynamic_topology() {
        // Replays must run under the *recorded* in-flight policy: a
        // keep-in-flight original delivers messages across link outages
        // that a default (dropping) replay would silently lose.
        Some(view) => SimulationBuilder::new_dynamic(view.clone())
            .drop_in_flight_on_link_down(transformed.drops_in_flight()),
        None => SimulationBuilder::new(transformed.topology().clone()),
    };
    let sim = builder
        .schedules(transformed.schedules().to_vec())
        .delay_policy(policy)
        .build_with(make)?;
    sim.try_execute_until(horizon)
}

/// Convenience: the nominal half-distance fallback used by the paper's
/// constructions (delay `d_ij / 2` for every unpinned message).
#[must_use]
pub fn nominal_fallback(topology: &Topology) -> Box<dyn DelayPolicy + Send> {
    Box::new(gcs_net::FixedFractionDelay::for_topology(topology, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indist::prefix_distinctions;
    use crate::retiming::Retiming;
    use gcs_net::Topology;
    use gcs_sim::Context;

    #[derive(Debug)]
    struct Beacon;
    impl Node<f64> for Beacon {
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

    fn base_run(n: usize, horizon: f64) -> Execution<f64> {
        SimulationBuilder::new(Topology::line(n))
            .schedules(vec![RateSchedule::constant(1.0); n])
            .build_with(|_, _| Beacon)
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    #[test]
    fn replay_of_identity_matches_original_bitwise() {
        let exec = base_run(3, 10.0);
        let transformed = Retiming::identity(&exec).apply(&exec);
        let replayed = replay_execution(
            &transformed,
            10.0,
            nominal_fallback(exec.topology()),
            |_, _| Beacon,
        )
        .unwrap();
        assert_eq!(exec.events().len(), replayed.events().len());
        for (a, b) in exec.events().iter().zip(replayed.events()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.hw.to_bits(), b.hw.to_bits());
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn replay_reproduces_retimed_prefix_and_extends() {
        let exec = base_run(3, 10.0);
        // Uniform speed-up: all nodes at rate 1.25, horizon 8.
        let schedules = vec![RateSchedule::constant(1.25); 3];
        let retiming = Retiming::new(schedules, 8.0);
        let transformed = retiming.apply(&exec);

        // Replay 4 time units past the transformed horizon.
        let replayed = replay_execution(
            &transformed,
            12.0,
            nominal_fallback(exec.topology()),
            |_, _| Beacon,
        )
        .unwrap();

        // The prefix must match exactly (zero hw tolerance).
        let d = prefix_distinctions(&transformed, &replayed, 0.0);
        assert!(d.is_empty(), "prefix diverged: {d:?}");
        // And the replay runs past the prefix.
        assert!(replayed.events().len() > transformed.events().len());
    }

    #[test]
    fn replay_of_dynamic_identity_matches_original_bitwise() {
        use gcs_dynamic::{ChurnSchedule, DynamicTopology};
        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::periodic_flap(0, 1, 5.0, 20.0),
        )
        .unwrap();
        let exec = SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .build_with(|_, _| Beacon)
            .unwrap()
            .try_execute_until(20.0)
            .unwrap();
        let transformed = Retiming::identity(&exec).apply(&exec);
        let replayed = replay_execution(
            &transformed,
            20.0,
            nominal_fallback(exec.topology()),
            |_, _| Beacon,
        )
        .unwrap();
        assert_eq!(exec.events().len(), replayed.events().len());
        for (a, b) in exec.events().iter().zip(replayed.events()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.hw.to_bits(), b.hw.to_bits());
            assert_eq!(a.kind, b.kind);
        }
        assert_eq!(exec.messages(), replayed.messages());
    }

    #[test]
    fn a_nan_horizon_is_a_typed_error() {
        let exec = base_run(2, 6.0);
        let replayed = replay_execution(
            &exec,
            f64::NAN,
            nominal_fallback(exec.topology()),
            |_, _| Beacon,
        );
        assert!(matches!(
            replayed,
            Err(SimError::InvalidHorizon { horizon }) if horizon.is_nan()
        ));
    }

    #[test]
    fn replay_policy_counts_pinned_messages() {
        let exec = base_run(2, 6.0);
        let transformed = Retiming::identity(&exec).apply(&exec);
        let policy = HwReplayDelay::from_execution(&transformed, nominal_fallback(exec.topology()));
        assert_eq!(policy.len(), transformed.messages().len());
        assert!(!policy.is_empty());
    }

    #[test]
    fn guard_rejects_stale_arrivals() {
        let exec = base_run(2, 6.0);
        let transformed = Retiming::identity(&exec).apply(&exec);
        let mut policy =
            HwReplayDelay::from_execution(&transformed, nominal_fallback(exec.topology()));
        // Ask for message (0, 1, seq 0) but pretend it is sent much later
        // than recorded: the recorded arrival would be in the past.
        let outcome = policy.decide(0, 1, 0, 100.0);
        assert_eq!(outcome, DelayOutcome::Delay(0.5)); // fallback
    }
}
