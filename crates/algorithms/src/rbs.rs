//! Reference Broadcast Synchronization (Elson, Girod & Estrin), adapted to
//! the logical-clock model.
//!
//! RBS exploits a physical property of radio broadcast: one transmission
//! reaches all receivers at nearly the same instant, so *receiver-side*
//! comparison eliminates sender-side delay uncertainty. A beacon node
//! periodically broadcasts; every receiver records its clock at receipt and
//! exchanges recordings; pairs then know their mutual offset up to the tiny
//! receive-time jitter.
//!
//! Section 2 of the paper observes that the gradient lower bound still
//! applies to RBS — but with the broadcast medium's near-zero uncertainty,
//! the effective diameter is small, so the bound is weak. Experiment E9
//! reproduces exactly this: observed skew tracks the jitter `ε`, not the
//! nominal network extent.

use std::collections::HashMap;

use gcs_sim::{Context, Node, NodeId, TimerId};

use crate::SyncMsg;

/// Parameters of [`RbsNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbsParams {
    /// Beacon period in hardware time (the beacon node broadcasts this
    /// often; receivers exchange reports after each beacon).
    pub period: f64,
    /// Which node acts as the beacon.
    pub beacon: NodeId,
}

impl Default for RbsParams {
    fn default() -> Self {
        Self {
            period: 4.0,
            beacon: 0,
        }
    }
}

/// A node running reference-broadcast synchronization.
///
/// The beacon node broadcasts `Beacon{round}` every period. Every other
/// node records its logical clock when the beacon arrives and broadcasts a
/// `Report{round, reading}`. A node holding its own reading for the same
/// round computes the offset and adopts the other node's clock when ahead
/// (max-convergence with receiver-side readings, so the residual error is
/// the broadcast jitter, not the path delay).
///
/// # Examples
///
/// ```
/// use gcs_algorithms::{RbsNode, RbsParams};
/// use gcs_clocks::RateSchedule;
/// use gcs_net::{BroadcastDelay, Topology};
/// use gcs_sim::SimulationBuilder;
///
/// // Star network with near-zero broadcast jitter.
/// let sim = SimulationBuilder::new(Topology::star(4))
///     .schedules(vec![RateSchedule::constant(1.0); 4])
///     .delay_policy(BroadcastDelay::new(0.4, 0.01, 7))
///     .build_with(|id, _| RbsNode::new(id, RbsParams::default()))
///     .unwrap();
/// let exec = sim.try_execute_until(60.0).unwrap();
/// // Leaves agree to within a few jitters despite the shared hub path.
/// assert!(exec.skew(1, 2, 60.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct RbsNode {
    id: NodeId,
    params: RbsParams,
    round: u64,
    /// Own logical reading per beacon round (bounded retention).
    readings: HashMap<u64, f64>,
}

/// Rounds older than this are discarded to bound memory.
const RETAINED_ROUNDS: u64 = 8;

impl RbsNode {
    /// Creates a node with identity `id`.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive.
    #[must_use]
    pub fn new(id: NodeId, params: RbsParams) -> Self {
        assert!(
            params.period.is_finite() && params.period > 0.0,
            "period must be positive"
        );
        Self {
            id,
            params,
            round: 0,
            readings: HashMap::new(),
        }
    }

    fn is_beacon(&self) -> bool {
        self.id == self.params.beacon
    }

    fn prune(&mut self) {
        let cutoff = self.round.saturating_sub(RETAINED_ROUNDS);
        self.readings.retain(|&r, _| r >= cutoff);
    }
}

impl Node<SyncMsg> for RbsNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        if self.is_beacon() {
            ctx.set_timer(self.params.period);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId) {
        if self.is_beacon() {
            self.round += 1;
            ctx.send_to_neighbors(&SyncMsg::Beacon { round: self.round });
            ctx.set_timer(self.params.period);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        match msg {
            SyncMsg::Beacon { round } => {
                let reading = ctx.logical_now();
                self.round = self.round.max(*round);
                self.readings.insert(*round, reading);
                self.prune();
                // Second phase: share the reading with the other receivers
                // (everyone except the beacon).
                for peer in 0..ctx.node_count() {
                    if peer != ctx.id() && peer != from {
                        ctx.send(
                            peer,
                            SyncMsg::Report {
                                round: *round,
                                reading,
                            },
                        );
                    }
                }
            }
            SyncMsg::Report { round, reading } => {
                if let Some(&own) = self.readings.get(round) {
                    // Their clock led ours by `offset` at the beacon
                    // instant; adopt the max for convergence.
                    let offset = reading - own;
                    if offset > 0.0 {
                        let l = ctx.logical_now();
                        ctx.set_logical(l + offset);
                        // The jump retroactively shifts what our clock
                        // "read" at every recorded beacon instant. Without
                        // this, later reports of the same round would be
                        // compared against the stale reading and their
                        // offsets would compound beyond the round maximum
                        // (an exponential feedback with many receivers).
                        for v in self.readings.values_mut() {
                            *v += offset;
                        }
                    }
                }
            }
            SyncMsg::Clock(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_net::{BroadcastDelay, Topology};
    use gcs_sim::SimulationBuilder;

    fn star_run(jitter: f64, rates: &[f64], horizon: f64) -> gcs_sim::Execution<SyncMsg> {
        let n = rates.len();
        SimulationBuilder::new(Topology::star(n))
            .schedules(rates.iter().map(|&r| RateSchedule::constant(r)).collect())
            .delay_policy(BroadcastDelay::new(0.4, jitter, 11))
            .build_with(|id, _| RbsNode::new(id, RbsParams::default()))
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    #[test]
    fn receivers_converge_despite_offset_rates() {
        let exec = star_run(0.005, &[1.0, 1.01, 0.99, 1.005], 120.0);
        // Leaves 1..3 agree closely (they share beacon receptions).
        for i in 1..4 {
            for j in (i + 1)..4 {
                let s = exec.skew(i, j, 120.0).abs();
                assert!(s < 0.5, "leaves ({i},{j}) skew {s}");
            }
        }
    }

    #[test]
    fn skew_tracks_jitter_not_distance() {
        let tight = star_run(0.001, &[1.0, 1.01, 0.99], 80.0);
        let loose = star_run(0.4, &[1.0, 1.01, 0.99], 80.0);
        let worst = |e: &gcs_sim::Execution<SyncMsg>| {
            let mut w = 0.0_f64;
            let mut t = 40.0;
            while t <= 80.0 {
                w = w.max(e.skew(1, 2, t).abs());
                t += 0.5;
            }
            w
        };
        assert!(
            worst(&tight) < worst(&loose),
            "smaller jitter must give tighter sync"
        );
    }

    #[test]
    fn many_receivers_do_not_compound_offsets() {
        // Regression: with many receivers, several positive offsets arrive
        // for the same round; adopting each against a stale reading would
        // compound exponentially. Clocks must stay within jitter+drift
        // scale of real time.
        let rates = [1.0, 1.01, 0.99, 1.005, 0.995, 1.002, 0.998, 1.0, 1.0];
        let exec = star_run(0.05, &rates, 200.0);
        for node in 0..rates.len() {
            let l = exec.logical_at(node, 200.0);
            assert!((l - 200.0).abs() < 10.0, "node {node} clock diverged: {l}");
        }
    }

    #[test]
    fn beacon_never_adjusts_its_own_clock() {
        let exec = star_run(0.01, &[1.0, 1.02, 0.98], 60.0);
        assert_eq!(exec.trajectory(0).breakpoints().len(), 1);
    }

    #[test]
    fn old_rounds_are_pruned() {
        let mut node = RbsNode::new(1, RbsParams::default());
        for r in 0..100 {
            node.round = r;
            node.readings.insert(r, r as f64);
            node.prune();
        }
        assert!(node.readings.len() <= RETAINED_ROUNDS as usize + 1);
    }

    #[test]
    fn non_beacon_sets_no_initial_timer() {
        let exec = star_run(0.01, &[1.0, 1.0, 1.0], 3.0);
        // Before the first beacon (t = 4), only the beacon schedules work:
        // no timer events at leaves.
        let leaf_timers = exec
            .events()
            .iter()
            .filter(|e| e.node != 0 && matches!(e.kind, gcs_sim::EventKind::Timer { .. }))
            .count();
        assert_eq!(leaf_timers, 0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = RbsNode::new(
            0,
            RbsParams {
                period: 0.0,
                beacon: 0,
            },
        );
    }
}
