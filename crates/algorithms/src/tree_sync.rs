//! Hierarchical round-trip synchronization (Cristian/NTP-style), as an
//! *external-synchronization* baseline.
//!
//! State audit (100k-node scale runs): per-node state is O(1) — the
//! outstanding-probe list is capped at `MAX_OUTSTANDING` entries —
//! though node 0 is still a *message* hotspot (every client probes it).
//!
//! Node 0 is the time source; every other node periodically probes it:
//! the probe carries the client's logical send reading, the server echoes
//! it with its own clock, and the client estimates the server's current
//! time as `server_value + rtt/2` (Cristian's algorithm), jumping forward
//! when behind.
//!
//! This family achieves good synchronization *to the source* (error ≈ half
//! the round-trip uncertainty to the source), but the error between two
//! *clients* is the sum of their source errors — governed by their
//! distances to the source, not by their distance to each other. It is the
//! external-synchronization contrast the paper draws with Ostrovsky &
//! Patt-Shamir: accurate external synchronization does not imply accurate
//! gradient synchronization.

use gcs_sim::{Context, Node, NodeId, TimerId};

use crate::SyncMsg;

/// Parameters of [`TreeSyncNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeSyncParams {
    /// Probe period in hardware time.
    pub period: f64,
    /// The time-source node.
    pub source: NodeId,
}

impl Default for TreeSyncParams {
    fn default() -> Self {
        Self {
            period: 2.0,
            source: 0,
        }
    }
}

/// A node running Cristian-style round-trip synchronization against a
/// source node.
///
/// Clients encode their request send reading in the probe; the source
/// echoes a `Report { round: encoded reading, reading: source clock }`;
/// the client computes `offset = reading + rtt/2 - now` and jumps forward
/// by positive offsets.
///
/// # Examples
///
/// ```
/// use gcs_algorithms::{TreeSyncNode, TreeSyncParams};
/// use gcs_clocks::RateSchedule;
/// use gcs_net::Topology;
/// use gcs_sim::SimulationBuilder;
///
/// let rates = [1.0, 0.99, 0.98];
/// let sim = SimulationBuilder::new(Topology::star(3))
///     .schedules(rates.iter().map(|&r| RateSchedule::constant(r)).collect())
///     .build_with(|id, _| TreeSyncNode::new(id, TreeSyncParams::default()))
///     .unwrap();
/// let exec = sim.try_execute_until(100.0).unwrap();
/// // Clients track the source within the round-trip uncertainty.
/// assert!(exec.skew(0, 1, 100.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSyncNode {
    id: NodeId,
    params: TreeSyncParams,
    /// Outstanding probes: request id → logical reading at send.
    outstanding: Vec<(u64, f64)>,
    next_probe: u64,
}

/// Maximum simultaneously outstanding probes retained per client.
const MAX_OUTSTANDING: usize = 8;

impl TreeSyncNode {
    /// Creates a node with identity `id`.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive.
    #[must_use]
    pub fn new(id: NodeId, params: TreeSyncParams) -> Self {
        assert!(
            params.period.is_finite() && params.period > 0.0,
            "period must be positive"
        );
        Self {
            id,
            params,
            outstanding: Vec::new(),
            next_probe: 0,
        }
    }

    fn is_source(&self) -> bool {
        self.id == self.params.source
    }
}

impl Node<SyncMsg> for TreeSyncNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        if !self.is_source() {
            ctx.set_timer(self.params.period);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId) {
        if self.is_source() {
            return;
        }
        let probe = self.next_probe;
        self.next_probe += 1;
        self.outstanding.push((probe, ctx.logical_now()));
        if self.outstanding.len() > MAX_OUTSTANDING {
            self.outstanding.remove(0);
        }
        ctx.send(self.params.source, SyncMsg::Beacon { round: probe });
        ctx.set_timer(self.params.period);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        match msg {
            // Source side: echo the probe with our clock.
            SyncMsg::Beacon { round } if self.is_source() => {
                ctx.send(
                    from,
                    SyncMsg::Report {
                        round: *round,
                        reading: ctx.logical_now(),
                    },
                );
            }
            // Client side: Cristian's estimate.
            SyncMsg::Report { round, reading } if !self.is_source() => {
                if let Some(pos) = self.outstanding.iter().position(|(r, _)| r == round) {
                    let (_, sent_at) = self.outstanding.remove(pos);
                    let now = ctx.logical_now();
                    let rtt = now - sent_at;
                    if rtt >= 0.0 {
                        let estimate = reading + rtt / 2.0;
                        if estimate > now {
                            ctx.set_logical(estimate);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_net::Topology;
    use gcs_sim::SimulationBuilder;

    fn star_run(rates: &[f64], horizon: f64) -> gcs_sim::Execution<SyncMsg> {
        let n = rates.len();
        SimulationBuilder::new(Topology::star(n))
            .schedules(rates.iter().map(|&r| RateSchedule::constant(r)).collect())
            .build_with(|id, _| TreeSyncNode::new(id, TreeSyncParams::default()))
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    #[test]
    fn clients_track_the_source() {
        let exec = star_run(&[1.0, 0.98, 0.97, 0.99], 200.0);
        for client in 1..4 {
            let s = exec.skew(0, client, 200.0).abs();
            assert!(s < 2.0, "client {client} skew to source {s}");
        }
    }

    #[test]
    fn source_never_adjusts() {
        let exec = star_run(&[1.0, 0.95, 1.0], 100.0);
        assert_eq!(exec.trajectory(0).breakpoints().len(), 1);
    }

    #[test]
    fn slow_clients_jump_forward_only() {
        let exec = star_run(&[1.0, 0.95, 0.97], 150.0);
        for node in 1..3 {
            assert_eq!(
                exec.trajectory(node).max_backward_jump(0.0, f64::MAX),
                0.0,
                "node {node} jumped backwards"
            );
        }
    }

    #[test]
    fn external_accuracy_does_not_give_gradient_accuracy() {
        // Two clients far from the source but adjacent to each other: a
        // line 0-1-2 where the source is node 0 and the pair (1, 2) is
        // adjacent. Client errors to the source are ~d(0, i)/2; the
        // client-client skew can approach the SUM of the two errors even
        // though d(1,2) = 1 — external sync gives no gradient guarantee.
        let topology = Topology::line(3);
        let rates = [1.0, 0.97, 0.97];
        let exec = SimulationBuilder::new(topology)
            .schedules(rates.iter().map(|&r| RateSchedule::constant(r)).collect())
            .delay_policy(gcs_net::UniformDelay::new(0.05, 0.95, 3))
            .build_with(|id, _| TreeSyncNode::new(id, TreeSyncParams::default()))
            .unwrap()
            .try_execute_until(300.0)
            .unwrap();
        // Sanity: both clients roughly track the source...
        assert!(exec.skew(0, 1, 300.0).abs() < 3.0);
        assert!(exec.skew(0, 2, 300.0).abs() < 4.0);
        // ...but the adjacent pair's worst skew is NOT bounded by the
        // pair's own distance scale; it reflects source-path uncertainty.
        let mut worst_pair = 0.0_f64;
        let mut t = 100.0;
        while t <= 300.0 {
            worst_pair = worst_pair.max(exec.skew(1, 2, t).abs());
            t += 0.25;
        }
        assert!(
            worst_pair > 0.4,
            "client pair should show source-scale error, got {worst_pair}"
        );
    }

    #[test]
    fn outstanding_probes_are_bounded() {
        let mut node = TreeSyncNode::new(1, TreeSyncParams::default());
        for k in 0..100 {
            node.outstanding.push((k, 0.0));
            if node.outstanding.len() > MAX_OUTSTANDING {
                node.outstanding.remove(0);
            }
        }
        assert!(node.outstanding.len() <= MAX_OUTSTANDING);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = TreeSyncNode::new(
            0,
            TreeSyncParams {
                period: 0.0,
                source: 0,
            },
        );
    }
}
