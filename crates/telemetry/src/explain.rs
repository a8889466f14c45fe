//! Skew forensics: explain a skew peak by walking a recorded execution
//! backward along message causality.
//!
//! Gradient clock synchronization is about *how* information travels:
//! a large skew between neighbors is always a story about drift
//! accumulated while no message arrived, about the delays the adversary
//! drew for the messages that did, and — under churn — about links that
//! formed too recently to have carried anything. [`skew_explain`] makes
//! that story explicit: starting from the lagging endpoint of an edge
//! at a probe instant, it walks to the node's latest event, hops across
//! delivered messages to their senders, and records every quiet drift
//! stretch, delay draw, timer, and link change it crosses until it
//! reaches a node's start (or the chain bottoms out). The result is the
//! critical path that let the skew grow.

use std::fmt::Write as _;

use gcs_sim::{EventKind, Execution, NodeId};

/// One link in the causal chain of a [`SkewExplanation`], newest first.
#[derive(Debug, Clone, PartialEq)]
pub enum CausalStep {
    /// A quiet stretch at `node`: no dispatched event between
    /// `from_time` and `to_time`, so the logical clock moved on hardware
    /// rate alone — where relative drift does its damage.
    Drift {
        /// The node drifting.
        node: NodeId,
        /// Start of the stretch (the preceding event).
        from_time: f64,
        /// End of the stretch.
        to_time: f64,
        /// Hardware-clock gain over the stretch.
        hw_gain: f64,
        /// Logical-clock gain over the stretch.
        logical_gain: f64,
    },
    /// A message hop: the walk moves from the receiver at delivery to
    /// the sender at send time.
    Delivery {
        /// Sending node (where the walk continues).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Per-(sender, receiver) sequence number.
        seq: u64,
        /// Real send time.
        send_time: f64,
        /// Real delivery time.
        recv_time: f64,
        /// The adversary's delay draw, `recv_time − send_time`.
        delay: f64,
    },
    /// A timer fired at `node` — locally caused, the walk continues
    /// backward at the same node.
    Timer {
        /// The node whose timer fired.
        node: NodeId,
        /// Real fire time.
        time: f64,
        /// The timer's identifier.
        id: u64,
    },
    /// The link between `node` and `peer` changed state (churn). A
    /// link that formed shortly before the peak is the signature of the
    /// fresh-link lower bound: no time to close the skew it inherited.
    LinkChange {
        /// The endpoint the walk is at.
        node: NodeId,
        /// The other endpoint.
        peer: NodeId,
        /// Real time of the change.
        time: f64,
        /// `true` if the link formed, `false` if it failed.
        up: bool,
    },
    /// The walk reached `node`'s initial activation.
    Origin {
        /// The node that started.
        node: NodeId,
        /// Its start time.
        time: f64,
    },
}

/// The output of [`skew_explain`]: the observed skew and the causal
/// chain behind its lagging endpoint, newest step first.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewExplanation {
    /// The probe instant that was explained.
    pub probe_time: f64,
    /// The edge `(i, j)` as passed in.
    pub edge: (NodeId, NodeId),
    /// The signed skew `L_i − L_j` at the probe instant.
    pub skew: f64,
    /// The lagging endpoint (smaller logical value) — the node whose
    /// causal history the chain follows.
    pub laggard: NodeId,
    /// The causal chain, newest first.
    pub steps: Vec<CausalStep>,
}

impl SkewExplanation {
    /// `true` if the walk produced no steps (a node with no events
    /// before the probe).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The message hops on the critical path, newest first.
    #[must_use]
    pub fn deliveries(&self) -> Vec<&CausalStep> {
        self.steps
            .iter()
            .filter(|s| matches!(s, CausalStep::Delivery { .. }))
            .collect()
    }

    /// Renders the explanation as a human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let (i, j) = self.edge;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "skew L{i} - L{j} = {:+.6} at t = {:.6} (laggard: node {})",
            self.skew, self.probe_time, self.laggard
        );
        let _ = writeln!(out, "causal chain (newest first):");
        for (k, step) in self.steps.iter().enumerate() {
            let line = match *step {
                CausalStep::Drift {
                    node,
                    from_time,
                    to_time,
                    hw_gain,
                    logical_gain,
                } => format!(
                    "drift    node {node} quiet over t = [{from_time:.6}, {to_time:.6}]: \
                     hw +{hw_gain:.6}, logical +{logical_gain:.6}"
                ),
                CausalStep::Delivery {
                    from,
                    to,
                    seq,
                    send_time,
                    recv_time,
                    delay,
                } => format!(
                    "deliver  {from} -> {to} seq {seq}: sent t = {send_time:.6}, \
                     delivered t = {recv_time:.6} (delay {delay:.6})"
                ),
                CausalStep::Timer { node, time, id } => {
                    format!("timer    node {node} timer {id} fired at t = {time:.6}")
                }
                CausalStep::LinkChange {
                    node,
                    peer,
                    time,
                    up,
                } => format!(
                    "link     {node} -- {peer} went {} at t = {time:.6}",
                    if up { "up" } else { "down" }
                ),
                CausalStep::Origin { node, time } => {
                    format!("origin   node {node} started at t = {time:.6}")
                }
            };
            let _ = writeln!(out, "  {k:>2}. {line}");
        }
        out
    }
}

/// How many steps a walk records at most (a safety bound; chains in
/// practice end at an origin long before this).
pub const MAX_STEPS: usize = 256;

/// Explains the skew on `edge = (i, j)` at `probe_time` by walking the
/// recorded execution backward along message causality from the lagging
/// endpoint (see the module docs for the step semantics).
///
/// The walk starts at the endpoint with the *smaller* logical value:
/// the interesting question at a peak is why the laggard had not caught
/// up, and the answer is the drift-and-delay path that bounded what it
/// knew. Ties (exactly zero skew) walk from `i`.
///
/// # Panics
///
/// Panics if an endpoint is out of range or `probe_time` is outside
/// `[0, horizon]`.
#[must_use]
pub fn skew_explain<M>(
    exec: &Execution<M>,
    probe_time: f64,
    edge: (NodeId, NodeId),
) -> SkewExplanation {
    let (i, j) = edge;
    let skew = exec.skew(i, j, probe_time);
    let laggard = if skew < 0.0 { i } else { j };
    let events = exec.events();
    let messages = exec.messages();

    let mut steps = Vec::new();
    let mut node = laggard;
    let mut cursor_time = probe_time;
    // Exclusive upper bound into the global event log: only events with
    // index < cursor_idx are candidates, which disambiguates same-time
    // dispatches (the sender's dispatch precedes the delivery it caused).
    let mut cursor_idx = events.len();

    while steps.len() < MAX_STEPS {
        // Latest event at `node` strictly before the cursor.
        let found = events[..cursor_idx]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, e)| e.node == node && e.time <= cursor_time);
        let Some((idx, ev)) = found else {
            break; // No recorded history at this node before the cursor.
        };
        if cursor_time > ev.time {
            let hw_from = exec.hw_at(node, ev.time);
            let hw_to = exec.hw_at(node, cursor_time);
            let traj = exec.trajectory(node);
            steps.push(CausalStep::Drift {
                node,
                from_time: ev.time,
                to_time: cursor_time,
                hw_gain: hw_to - hw_from,
                logical_gain: traj.value_at(hw_to) - traj.value_at(hw_from),
            });
        }
        match ev.kind {
            EventKind::Start => {
                steps.push(CausalStep::Origin {
                    node,
                    time: ev.time,
                });
                break;
            }
            EventKind::Deliver { from, seq } => {
                let m = messages
                    .iter()
                    .find(|m| m.from == from && m.to == node && m.seq == seq)
                    .expect("delivered message is in the log");
                steps.push(CausalStep::Delivery {
                    from,
                    to: node,
                    seq,
                    send_time: m.send_time,
                    recv_time: ev.time,
                    delay: ev.time - m.send_time,
                });
                node = from;
                cursor_time = m.send_time;
                cursor_idx = idx;
            }
            EventKind::Timer { id } => {
                steps.push(CausalStep::Timer {
                    node,
                    time: ev.time,
                    id,
                });
                cursor_time = ev.time;
                cursor_idx = idx;
            }
            EventKind::TopologyChange { peer, up } => {
                steps.push(CausalStep::LinkChange {
                    node,
                    peer,
                    time: ev.time,
                    up,
                });
                cursor_time = ev.time;
                cursor_idx = idx;
            }
        }
    }

    SkewExplanation {
        probe_time,
        edge,
        skew,
        laggard,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_net::{FixedFractionDelay, Topology};
    use gcs_sim::{Context, Node, NodeId, SimulationBuilder};

    /// Each node pings its neighbors at every timer tick and echoes
    /// nothing; enough traffic for a causal chain.
    #[derive(Debug)]
    struct Ticker;

    impl Node<u8> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.set_timer(1.0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u8>, _timer: u64) {
            for n in ctx.neighbors().to_vec() {
                ctx.send(n, 1);
            }
            ctx.set_timer(1.0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u8>, _from: NodeId, _msg: &u8) {}
    }

    fn run() -> Execution<u8> {
        let topology = Topology::line(3);
        let delay = FixedFractionDelay::for_topology(&topology, 0.5);
        let sim = SimulationBuilder::new(topology)
            .schedules(vec![
                RateSchedule::constant(1.01),
                RateSchedule::constant(1.0),
                RateSchedule::constant(0.99),
            ])
            .delay_policy(delay)
            .build_with(|_, _| Ticker)
            .unwrap();
        sim.try_execute_until(10.0).unwrap()
    }

    #[test]
    fn walk_reaches_an_origin_through_deliveries() {
        let exec = run();
        let report = skew_explain(&exec, 9.5, (0, 2));
        assert!(!report.is_empty());
        assert_eq!(report.laggard, 2, "node 2 runs slowest");
        assert!(
            matches!(report.steps.last(), Some(CausalStep::Origin { .. })),
            "chain should bottom out at a start event: {report:?}"
        );
        assert!(
            !report.deliveries().is_empty(),
            "a ticking line must have message hops on the critical path"
        );
        // Newest-first: every step's leading time is non-increasing.
        let times: Vec<f64> = report
            .steps
            .iter()
            .map(|s| match *s {
                CausalStep::Drift { to_time, .. } => to_time,
                CausalStep::Delivery { recv_time, .. } => recv_time,
                CausalStep::Timer { time, .. }
                | CausalStep::LinkChange { time, .. }
                | CausalStep::Origin { time, .. } => time,
            })
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] >= w[1]),
            "steps must be newest first: {times:?}"
        );
    }

    #[test]
    fn render_mentions_the_edge_and_steps() {
        let exec = run();
        let report = skew_explain(&exec, 9.5, (0, 2));
        let text = report.render();
        assert!(text.contains("skew L0 - L2"));
        assert!(text.contains("origin"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn laggard_is_the_smaller_logical_value() {
        let exec = run();
        let a = skew_explain(&exec, 9.5, (0, 2));
        let b = skew_explain(&exec, 9.5, (2, 0));
        assert_eq!(a.laggard, b.laggard);
        assert!((a.skew + b.skew).abs() < 1e-12);
    }
}
