//! Indistinguishability checking between executions.
//!
//! Two executions are indistinguishable to node `i` when the same events
//! occur at `i` in the same order at the same hardware clock readings
//! (Section 3 of the paper). These checkers compare recorded executions'
//! per-node observation sequences.
//!
//! One subtlety: events at *bitwise-equal* hardware readings are
//! simultaneous from the node's perspective, so their relative order is
//! not an observation — it is an artifact of how the recording was
//! produced. (Concretely: two messages over equal-length paths can arrive
//! 1 ulp apart in real time yet at the same hardware reading; a replay
//! that pins arrivals by hardware reading collapses the ulp gap into an
//! exact tie and dispatches the pair in canonical [`EventKind::tie_key`]
//! order instead.) The checkers therefore canonicalize each maximal run
//! of equal-reading events before comparing, making same-reading
//! permutations indistinguishable by construction.
//!
//! Every check is one comparison loop over a per-node *window* of the
//! canonicalized sequences: either all of a node's observations, or only
//! those before a per-node real-time cutoff (how the fresh-link
//! construction certifies each side up to the formation it sees on its
//! own clock). [`distinctions`] and [`prefix_distinctions`] both compare
//! whole sequences and differ only in the length rule: equal lengths, or
//! the second sequence may run on past the first.

use std::fmt;

use gcs_sim::{EventKind, EventRecord, Execution, NodeId};

/// A witnessed difference between two executions' observation sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct Distinction {
    /// The node that can tell the executions apart.
    pub node: usize,
    /// Index into the node's observation sequence.
    pub index: usize,
    /// Description of the difference.
    pub detail: DistinctionDetail,
}

/// What differed at the distinguishing observation.
#[derive(Debug, Clone, PartialEq)]
pub enum DistinctionDetail {
    /// One sequence ended before the other.
    LengthMismatch {
        /// Observations of the node in the first execution.
        left: usize,
        /// Observations of the node in the second execution.
        right: usize,
    },
    /// The events differ in kind.
    KindMismatch {
        /// Event kind in the first execution.
        left: EventKind,
        /// Event kind in the second execution.
        right: EventKind,
    },
    /// The hardware readings differ beyond tolerance.
    HwMismatch {
        /// Hardware reading in the first execution.
        left: f64,
        /// Hardware reading in the second execution.
        right: f64,
    },
}

impl fmt::Display for Distinction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} observation {} differs: {:?}",
            self.node, self.index, self.detail
        )
    }
}

/// Sorts each maximal run of bitwise-equal hardware readings by the
/// canonical event tie key: the node observes such a run as one
/// simultaneous batch, so its internal order carries no information.
fn canonicalize(obs: &mut [(f64, EventKind)], node: NodeId) {
    let mut start = 0;
    while start < obs.len() {
        let hw = obs[start].0.to_bits();
        let mut end = start + 1;
        while end < obs.len() && obs[end].0.to_bits() == hw {
            end += 1;
        }
        obs[start..end].sort_by_key(|(_, kind)| kind.tie_key(node));
        start = end;
    }
}

/// Which observations of each node a comparison covers, and how the two
/// sequences' lengths must relate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Window<'a> {
    /// Every observation; both sequences must have the same length.
    Whole,
    /// Every observation of the left execution; the right may run on.
    Prefix,
    /// The left execution's observations strictly before real time
    /// `cutoffs[node]`; the right may run on.
    Before(&'a [f64]),
}

/// One event list's positions by node, from one counting sort: node `i`'s
/// are `order[starts[i]..starts[i + 1]]`, in dispatch order. Events at
/// nodes outside `0..nodes` are left out.
struct NodeIndex<'a> {
    events: &'a [EventRecord],
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl<'a> NodeIndex<'a> {
    fn new(events: &'a [EventRecord], nodes: usize) -> Self {
        let mut starts = vec![0_u32; nodes + 1];
        for e in events.iter().filter(|e| e.node < nodes) {
            starts[e.node + 1] += 1;
        }
        for i in 0..nodes {
            starts[i + 1] += starts[i];
        }
        let (mut next, mut order) = (starts.clone(), vec![0; starts[nodes] as usize]);
        for (pos, e) in events.iter().enumerate().filter(|(_, e)| e.node < nodes) {
            order[next[e.node] as usize] = u32::try_from(pos).expect("under 2^32 events");
            next[e.node] += 1;
        }
        Self {
            events,
            starts,
            order,
        }
    }

    /// `node`'s events, in dispatch order.
    fn of(&self, node: NodeId) -> impl Iterator<Item = &'a EventRecord> + '_ {
        let own = &self.order[self.starts[node] as usize..self.starts[node + 1] as usize];
        own.iter().map(|&p| &self.events[p as usize])
    }
}

/// [`event_distinctions`] over two executions, for the nodes both have.
pub(crate) fn window_distinctions<M1, M2>(
    left: &Execution<M1>,
    right: &Execution<M2>,
    tolerance: f64,
    window: Window<'_>,
) -> Vec<Distinction> {
    let nodes = left.node_count().min(right.node_count());
    event_distinctions(left.events(), right.events(), nodes, tolerance, window)
}

/// The one comparison loop behind every check: each node's canonicalized
/// observations in the `left` events, restricted to `window`, against the
/// same positions of `right`'s, for nodes `0..nodes`. A right sequence too
/// short for the rule is one [`DistinctionDetail::LengthMismatch`]; a
/// differing kind, or a reading off by more than `tolerance`, is one
/// distinction per position.
pub(crate) fn event_distinctions(
    left: &[EventRecord],
    right: &[EventRecord],
    nodes: usize,
    tolerance: f64,
    window: Window<'_>,
) -> Vec<Distinction> {
    let (left_index, right_index) = (NodeIndex::new(left, nodes), NodeIndex::new(right, nodes));
    let (mut ol, mut or) = (Vec::new(), Vec::new());
    let mut out = Vec::new();
    for node in 0..nodes {
        for (index, obs) in [(&left_index, &mut ol), (&right_index, &mut or)] {
            obs.clear();
            obs.extend(index.of(node).map(|e| (e.hw, e.kind.clone())));
            canonicalize(obs, node);
        }
        let (len, length_ok) = match window {
            Window::Whole => (ol.len(), ol.len() == or.len()),
            Window::Prefix => (ol.len(), or.len() >= ol.len()),
            Window::Before(cutoffs) => {
                let len = left_index
                    .of(node)
                    .filter(|e| e.time < cutoffs[node])
                    .count();
                (len, or.len() >= len)
            }
        };
        if !length_ok {
            out.push(Distinction {
                node,
                index: len.min(or.len()),
                detail: DistinctionDetail::LengthMismatch {
                    left: len,
                    right: or.len(),
                },
            });
        }
        for (index, ((hw_l, kind_l), (hw_r, kind_r))) in ol[..len].iter().zip(&or).enumerate() {
            let detail = if kind_l != kind_r {
                DistinctionDetail::KindMismatch {
                    left: kind_l.clone(),
                    right: kind_r.clone(),
                }
            } else if (hw_l - hw_r).abs() > tolerance {
                DistinctionDetail::HwMismatch {
                    left: *hw_l,
                    right: *hw_r,
                }
            } else {
                continue;
            };
            out.push(Distinction {
                node,
                index,
                detail,
            });
        }
    }
    out
}

/// Compares observation sequences of every node. Returns all distinctions
/// (empty means the executions are indistinguishable to every node).
///
/// `tolerance` bounds acceptable hardware-reading differences; pass `0.0`
/// to require bitwise-equal readings.
#[must_use]
pub fn distinctions<M1, M2>(
    a: &Execution<M1>,
    b: &Execution<M2>,
    tolerance: f64,
) -> Vec<Distinction> {
    window_distinctions(a, b, tolerance, Window::Whole)
}

/// True if `a` and `b` are indistinguishable to every node (hardware
/// readings within `tolerance`).
#[must_use]
pub fn indistinguishable<M1, M2>(a: &Execution<M1>, b: &Execution<M2>, tolerance: f64) -> bool {
    distinctions(a, b, tolerance).is_empty()
}

/// Checks that `prefix`'s observation sequence at every node is a prefix of
/// `full`'s — the relation between a truncated transformed execution and
/// its replayed continuation. Returns distinctions within the shared
/// prefix.
#[must_use]
pub fn prefix_distinctions<M1, M2>(
    prefix: &Execution<M1>,
    full: &Execution<M2>,
    tolerance: f64,
) -> Vec<Distinction> {
    window_distinctions(prefix, full, tolerance, Window::Prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_net::Topology;
    use gcs_sim::{Context, Node, NodeId, SimulationBuilder};

    #[derive(Debug)]
    struct Beacon {
        period: f64,
    }
    impl Node<f64> for Beacon {
        fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
            ctx.set_timer(self.period);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _t: u64) {
            let v = ctx.logical_now();
            ctx.send_to_neighbors(&v);
            ctx.set_timer(self.period);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, f64>, _f: NodeId, m: &f64) {
            if *m > ctx.logical_now() {
                ctx.set_logical(*m);
            }
        }
    }

    fn run(period: f64, horizon: f64) -> Execution<f64> {
        SimulationBuilder::new(Topology::line(3))
            .schedules(vec![RateSchedule::constant(1.0); 3])
            .build_with(|_, _| Beacon { period })
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    #[test]
    fn identical_runs_are_indistinguishable() {
        let a = run(1.0, 8.0);
        let b = run(1.0, 8.0);
        assert!(indistinguishable(&a, &b, 0.0));
    }

    #[test]
    fn different_periods_are_distinguishable() {
        let a = run(1.0, 8.0);
        let b = run(2.0, 8.0);
        let d = distinctions(&a, &b, 1e-9);
        assert!(!d.is_empty());
    }

    #[test]
    fn shorter_run_is_a_prefix() {
        let short = run(1.0, 4.0);
        let long = run(1.0, 8.0);
        assert!(prefix_distinctions(&short, &long, 0.0).is_empty());
        // But not the other way around.
        assert!(!prefix_distinctions(&long, &short, 0.0).is_empty());
    }

    #[test]
    fn retimed_execution_is_indistinguishable_from_source() {
        use crate::retiming::Retiming;
        let a = run(1.0, 8.0);
        // Speed both nodes up uniformly; same hardware readings, new times.
        let retimed = Retiming::new(vec![RateSchedule::constant(2.0); 3], 4.0).apply(&a);
        assert!(indistinguishable(&a, &retimed, 0.0));
    }

    /// A delivery at `node` whose hardware reading equals its real time.
    fn deliver(node: NodeId, hw: f64, from: NodeId, seq: u64) -> gcs_sim::EventRecord {
        gcs_sim::EventRecord {
            time: hw,
            node,
            hw,
            kind: EventKind::Deliver { from, seq },
        }
    }

    fn two_nodes(events: Vec<gcs_sim::EventRecord>) -> Execution<f64> {
        Execution::from_parts(
            Topology::line(2),
            vec![RateSchedule::constant(1.0); 2],
            10.0,
            events,
            Vec::new(),
            vec![gcs_clocks::PiecewiseLinear::new(0.0, 0.0, 1.0); 2],
        )
    }

    #[test]
    fn same_reading_permutations_are_indistinguishable() {
        // Two deliveries at the bitwise-identical hardware reading, in
        // opposite orders: the node sees one simultaneous batch, so the
        // executions must compare as indistinguishable. A third event at
        // a later reading pins that cross-reading order still matters.
        let ev = |hw, from, seq| deliver(0, hw, from, seq);
        let a = two_nodes(vec![ev(1.0, 4, 31), ev(1.0, 1, 43), ev(2.0, 1, 44)]);
        let b = two_nodes(vec![ev(1.0, 1, 43), ev(1.0, 4, 31), ev(2.0, 1, 44)]);
        assert!(indistinguishable(&a, &b, 0.0));
        assert!(prefix_distinctions(&a, &b, 0.0).is_empty());

        // Swapping events at *different* readings stays distinguishable.
        let c = two_nodes(vec![ev(1.0, 4, 31), ev(2.0, 1, 44), ev(1.0, 1, 43)]);
        assert!(!indistinguishable(&a, &c, 0.0));
    }

    #[test]
    fn windowed_comparison_honours_per_node_cutoffs() {
        // Node 0 is certified before real time 2, node 1 before 0.5.
        let cutoffs = [2.0, 0.5];
        let before = |a: &Execution<f64>, b: &Execution<f64>, tol: f64| {
            window_distinctions(a, b, tol, Window::Before(&cutoffs))
        };
        let head = || vec![deliver(0, 1.0, 4, 31), deliver(0, 1.0, 1, 43)];
        let with = |tail: Vec<gcs_sim::EventRecord>| {
            let mut events = head();
            events.extend(tail);
            two_nodes(events)
        };
        let a = with(vec![
            deliver(1, 1.0, 0, 1),
            deliver(0, 1.5, 1, 44),
            deliver(0, 2.0, 1, 45),
        ]);

        // A same-reading permutation before the cutoff is no distinction.
        let mut permuted = head();
        permuted.reverse();
        permuted.extend([
            deliver(1, 1.0, 0, 1),
            deliver(0, 1.5, 1, 44),
            deliver(0, 2.0, 1, 45),
        ]);
        assert!(before(&a, &two_nodes(permuted), 0.0).is_empty());

        // Anything at or after a node's own cutoff is ignored: node 0's
        // event at 2.0 and node 1's at 1.0 differ, and the right runs on.
        let late = with(vec![
            deliver(1, 1.0, 0, 2),
            deliver(0, 1.5, 1, 44),
            deliver(0, 2.0, 3, 7),
            deliver(0, 7.0, 2, 9),
        ]);
        assert!(before(&a, &late, 0.0).is_empty());
        // The same difference at node 1 is seen under a later cutoff.
        let seen = window_distinctions(&a, &late, 0.0, Window::Before(&[2.0, 2.0]));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].node, 1);

        // A reading off by more than the tolerance before the cutoff is
        // one distinction; within the tolerance it is none.
        let off = with(vec![
            deliver(1, 1.0, 0, 1),
            deliver(0, 1.5 + 1e-6, 1, 44),
            deliver(0, 2.0, 1, 45),
        ]);
        assert_eq!(
            before(&a, &off, 1e-9),
            vec![Distinction {
                node: 0,
                index: 2,
                detail: DistinctionDetail::HwMismatch {
                    left: 1.5,
                    right: 1.5 + 1e-6,
                },
            }]
        );
        assert!(before(&a, &off, 1e-3).is_empty());

        // A missing tail is one length mismatch, not one per lost event.
        let short = with(vec![deliver(1, 1.0, 0, 1)]);
        assert_eq!(
            before(&a, &short, 0.0),
            vec![Distinction {
                node: 0,
                index: 2,
                detail: DistinctionDetail::LengthMismatch { left: 3, right: 2 },
            }]
        );
    }

    /// The per-node scan that [`window_distinctions`] replaced, kept as
    /// its reference: each node's observations, and its window length,
    /// come from a pass over every event.
    fn oracle<M1, M2>(
        left: &Execution<M1>,
        right: &Execution<M2>,
        tolerance: f64,
        window: Window<'_>,
    ) -> Vec<Distinction> {
        let mut out = Vec::new();
        for node in 0..left.node_count().min(right.node_count()) {
            let mut ol = left.observations(node);
            let mut or = right.observations(node);
            canonicalize(&mut ol, node);
            canonicalize(&mut or, node);
            let (len, length_ok) = match window {
                Window::Whole => (ol.len(), ol.len() == or.len()),
                Window::Prefix => (ol.len(), or.len() >= ol.len()),
                Window::Before(cutoffs) => {
                    let len = left
                        .events()
                        .iter()
                        .filter(|e| e.node == node && e.time < cutoffs[node])
                        .count();
                    (len, or.len() >= len)
                }
            };
            if !length_ok {
                out.push(Distinction {
                    node,
                    index: len.min(or.len()),
                    detail: DistinctionDetail::LengthMismatch {
                        left: len,
                        right: or.len(),
                    },
                });
            }
            for (index, ((hw_l, kind_l), (hw_r, kind_r))) in ol[..len].iter().zip(&or).enumerate() {
                let detail = if kind_l != kind_r {
                    DistinctionDetail::KindMismatch {
                        left: kind_l.clone(),
                        right: kind_r.clone(),
                    }
                } else if (hw_l - hw_r).abs() > tolerance {
                    DistinctionDetail::HwMismatch {
                        left: *hw_l,
                        right: *hw_r,
                    }
                } else {
                    continue;
                };
                out.push(Distinction {
                    node,
                    index,
                    detail,
                });
            }
        }
        out
    }

    /// SplitMix64: the case generator of the property test below.
    struct Cases(u64);

    impl Cases {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// A reading or instant on a grid of halves, so that runs of
        /// bitwise-equal readings and events at a cutoff are common.
        fn half(&mut self, steps: u64) -> f64 {
            self.below(steps) as f64 * 0.5
        }

        fn kind(&mut self) -> EventKind {
            match self.below(4) {
                0 => EventKind::Start,
                1 => EventKind::Deliver {
                    from: self.below(3) as usize,
                    seq: self.below(3),
                },
                2 => EventKind::Timer { id: self.below(3) },
                _ => EventKind::TopologyChange {
                    peer: self.below(3) as usize,
                    up: self.below(2) == 0,
                },
            }
        }

        /// Up to 24 events on `nodes` nodes in dispatch order.
        fn events(&mut self, nodes: usize) -> Vec<gcs_sim::EventRecord> {
            let mut time = 0.0;
            (0..self.below(25))
                .map(|_| {
                    time += self.half(3);
                    gcs_sim::EventRecord {
                        time,
                        node: self.below(nodes as u64) as usize,
                        hw: self.half(4),
                        kind: self.kind(),
                    }
                })
                .collect()
        }

        /// `left`'s events on `nodes` nodes, each kept, nudged within the
        /// looser tolerance, moved off its reading, given another kind,
        /// lost or doubled; then a few adjacent swaps and a random tail.
        fn variant(
            &mut self,
            left: &[gcs_sim::EventRecord],
            nodes: usize,
        ) -> Vec<gcs_sim::EventRecord> {
            let mut events = Vec::new();
            for e in left {
                let mut e = e.clone();
                e.node %= nodes;
                match self.below(30) {
                    0 => e.hw += 1e-4,
                    1 => e.hw += 0.5,
                    2 => e.kind = self.kind(),
                    3 => continue,
                    4 => events.push(e.clone()),
                    _ => {}
                }
                events.push(e);
            }
            for _ in 0..self.below(3) {
                if events.len() >= 2 {
                    let i = self.below(events.len() as u64 - 1) as usize;
                    events.swap(i, i + 1);
                }
            }
            let tail = self.events(nodes);
            let end = events.last().map_or(0.0, |e| e.time);
            events.extend(tail.into_iter().take(self.below(5) as usize).map(|mut e| {
                e.time += end;
                e
            }));
            events
        }
    }

    fn execution(nodes: usize, events: Vec<gcs_sim::EventRecord>) -> Execution<f64> {
        Execution::from_parts(
            Topology::line(nodes),
            vec![RateSchedule::constant(1.0); nodes],
            100.0,
            events,
            Vec::new(),
            vec![gcs_clocks::PiecewiseLinear::new(0.0, 0.0, 1.0); nodes],
        )
    }

    #[test]
    fn the_index_returns_exactly_what_the_per_node_scan_returns() {
        let mut cases = Cases(0x1d15_7a4c);
        let (mut equal, mut differing) = (0, 0);
        for _ in 0..600 {
            let left_nodes = 1 + cases.below(3) as usize;
            let right_nodes = match cases.below(4) {
                0 => 1 + cases.below(3) as usize,
                _ => left_nodes,
            };
            let left = cases.events(left_nodes);
            let right = match cases.below(8) {
                0 => cases.events(right_nodes),
                _ => cases.variant(&left, right_nodes),
            };
            let (left, right) = (execution(left_nodes, left), execution(right_nodes, right));
            let cutoffs: Vec<f64> = (0..3).map(|_| cases.half(14)).collect();
            for window in [Window::Whole, Window::Prefix, Window::Before(&cutoffs)] {
                for tolerance in [0.0, 1e-3] {
                    let expected = oracle(&left, &right, tolerance, window);
                    assert_eq!(
                        window_distinctions(&left, &right, tolerance, window),
                        expected,
                        "{window:?} at tolerance {tolerance}: {left:?} against {right:?}"
                    );
                    if expected.is_empty() {
                        equal += 1;
                    } else {
                        differing += 1;
                    }
                }
            }
        }
        // Both outcomes are common, so neither side of the check is vacuous.
        assert!(
            equal > 500 && differing > 500,
            "{equal} equal, {differing} differing"
        );
    }

    #[test]
    fn distinction_display_names_node() {
        let a = run(1.0, 8.0);
        let b = run(2.0, 8.0);
        let d = distinctions(&a, &b, 1e-9);
        assert!(format!("{}", d[0]).contains("node"));
    }
}
