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

use gcs_sim::{EventKind, Execution, NodeId};

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

/// The one comparison loop behind every check: each node's canonicalized
/// observations of `left`, restricted to `window`, against the same
/// positions of `right`. A right sequence too short for the rule is one
/// [`DistinctionDetail::LengthMismatch`]; a differing kind, or a reading
/// off by more than `tolerance`, is one distinction per position.
pub(crate) fn window_distinctions<M1, M2>(
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
                let len = left.observation_count_before(node, cutoffs[node]);
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

    #[test]
    fn distinction_display_names_node() {
        let a = run(1.0, 8.0);
        let b = run(2.0, 8.0);
        let d = distinctions(&a, &b, 1e-9);
        assert!(format!("{}", d[0]).contains("node"));
    }
}
