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
    let mut out = Vec::new();
    let n = a.node_count().min(b.node_count());
    for node in 0..n {
        let mut oa = a.observations(node);
        let mut ob = b.observations(node);
        canonicalize(&mut oa, node);
        canonicalize(&mut ob, node);
        if oa.len() != ob.len() {
            out.push(Distinction {
                node,
                index: oa.len().min(ob.len()),
                detail: DistinctionDetail::LengthMismatch {
                    left: oa.len(),
                    right: ob.len(),
                },
            });
        }
        for (index, ((hw_a, kind_a), (hw_b, kind_b))) in oa.iter().zip(ob.iter()).enumerate() {
            if kind_a != kind_b {
                out.push(Distinction {
                    node,
                    index,
                    detail: DistinctionDetail::KindMismatch {
                        left: kind_a.clone(),
                        right: kind_b.clone(),
                    },
                });
            } else if (hw_a - hw_b).abs() > tolerance {
                out.push(Distinction {
                    node,
                    index,
                    detail: DistinctionDetail::HwMismatch {
                        left: *hw_a,
                        right: *hw_b,
                    },
                });
            }
        }
    }
    out
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
    let mut out = Vec::new();
    let n = prefix.node_count().min(full.node_count());
    for node in 0..n {
        let mut op = prefix.observations(node);
        let mut of = full.observations(node);
        canonicalize(&mut op, node);
        canonicalize(&mut of, node);
        if op.len() > of.len() {
            out.push(Distinction {
                node,
                index: of.len(),
                detail: DistinctionDetail::LengthMismatch {
                    left: op.len(),
                    right: of.len(),
                },
            });
        }
        for (index, ((hw_p, kind_p), (hw_f, kind_f))) in op.iter().zip(of.iter()).enumerate() {
            if kind_p != kind_f {
                out.push(Distinction {
                    node,
                    index,
                    detail: DistinctionDetail::KindMismatch {
                        left: kind_p.clone(),
                        right: kind_f.clone(),
                    },
                });
            } else if (hw_p - hw_f).abs() > tolerance {
                out.push(Distinction {
                    node,
                    index,
                    detail: DistinctionDetail::HwMismatch {
                        left: *hw_p,
                        right: *hw_f,
                    },
                });
            }
        }
    }
    out
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

    #[test]
    fn same_reading_permutations_are_indistinguishable() {
        use gcs_sim::EventRecord;
        // Two deliveries at the bitwise-identical hardware reading, in
        // opposite orders: the node sees one simultaneous batch, so the
        // executions must compare as indistinguishable. A third event at
        // a later reading pins that cross-reading order still matters.
        let ev = |hw: f64, from: NodeId, seq: u64| EventRecord {
            time: hw,
            node: 0,
            hw,
            kind: EventKind::Deliver { from, seq },
        };
        let build = |events: Vec<EventRecord>| {
            Execution::<f64>::from_parts(
                Topology::line(2),
                vec![RateSchedule::constant(1.0); 2],
                10.0,
                events,
                Vec::new(),
                vec![gcs_clocks::PiecewiseLinear::new(0.0, 0.0, 1.0); 2],
            )
        };
        let a = build(vec![ev(1.0, 4, 31), ev(1.0, 1, 43), ev(2.0, 1, 44)]);
        let b = build(vec![ev(1.0, 1, 43), ev(1.0, 4, 31), ev(2.0, 1, 44)]);
        assert!(indistinguishable(&a, &b, 0.0));
        assert!(prefix_distinctions(&a, &b, 0.0).is_empty());

        // Swapping events at *different* readings stays distinguishable.
        let c = build(vec![ev(1.0, 4, 31), ev(2.0, 1, 44), ev(1.0, 1, 43)]);
        assert!(!indistinguishable(&a, &c, 0.0));
    }

    #[test]
    fn distinction_display_names_node() {
        let a = run(1.0, 8.0);
        let b = run(2.0, 8.0);
        let d = distinctions(&a, &b, 1e-9);
        assert!(format!("{}", d[0]).contains("node"));
    }
}
