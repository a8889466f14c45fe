//! Sequence numbers are per directed pair, count from 0 in send order,
//! and do not depend on the engine, whoever a node sends to: neighbours,
//! nodes outside its neighbour relation, or all 63 others on a complete
//! graph.

use std::collections::HashMap;

use gcs_clocks::RateSchedule;
use gcs_net::{Topology, UniformDelay};
use gcs_sim::{Context, MessageRecord, Node, NodeId, SimulationBuilder, TimerId};

/// Every period: broadcast to the neighbours, then send to two fixed
/// nodes chosen by index alone (on a line, mostly non-neighbours; the
/// second one twice, so a pair sees two sends from one event).
#[derive(Debug)]
struct Chatty {
    id: NodeId,
    n: usize,
}

impl Node<u32> for Chatty {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.set_timer(1.0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _timer: TimerId) {
        ctx.send_to_neighbors(&0);
        let far = (self.id + self.n / 2) % self.n;
        let other = (self.id + 3) % self.n;
        for to in [far, other, other] {
            if to != self.id {
                ctx.send(to, 1);
            }
        }
        ctx.set_timer(1.0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, _msg: &u32) {}
}

fn builder(topology: &Topology) -> SimulationBuilder {
    let n = topology.len();
    let rates = (0..n).map(|i| RateSchedule::constant(1.0 + 0.01 * (i % 5) as f64));
    SimulationBuilder::new(topology.clone())
        .schedules(rates.collect())
        .delay_policy(UniformDelay::new(0.25, 0.75, 9))
}

/// Asserts the log's sequence numbers count 0, 1, 2, … per `(from, to)`
/// in send order and returns how many pairs sent.
fn assert_contiguous(messages: &[MessageRecord<u32>]) -> usize {
    let mut next: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for m in messages {
        let expected = next.entry((m.from, m.to)).or_insert(0);
        assert_eq!(
            m.seq, *expected,
            "{} -> {} at t = {}",
            m.from, m.to, m.send_time
        );
        *expected += 1;
    }
    next.len()
}

fn check(topology: &Topology, horizon: f64, min_pairs: usize) {
    let make = |id, n| Chatty { id, n };
    let single = builder(topology)
        .build_with(make)
        .unwrap()
        .try_execute_until(horizon)
        .unwrap();
    let pairs = assert_contiguous(single.messages());
    assert!(pairs >= min_pairs, "only {pairs} directed pairs sent");

    let sharded = builder(topology)
        .shards(2)
        .build_sharded_with(make)
        .unwrap();
    assert_eq!(sharded.shard_count(), 2);
    let sharded = sharded.try_execute_until(horizon).unwrap();
    assert_eq!(single.messages(), sharded.messages());
}

#[test]
fn sends_to_non_neighbours_count_per_pair() {
    let line = Topology::line(12);
    // Node 0's sends to 6 and 3 leave its neighbour relation ({1}).
    assert_eq!(line.neighbors_of(0), [1]);
    // 22 neighbour pairs plus 24 index-chosen ones at distance 3 or more.
    check(&line, 6.5, 46);
}

#[test]
fn complete_graph_broadcasts_count_per_pair() {
    check(&Topology::complete(64, 1.0), 3.5, 64 * 63);
}
