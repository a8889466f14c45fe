//! Which partition owns which node, and where its state sits.
//!
//! Nodes are assigned to partitions by a locality order of the static base
//! graph: breadth-first from node 0, neighbours ascending, restarting at
//! the smallest unvisited id whenever a component is exhausted. That order
//! is cut into `k` chunks whose sizes differ by at most one, and each chunk,
//! sorted ascending, is one partition's member set. On a spatial graph a
//! breadth-first chunk is a region, so few edges cross the cut, and node
//! ids (which a clock-rate spread or a timer sweep may follow) are mixed
//! evenly over the partitions. The assignment is a pure function of the
//! topology and `k`; on a line, a star or a complete graph it is the
//! identity, so those cuts are contiguous id ranges.
//!
//! Per-node state is kept in *partition-major* order: partition 0's
//! members ascending, then partition 1's, and so on. A node's index in that
//! order is its *position*, so every partition owns one contiguous span of
//! positions and borrows one contiguous slice of the frame's trajectories.
//! Node ids, tie keys and merge keys stay global, so what a run does cannot
//! depend on the assignment.

use std::ops::Range;

use gcs_net::Topology;

use crate::NodeId;

/// The assignment of nodes to partitions and its position map.
#[derive(Debug)]
pub(crate) struct Placement {
    /// `order[p]`: the node at position `p`. Empty when every node sits at
    /// the position equal to its id.
    order: Vec<NodeId>,
    /// `position[node]`, the inverse of `order`; empty with it.
    position: Vec<u32>,
    /// The first position of every partition but the first. Empty at one
    /// partition: the single heap's placement allocates nothing.
    cuts: Vec<usize>,
    /// The node count.
    len: usize,
}

/// The breadth-first order of `topology`'s neighbour graph: from node 0,
/// neighbours ascending, restarting at the smallest unvisited id when a
/// component is exhausted. O(n + edges).
fn bfs_order(topology: &Topology) -> Vec<NodeId> {
    let n = topology.len();
    let mut seen = vec![false; n];
    // The order so far doubles as the queue: `order[head..]` is the
    // frontier.
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        order.push(root);
        let mut head = order.len() - 1;
        while let Some(&node) = order.get(head) {
            head += 1;
            for &peer in topology.neighbors_of(node) {
                if !seen[peer] {
                    seen[peer] = true;
                    order.push(peer);
                }
            }
        }
    }
    order
}

impl Placement {
    /// One partition over every node: the identity.
    fn single(n: usize) -> Self {
        Self {
            order: Vec::new(),
            position: Vec::new(),
            cuts: Vec::new(),
            len: n,
        }
    }

    /// `topology`'s nodes in `k` partitions by breadth-first chunks (see
    /// the module docs); `1 <= k <= n`.
    pub(crate) fn new(topology: &Topology, k: usize) -> Self {
        let n = topology.len();
        assert!((1..=n.max(1)).contains(&k), "{k} partitions over {n} nodes");
        if k == 1 {
            return Self::single(n);
        }
        let to_u32 = |x: usize| u32::try_from(x).expect("node count fits in u32");
        let starts: Vec<usize> = (0..=k).map(|part| part * n / k).collect();
        // Chunk `part` of the breadth-first order is partition `part`.
        // Scanning ids upwards then deals every node the next position of
        // its partition, so each member set comes out ascending.
        let mut position = vec![0u32; n];
        let bfs = bfs_order(topology);
        for (part, span) in starts.windows(2).enumerate() {
            for &node in &bfs[span[0]..span[1]] {
                position[node] = to_u32(part);
            }
        }
        let cuts = starts[1..k].to_vec();
        let mut next = starts;
        let mut order = bfs;
        for (node, slot) in position.iter_mut().enumerate() {
            let p = &mut next[*slot as usize];
            order[*p] = node;
            *slot = to_u32(*p);
            *p += 1;
        }
        if order.iter().enumerate().all(|(p, &node)| p == node) {
            return Self {
                cuts,
                ..Self::single(n)
            };
        }
        Self {
            order,
            position,
            cuts,
            len: n,
        }
    }

    /// The position of `node`'s state in partition-major order.
    #[inline]
    pub(crate) fn position(&self, node: NodeId) -> usize {
        if self.position.is_empty() {
            node
        } else {
            self.position[node] as usize
        }
    }

    /// The per-node position map, empty when it is the identity (what
    /// [`crate::Probe`] reads through).
    pub(crate) fn positions(&self) -> &[u32] {
        &self.position
    }

    /// The positions partition `part` owns.
    pub(crate) fn span(&self, part: usize) -> Range<usize> {
        let start = part.checked_sub(1).map_or(0, |cut| self.cuts[cut]);
        start..self.cuts.get(part).copied().unwrap_or(self.len)
    }

    /// Partition `part`'s members, ascending by id.
    pub(crate) fn members(&self, part: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.span(part)
            .map(|p| self.order.get(p).copied().unwrap_or(p))
    }

    /// The partition that owns `node`.
    #[inline]
    pub(crate) fn owner(&self, node: NodeId) -> usize {
        let p = self.position(node);
        self.cuts.partition_point(|&cut| cut <= p)
    }

    /// Moves per-node items from partition-major order back to id order,
    /// in place and without cloning any of them; nothing to do at the
    /// identity.
    pub(crate) fn restore_id_order<T>(self, items: &mut [T]) {
        // `items[p]` belongs at index `order[p]`: follow each cycle of the
        // permutation, swapping every item straight to its place.
        let mut at = self.order;
        for p in 0..at.len() {
            while at[p] != p {
                let q = at[p];
                items.swap(p, q);
                at.swap(p, q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every partition's members in partition order: the assignment.
    fn parts(topology: &Topology, k: usize) -> Vec<Vec<NodeId>> {
        let placement = Placement::new(topology, k);
        (0..k)
            .map(|part| placement.members(part).collect())
            .collect()
    }

    fn is_contiguous(parts: &[Vec<NodeId>]) -> bool {
        parts
            .concat()
            .iter()
            .enumerate()
            .all(|(p, &node)| p == node)
    }

    #[test]
    fn the_assignment_is_a_permutation_in_chunks_of_equal_size() {
        let rgg = Topology::random_geometric(97, 10.0, 3.0, 5);
        for (topology, k) in [
            (Topology::ring(10), 3),
            (Topology::grid(5, 7), 4),
            (rgg.clone(), 2),
            (rgg.clone(), 8),
            (rgg, 97),
        ] {
            let n = topology.len();
            let placement = Placement::new(&topology, k);
            let parts = parts(&topology, k);
            let mut all = parts.concat();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "k = {k}");
            let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "chunk sizes {sizes:?}");
            for (part, members) in parts.iter().enumerate() {
                assert!(members.windows(2).all(|w| w[0] < w[1]), "not ascending");
                for (i, &node) in members.iter().enumerate() {
                    assert_eq!(placement.owner(node), part);
                    assert_eq!(placement.position(node), placement.span(part).start + i);
                }
            }
        }
    }

    #[test]
    fn line_star_and_complete_graphs_keep_contiguous_ranges() {
        for topology in [
            Topology::line(11),
            Topology::star(9),
            Topology::complete(7, 1.0),
        ] {
            for k in 1..=topology.len() {
                let placement = Placement::new(&topology, k);
                assert!(placement.positions().is_empty(), "k = {k}");
                assert!(is_contiguous(&parts(&topology, k)));
            }
        }
    }

    #[test]
    fn rings_and_grids_cut_across_id_ranges() {
        // Ring: 0, 1, 7, 2, 6, 3, 5, 4 breadth-first.
        assert_eq!(
            parts(&Topology::ring(8), 2),
            vec![vec![0, 1, 2, 7], vec![3, 4, 5, 6]]
        );
        // 3 wide, 4 high, row-major: breadth-first by anti-diagonals.
        let grid = parts(&Topology::grid(3, 4), 2);
        assert_eq!(grid, vec![vec![0, 1, 2, 3, 4, 6], vec![5, 7, 8, 9, 10, 11]]);
        assert!(!is_contiguous(&grid));
    }

    #[test]
    fn a_disconnected_graph_is_covered_component_by_component() {
        // Two components, {0, 2, 4} and {1, 3}, far apart.
        let n = 5;
        let dist = (0..n * n)
            .map(|ij| {
                let (i, j) = (ij / n, ij % n);
                match (i == j, i % 2 == j % 2) {
                    (true, _) => 0.0,
                    (false, true) => 1.0,
                    (false, false) => 100.0,
                }
            })
            .collect();
        let topology = Topology::from_matrix(dist, 1.0).unwrap();
        assert!(!topology.is_connected());
        assert_eq!(bfs_order(&topology), vec![0, 2, 4, 1, 3]);
        let placement = Placement::new(&topology, 2);
        assert_eq!(parts(&topology, 2), vec![vec![0, 2], vec![1, 3, 4]]);
        assert_eq!(placement.positions(), &[0, 2, 1, 3, 4]);
    }

    #[test]
    fn restoring_id_order_undoes_the_position_map() {
        let topology = Topology::random_geometric(60, 10.0, 3.0, 2);
        let placement = Placement::new(&topology, 3);
        assert!(!placement.order.is_empty());
        let mut items = placement.order.clone();
        placement.restore_id_order(&mut items);
        assert_eq!(items, (0..60).collect::<Vec<_>>());
    }
}
