//! Per-`(from, to)` message sequence numbers, one table per partition of
//! the dispatch core.

use std::ops::Range;

use crate::NodeId;

/// The next sequence number of every directed pair that has sent so far,
/// stored per sender: `slots[from - first]` lists `(to, next)` sorted by
/// `to`.
///
/// A node's peers are few and mostly its neighbours, so a lookup is a
/// binary search inside the cache line or two that the sender's previous
/// send already touched, where a map keyed by the pair hashes into a
/// table over every directed edge of the network. Nothing is assumed
/// about who a node sends to: a pair is inserted on its first send, and
/// an ascending broadcast over `Topology::complete` appends.
pub(crate) struct SendSeq {
    first: NodeId,
    slots: Vec<Vec<(NodeId, u64)>>,
}

impl SendSeq {
    /// Counters for the senders in `senders` (a partition's node range).
    pub(crate) fn new(senders: Range<NodeId>) -> Self {
        Self {
            first: senders.start,
            slots: vec![Vec::new(); senders.len()],
        }
    }

    /// The sequence number of the next message `from → to`, counted from
    /// 0 per directed pair; advances the pair's counter.
    pub(crate) fn next(&mut self, from: NodeId, to: NodeId) -> u64 {
        let list = &mut self.slots[from - self.first];
        let pos = match list.binary_search_by_key(&to, |&(peer, _)| peer) {
            Ok(pos) => pos,
            Err(pos) => {
                list.insert(pos, (to, 0));
                pos
            }
        };
        let seq = list[pos].1;
        list[pos].1 += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_from_zero_per_directed_pair() {
        let mut seq = SendSeq::new(10..13);
        assert_eq!(seq.next(10, 11), 0);
        assert_eq!(seq.next(10, 11), 1);
        assert_eq!(seq.next(11, 10), 0, "the reverse direction is its own pair");
        // Peers outside the sender range, in any order.
        assert_eq!(seq.next(12, 900), 0);
        assert_eq!(seq.next(12, 3), 0);
        assert_eq!(seq.next(12, 900), 1);
        assert_eq!(seq.next(12, 3), 1);
        assert_eq!(seq.next(10, 11), 2);
    }
}
