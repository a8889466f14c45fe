//! Per-`(from, to)` message sequence numbers, one table per partition of
//! the dispatch core.

use crate::NodeId;

/// The next sequence number of every directed pair that has sent so far,
/// stored per sender: `slots[local]` lists `(to, next)` sorted by `to`,
/// where `local` is the sender's index among the partition's members.
///
/// A node's peers are few and mostly its neighbours, so a lookup is a
/// binary search inside the cache line or two that the sender's previous
/// send already touched, where a map keyed by the pair hashes into a
/// table over every directed edge of the network. Nothing is assumed
/// about who a node sends to: a pair is inserted on its first send, and
/// an ascending broadcast over `Topology::complete` appends.
pub(crate) struct SendSeq {
    slots: Vec<Vec<(NodeId, u64)>>,
}

impl SendSeq {
    /// Counters for a partition of `senders` members.
    pub(crate) fn new(senders: usize) -> Self {
        Self {
            slots: vec![Vec::new(); senders],
        }
    }

    /// The sequence number of the next message from the member at `local`
    /// to `to`, counted from 0 per directed pair; advances the pair's
    /// counter.
    pub(crate) fn next(&mut self, local: usize, to: NodeId) -> u64 {
        let list = &mut self.slots[local];
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
        // Members 10, 11 and 12 at local indices 0, 1 and 2.
        let mut seq = SendSeq::new(3);
        assert_eq!(seq.next(0, 11), 0);
        assert_eq!(seq.next(0, 11), 1);
        assert_eq!(seq.next(1, 10), 0, "the reverse direction is its own pair");
        // Peers outside the partition, in any order.
        assert_eq!(seq.next(2, 900), 0);
        assert_eq!(seq.next(2, 3), 0);
        assert_eq!(seq.next(2, 900), 1);
        assert_eq!(seq.next(2, 3), 1);
        assert_eq!(seq.next(0, 11), 2);
    }
}
