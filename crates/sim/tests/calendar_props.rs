//! Property tests pinning the calendar queue's one contract: it dequeues
//! in **exactly** the order a reversed `BinaryHeap` over the same
//! comparator would — earliest time first, then the canonical tie key —
//! no matter how adversarial the time axis is for the bucketing
//! (dense tie batches, million-fold scale jumps, zero-span years,
//! infinite axes). No engine uses the calendar queue; these tests keep
//! the benchmark's hold-model comparison a comparison of equals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gcs_sim::{CalendarItem, CalendarQueue};
use proptest::prelude::*;

/// Mirrors the engine's queued event: reversed comparator (earliest time
/// compares greatest), canonical key, insertion tie last.
#[derive(Debug, Clone, PartialEq)]
struct Item {
    time: f64,
    key: u64,
    tie: u64,
}

impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.tie.cmp(&self.tie))
    }
}
impl CalendarItem for Item {
    fn axis(&self) -> f64 {
        self.time
    }
}

/// Drains both queues in lockstep, asserting identical pop sequences.
fn assert_drains_identically(mut cal: CalendarQueue<Item>, mut heap: BinaryHeap<Item>) {
    assert_eq!(cal.len(), heap.len());
    while let Some(expected) = heap.pop() {
        let peeked = cal.peek().expect("calendar shorter than heap").clone();
        let got = cal.pop().expect("calendar shorter than heap");
        assert_eq!(peeked, got, "peek disagreed with pop");
        assert_eq!(
            expected, got,
            "calendar queue diverged from the BinaryHeap order"
        );
    }
    assert!(cal.is_empty());
    assert_eq!(cal.pop(), None);
}

fn build_both(items: &[Item], buckets: usize) -> (CalendarQueue<Item>, BinaryHeap<Item>) {
    let mut cal = CalendarQueue::with_buckets(buckets);
    let mut heap = BinaryHeap::new();
    for it in items {
        cal.push(it.clone());
        heap.push(it.clone());
    }
    (cal, heap)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // Dense tie batches: many items share each timestamp, so ordering is
    // decided almost entirely by the canonical key — the case that
    // matters for simultaneous-event determinism.
    fn dense_tie_batches_dequeue_in_heap_order(
        raw in proptest::collection::vec((0u8..8, 0u64..6), 1..200),
        buckets in 1usize..64,
    ) {
        let items: Vec<Item> = raw
            .iter()
            .enumerate()
            .map(|(i, (t, k))| Item {
                time: f64::from(*t) * 0.25,
                key: *k,
                tie: i as u64,
            })
            .collect();
        let (cal, heap) = build_both(&items, buckets);
        assert_drains_identically(cal, heap);
    }

    // Pathological quantization: timestamps spanning twelve orders of
    // magnitude force every slot() outcome — past, in-year buckets, and
    // overflow with repeated re-anchoring — plus zero-span years when
    // duplicates dominate.
    fn pathological_time_scales_dequeue_in_heap_order(
        raw in proptest::collection::vec((0u64..=u64::MAX, 0u64..4), 1..150),
        buckets in 1usize..32,
        scale in (0u8..3).prop_map(|i| [1e-9f64, 1.0, 1e9][usize::from(i)]),
    ) {
        let items: Vec<Item> = raw
            .iter()
            .enumerate()
            .map(|(i, (t, k))| Item {
                // Collapse the u64 into a handful of magnitudes so the
                // same run mixes 1e-9-scale and 1e3-scale stamps.
                time: ((t % 13) as f64).powi(3) * scale,
                key: *k,
                tie: i as u64,
            })
            .collect();
        let (cal, heap) = build_both(&items, buckets);
        assert_drains_identically(cal, heap);
    }

    // Interleaved push/pop (the engine's actual access pattern: pops at
    // the window frontier interleaved with newly scheduled timers and
    // arrivals) must agree with the heap at every step.
    fn interleaved_push_pop_matches_heap(
        ops in proptest::collection::vec((proptest::bool::ANY, 0u8..20, 0u64..5), 1..300),
        buckets in 1usize..16,
    ) {
        let mut cal = CalendarQueue::with_buckets(buckets);
        let mut heap = BinaryHeap::new();
        for (i, (is_pop, t, k)) in ops.iter().enumerate() {
            if *is_pop {
                prop_assert_eq!(cal.pop(), heap.pop());
            } else {
                let item = Item { time: f64::from(*t) * 0.5, key: *k, tie: i as u64 };
                cal.push(item.clone());
                heap.push(item);
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        assert_drains_identically(cal, heap);
    }

    // Infinite axes (events beyond any horizon) must still drain last and
    // in comparator order, never wedge the bucket scan.
    fn infinite_axes_drain_last_in_heap_order(
        finite in proptest::collection::vec(0u8..10, 0..40),
        infinite in 0usize..6,
        buckets in 1usize..8,
    ) {
        let mut items: Vec<Item> = finite
            .iter()
            .enumerate()
            .map(|(i, t)| Item { time: f64::from(*t), key: 0, tie: i as u64 })
            .collect();
        for j in 0..infinite {
            items.push(Item { time: f64::INFINITY, key: j as u64, tie: (1000 + j) as u64 });
        }
        let (cal, heap) = build_both(&items, buckets);
        assert_drains_identically(cal, heap);
    }
}
