//! A bucketed calendar queue. No engine uses it: both dispatch from a
//! `BinaryHeap`, which measured level on the hold model and ahead end to
//! end. It is kept, public, only for the benchmark's hold-model metric,
//! which compares the two queues.
//!
//! A calendar queue spreads items over an array of time buckets (one
//! "year" of `nb` buckets, each `quantum` wide) so that a push costs one
//! classification and a pop scans forward from a cursor instead of
//! sifting a single global heap. Each bucket is itself a [`BinaryHeap`],
//! which resolves same-bucket ordering — including exact ties on the time
//! axis — by the item's full `Ord`. The structure therefore dequeues in
//! *exactly* the order a single `BinaryHeap` over the same `Ord` would,
//! the property the calendar proptests pin.
//!
//! Items that land before the current year (or carry a non-finite axis)
//! go to a `past` catch-all heap consulted on every pop; items beyond the
//! year's end accumulate in an `overflow` heap that is redistributed into
//! a fresh year — re-anchored and re-quantized to the overflow's actual
//! span — once the buckets drain. Pathological quantization (all items in
//! one bucket, or each in its own) only costs performance, never order.

use std::collections::BinaryHeap;
use std::fmt;

/// An item a [`CalendarQueue`] can bucket by its position on the time
/// axis.
///
/// # Contract
///
/// `axis` must agree with the item's `Ord` in the dequeue-first
/// direction: the queue hands out the **greatest** item first (the
/// `BinaryHeap` max-heap convention), so an item with a *smaller* axis
/// value must compare *greater* — the reversed, earliest-first ordering
/// the engine's event comparator already implements. Items with equal
/// axis values may order arbitrarily by the rest of their `Ord` key.
pub trait CalendarItem {
    /// The item's position on the quantized axis (its time).
    fn axis(&self) -> f64;
}

/// Where a pushed item lives.
enum Slot {
    Past,
    Bucket(usize),
    Overflow,
}

/// A bucketed calendar queue dequeuing in exactly the item's `Ord` order
/// (greatest first). See the module docs for the layout.
pub struct CalendarQueue<T> {
    /// Items before the current year, or with a non-finite axis.
    past: BinaryHeap<T>,
    /// Bucket `k` holds axis values in
    /// `[offset + k·quantum, offset + (k+1)·quantum)`.
    buckets: Vec<BinaryHeap<T>>,
    /// Items at or beyond the current year's end, awaiting
    /// redistribution.
    overflow: BinaryHeap<T>,
    /// Start of the current year on the axis.
    offset: f64,
    /// Bucket width (strictly positive).
    quantum: f64,
    /// Lower bound on the first non-empty bucket index.
    cursor: usize,
    len: usize,
}

impl<T: Ord + CalendarItem> CalendarQueue<T> {
    /// Default number of buckets per year.
    pub const DEFAULT_BUCKETS: usize = 512;

    /// An empty queue with the default bucket count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_buckets(Self::DEFAULT_BUCKETS)
    }

    /// An empty queue with `nb` buckets per year.
    ///
    /// # Panics
    ///
    /// Panics if `nb` is zero.
    #[must_use]
    pub fn with_buckets(nb: usize) -> Self {
        assert!(nb >= 1, "calendar queue needs at least one bucket");
        Self {
            past: BinaryHeap::new(),
            buckets: (0..nb).map(|_| BinaryHeap::new()).collect(),
            overflow: BinaryHeap::new(),
            offset: 0.0,
            quantum: 1.0,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues an item.
    pub fn push(&mut self, item: T) {
        self.place(item);
        self.len += 1;
    }

    /// Removes and returns the greatest item (earliest axis under the
    /// reversed ordering), or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(i) = self.first_nonempty_bucket() {
                let from_past = match (self.past.peek(), self.buckets[i].peek()) {
                    (Some(p), Some(b)) => p > b,
                    (Some(_), None) => true,
                    _ => false,
                };
                self.len -= 1;
                return if from_past {
                    self.past.pop()
                } else {
                    self.buckets[i].pop()
                };
            }
            if self.overflow.is_empty() {
                self.len -= 1;
                return self.past.pop();
            }
            // All items before the year's end have a home in `past`;
            // everything else waits in `overflow`. Only re-anchor the year
            // when the overflow actually holds the next item.
            let past_wins = match (self.past.peek(), self.overflow.peek()) {
                (Some(p), Some(o)) => p > o,
                (Some(_), None) => true,
                _ => false,
            };
            if past_wins {
                self.len -= 1;
                return self.past.pop();
            }
            self.redistribute();
        }
    }

    /// The item [`CalendarQueue::pop`] would return, without removing it.
    /// Takes `&mut self` because finding it may re-anchor the year
    /// (redistribute the overflow) — ordering is unaffected.
    pub fn peek(&mut self) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(i) = self.first_nonempty_bucket() {
                let from_past = match (self.past.peek(), self.buckets[i].peek()) {
                    (Some(p), Some(b)) => p > b,
                    (Some(_), None) => true,
                    _ => false,
                };
                return if from_past {
                    self.past.peek()
                } else {
                    self.buckets[i].peek()
                };
            }
            if self.overflow.is_empty() {
                return self.past.peek();
            }
            let past_wins = match (self.past.peek(), self.overflow.peek()) {
                (Some(p), Some(o)) => p > o,
                (Some(_), None) => true,
                _ => false,
            };
            if past_wins {
                return self.past.peek();
            }
            self.redistribute();
        }
    }

    /// Classifies and inserts without touching `len`.
    fn place(&mut self, item: T) {
        match self.slot(item.axis()) {
            Slot::Past => self.past.push(item),
            Slot::Overflow => self.overflow.push(item),
            Slot::Bucket(i) => {
                // A push behind the cursor (an item created inside the
                // current window) re-arms the scan.
                self.cursor = self.cursor.min(i);
                self.buckets[i].push(item);
            }
        }
    }

    fn slot(&self, t: f64) -> Slot {
        let rel = (t - self.offset) / self.quantum;
        // NaN axes also route to `past`, keeping the structure coherent
        // even for inputs the engine rejects upstream.
        if rel.is_nan() || rel < 0.0 {
            return Slot::Past;
        }
        if rel >= self.buckets.len() as f64 {
            return Slot::Overflow;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Slot::Bucket(rel as usize)
    }

    fn first_nonempty_bucket(&mut self) -> Option<usize> {
        while self.cursor < self.buckets.len() {
            if !self.buckets[self.cursor].is_empty() {
                return Some(self.cursor);
            }
            self.cursor += 1;
        }
        None
    }

    /// Starts a new year anchored at the overflow's minimum, re-quantized
    /// to its span, and re-files every overflow item.
    fn redistribute(&mut self) {
        let items = std::mem::take(&mut self.overflow).into_vec();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for it in &items {
            let a = it.axis();
            if a.is_finite() {
                lo = lo.min(a);
                hi = hi.max(a);
            }
        }
        if lo.is_finite() {
            let nb = self.buckets.len() as f64;
            let span = (hi - lo).max(0.0);
            // Pad the width so the maximum lands strictly inside the last
            // bucket; a zero span keeps the previous quantum.
            let q = if span > 0.0 {
                (span / nb) * (1.0 + 1e-9)
            } else {
                self.quantum
            };
            self.offset = lo;
            self.quantum = q.max(f64::MIN_POSITIVE);
            self.cursor = 0;
            for it in items {
                self.place(it);
            }
        } else {
            // Degenerate: only infinite axes. `past` is a plain heap with
            // the full `Ord`, so correctness is preserved.
            for it in items {
                self.past.push(it);
            }
        }
    }
}

impl<T: Ord + CalendarItem> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .field("offset", &self.offset)
            .field("quantum", &self.quantum)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// Earliest-first test item mirroring the engine's event comparator:
    /// time (reversed), then a tie key, then an insertion counter.
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

    fn drain(q: &mut CalendarQueue<Item>) -> Vec<Item> {
        let mut out = Vec::new();
        while let Some(it) = q.pop() {
            out.push(it);
        }
        out
    }

    #[test]
    fn dequeues_in_heap_order() {
        let mut q = CalendarQueue::with_buckets(4);
        let mut heap = BinaryHeap::new();
        for (i, t) in [5.0, 1.0, 3.0, 3.0, 0.5, 100.0, 2.0, 3.0]
            .into_iter()
            .enumerate()
        {
            let it = Item {
                time: t,
                key: i as u64 % 3,
                tie: i as u64,
            };
            q.push(it.clone());
            heap.push(it);
        }
        let mut expect = Vec::new();
        while let Some(it) = heap.pop() {
            expect.push(it);
        }
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn interleaved_push_pop_respects_order() {
        let mut q = CalendarQueue::with_buckets(3);
        q.push(Item {
            time: 10.0,
            key: 0,
            tie: 0,
        });
        q.push(Item {
            time: 20.0,
            key: 0,
            tie: 1,
        });
        assert_eq!(q.pop().unwrap().time, 10.0);
        // Push behind the implicit cursor (before anything remaining).
        q.push(Item {
            time: 1.0,
            key: 0,
            tie: 2,
        });
        assert_eq!(q.peek().unwrap().time, 1.0);
        assert_eq!(q.pop().unwrap().time, 1.0);
        assert_eq!(q.pop().unwrap().time, 20.0);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn dense_ties_resolve_by_full_ord() {
        let mut q = CalendarQueue::with_buckets(8);
        for tie in 0..50u64 {
            q.push(Item {
                time: 7.25,
                key: 49 - tie,
                tie,
            });
        }
        let out = drain(&mut q);
        let keys: Vec<u64> = out.iter().map(|it| it.key).collect();
        assert_eq!(keys, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_redistributes_without_reordering() {
        // One bucket forces everything past t=1 into overflow; the spread
        // of magnitudes forces pathological quantization on re-anchor.
        let mut q = CalendarQueue::with_buckets(1);
        let times = [0.25, 1e9, 3.5, 2.0, 1e-3, 7.0e4, 2.0];
        for (i, t) in times.into_iter().enumerate() {
            q.push(Item {
                time: t,
                key: 0,
                tie: i as u64,
            });
        }
        let out = drain(&mut q);
        let mut sorted: Vec<f64> = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(out.iter().map(|it| it.time).collect::<Vec<_>>(), sorted);
    }
}
