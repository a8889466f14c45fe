//! Time-varying topology views compiled from a base [`Topology`] and a
//! [`ChurnSchedule`].
//!
//! The engines ask one question of a view per delivery, "did churn lose
//! this message", through [`DynamicTopology::link_interrupted`]. A
//! per-node flag computed at compile time (does any link at this node
//! ever change) settles it without touching the touched-pair list for
//! every delivery between nodes churn never reaches, which at 100k nodes
//! and a few dozen toggles is nearly all of them; the rest pay one binary
//! search where `link_tracked` followed by `link_uninterrupted` paid two.
//!
//! Compiling keeps the base topology as it is and builds histories only
//! for the pairs churn touches, so it costs O(n + churn) time and memory
//! however many instants the schedule has.

use std::fmt;

use gcs_net::Topology;

use crate::churn::{ChurnKind, ChurnSchedule};

/// A normalized edge-level change: at `time`, the link `{a, b}` came up or
/// went down. Node joins/leaves are expanded into the edge changes they
/// cause, and redundant schedule events (e.g. taking down an edge that is
/// already down) are elided, so consumers see exactly the live-set deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeChange {
    /// Real time the change takes effect.
    pub time: f64,
    /// First endpoint (always `a < b`).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// `true` if the link came up, `false` if it went down.
    pub up: bool,
}

/// The history of a base pair churn never touches: up throughout.
const FOREVER: [(f64, f64); 1] = [(f64::NEG_INFINITY, f64::INFINITY)];

/// The entries of `sorted` (ordered by `key` first) whose key is `node`.
fn run_of<T>(sorted: &[T], node: usize, key: impl Fn(&T) -> usize) -> &[T] {
    let start = sorted.partition_point(|x| key(x) < node);
    let len = sorted[start..].partition_point(|x| key(x) == node);
    &sorted[start..start + len]
}

/// The start of the up-interval in `history` covering `t`, if any.
fn formed(history: &[(f64, f64)], t: f64) -> Option<f64> {
    let pos = history.partition_point(|&(start, _)| start <= t);
    let (start, end) = *history.get(pos.checked_sub(1)?)?;
    (t < end).then_some(start)
}

/// Errors from building a [`DynamicTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicTopologyError {
    /// A churn event referenced a node outside the base topology.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The base topology size.
        n: usize,
    },
    /// A churn event referenced a self-loop edge.
    SelfLoop {
        /// The node on both ends.
        node: usize,
    },
}

impl fmt::Display for DynamicTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicTopologyError::NodeOutOfRange { node, n } => {
                write!(f, "churn event references node {node}, topology has {n}")
            }
            DynamicTopologyError::SelfLoop { node } => {
                write!(f, "churn event references self-loop at node {node}")
            }
        }
    }
}

impl std::error::Error for DynamicTopologyError {}

/// A dynamic network: a base [`Topology`] (fixing the node universe and
/// the delay-uncertainty distances) plus a [`ChurnSchedule`] toggling
/// which links are live over time.
///
/// This is the model of Kuhn, Lenzen, Locher & Oshman, *Optimal Gradient
/// Clock Synchronization in Dynamic Networks*: distances (and hence delay
/// bounds) are fixed per pair, but the communication graph changes. The
/// view shares the base topology and records up-intervals only for the
/// *touched* pairs — those an edge event names, plus the base pairs at a
/// node that joins or leaves — in one flat array. Every other base pair
/// is live throughout, so liveness and formation-time queries are a
/// binary search over one pair's history, and memory is `O(n + churn
/// events)` however many instants the schedule has.
///
/// Initially every base-topology neighbor pair is live; an edge inserted
/// by churn between non-adjacent base nodes uses the base distance for
/// its delay bound.
///
/// # Examples
///
/// ```
/// use gcs_dynamic::{ChurnSchedule, DynamicTopology};
/// use gcs_net::Topology;
///
/// let churn = ChurnSchedule::periodic_flap(0, 1, 10.0, 35.0);
/// let d = DynamicTopology::new(Topology::ring(4), churn).unwrap();
/// assert!(d.link_up_at(0, 1, 5.0));
/// assert!(!d.link_up_at(0, 1, 15.0)); // down during [10, 20)
/// assert_eq!(d.link_formed_at(0, 1, 25.0), Some(20.0));
/// ```
#[derive(Debug, Clone)]
pub struct DynamicTopology {
    base: Topology,
    schedule: ChurnSchedule,
    changes: Vec<EdgeChange>,
    /// Instants (after time zero) at which the live graph or a node's
    /// activity changed.
    instants: usize,
    /// The touched pairs `(a, b)`, `a < b`, sorted.
    touched: Vec<(usize, usize)>,
    /// `(node, partner, k)` for both ends of touched pair `k`, sorted.
    incident: Vec<(usize, usize, usize)>,
    /// Touched pair `k`'s up-intervals `[start, end)`, sorted, are
    /// `spans[offsets[k]..offsets[k + 1]]`. `NEG_INFINITY` marks a link
    /// live since time 0, `INFINITY` one that never goes down again.
    offsets: Vec<usize>,
    spans: Vec<(f64, f64)>,
    /// `(node, time)` of every change of a node's activity, sorted; a
    /// node absent from the start flips at `NEG_INFINITY`. Only the unit
    /// tests read it, through `active_at`.
    #[cfg(test)]
    flips: Vec<(usize, f64)>,
    /// Per node: whether it is an endpoint of some tracked pair whose
    /// history is anything but the single interval `(-inf, +inf)`. A pair
    /// with an unflagged endpoint is either untracked or up forever, which
    /// is how [`DynamicTopology::link_interrupted`] answers most
    /// deliveries without searching `touched`.
    churned: Vec<bool>,
}

impl DynamicTopology {
    /// Compiles a dynamic view from a base topology and a churn schedule.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicTopologyError`] if any event references a node
    /// outside the base topology or a self-loop.
    pub fn new(base: Topology, schedule: ChurnSchedule) -> Result<Self, DynamicTopologyError> {
        let (n, events) = (base.len(), schedule.events());
        for event in events {
            match event.kind {
                ChurnKind::EdgeUp { a, b } | ChurnKind::EdgeDown { a, b } => {
                    if a == b {
                        return Err(DynamicTopologyError::SelfLoop { node: a });
                    }
                    for node in [a, b] {
                        if node >= n {
                            return Err(DynamicTopologyError::NodeOutOfRange { node, n });
                        }
                    }
                }
                ChurnKind::NodeJoin { node } | ChurnKind::NodeLeave { node } => {
                    if node >= n {
                        return Err(DynamicTopologyError::NodeOutOfRange { node, n });
                    }
                }
            }
        }

        let mut touched = Vec::new();
        for event in events {
            match event.kind {
                ChurnKind::EdgeUp { a, b } | ChurnKind::EdgeDown { a, b } => {
                    touched.push((a.min(b), a.max(b)));
                }
                ChurnKind::NodeJoin { node } | ChurnKind::NodeLeave { node } => {
                    let pairs = base.neighbors_of(node).iter();
                    touched.extend(pairs.map(|&j| (node.min(j), node.max(j))));
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let m = touched.len();
        let mut incident: Vec<(usize, usize, usize)> = touched
            .iter()
            .enumerate()
            .flat_map(|(k, &(a, b))| [(a, b, k), (b, a, k)])
            .collect();
        incident.sort_unstable();

        // Sweep the instants, re-evaluating only the pairs each instant's
        // events reach. Edge state is independent of node liveness, so a
        // rejoin restores what a leave took down.
        let mut edge_state: Vec<bool> = touched
            .iter()
            .map(|&(a, b)| base.neighbors_of(a).binary_search(&b).is_ok())
            .collect();
        let mut live = edge_state.clone();
        let mut active = vec![true; n];
        let mut open = vec![usize::MAX; m];
        let mut spans = Vec::new();
        for k in (0..m).filter(|&k| live[k]) {
            open[k] = spans.len();
            spans.push((k, f64::NEG_INFINITY, f64::INFINITY));
        }
        let (mut changes, mut flips, mut instants) = (Vec::new(), Vec::new(), 0);
        let (mut dirty, mut moved) = (Vec::new(), Vec::new());
        for group in events.chunk_by(|x, y| x.time == y.time) {
            for event in group {
                match event.kind {
                    ChurnKind::EdgeUp { a, b } | ChurnKind::EdgeDown { a, b } => {
                        let pair = (a.min(b), a.max(b));
                        let k = touched
                            .binary_search(&pair)
                            .expect("named pairs are touched");
                        edge_state[k] = matches!(event.kind, ChurnKind::EdgeUp { .. });
                        dirty.push(k);
                    }
                    ChurnKind::NodeJoin { node } | ChurnKind::NodeLeave { node } => {
                        moved.push((node, active[node]));
                        active[node] = matches!(event.kind, ChurnKind::NodeJoin { .. });
                        dirty.extend(run_of(&incident, node, |e| e.0).iter().map(|e| e.2));
                    }
                }
            }
            // Time-zero events shape the initial graph: they emit no
            // changes, and what they flip is dated before every query
            // (a span they close is empty and dropped below).
            let t = group[0].time;
            let at = if t == 0.0 { f64::NEG_INFINITY } else { t };
            let before = (changes.len(), flips.len());
            // Ascending pair order within an instant fixes the order the
            // engine enqueues its changes in.
            dirty.sort_unstable();
            dirty.dedup();
            for &k in &dirty {
                let (a, b) = touched[k];
                let up = edge_state[k] && active[a] && active[b];
                if up == live[k] {
                    continue;
                }
                live[k] = up;
                if t != 0.0 {
                    changes.push(EdgeChange { time: t, a, b, up });
                }
                if up {
                    open[k] = spans.len();
                    spans.push((k, at, f64::INFINITY));
                } else {
                    spans[open[k]].2 = at;
                }
            }
            // A node's first entry holds its activity before the instant.
            moved.sort_by_key(|&(node, _)| node);
            moved.dedup_by_key(|&mut (node, _)| node);
            let flipped = moved.iter().filter(|&&(node, was)| active[node] != was);
            flips.extend(flipped.map(|&(node, _)| (node, at)));
            instants += usize::from(t != 0.0 && before != (changes.len(), flips.len()));
            dirty.clear();
            moved.clear();
        }
        #[cfg(test)]
        flips.sort_by_key(|&(node, _)| node);
        spans.retain(|&(_, start, end)| start < end);
        spans.sort_by_key(|&(k, _, _)| k);

        let mut view = Self {
            base,
            schedule,
            changes,
            instants,
            offsets: (0..=m)
                .map(|k| spans.partition_point(|s| s.0 < k))
                .collect(),
            spans: spans
                .into_iter()
                .map(|(_, start, end)| (start, end))
                .collect(),
            touched,
            incident,
            #[cfg(test)]
            flips,
            churned: vec![false; n],
        };
        for k in 0..m {
            if view.spans_of(k) != FOREVER {
                let (a, b) = view.touched[k];
                view.churned[a] = true;
                view.churned[b] = true;
            }
        }
        Ok(view)
    }

    /// A static dynamic view (no churn) over `base`.
    #[cfg(test)]
    pub(crate) fn static_view(base: Topology) -> Self {
        Self::new(base, ChurnSchedule::empty()).expect("empty schedule is always valid")
    }

    /// The view recompiled with every churn-event time mapped through
    /// `warp` (see [`ChurnSchedule::retimed`]): the dynamic half of a
    /// churn-aware execution re-timing. The node universe, distances, and
    /// event kinds are untouched, so recompilation cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if `warp` produces a negative or non-finite time.
    #[must_use]
    pub fn retimed(&self, warp: impl FnMut(f64) -> f64) -> Self {
        Self::new(self.base.clone(), self.schedule.retimed(warp))
            .expect("retimed schedule references the same nodes")
    }

    /// The base topology (node universe and distances).
    #[must_use]
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// The churn schedule this view was compiled from.
    #[must_use]
    pub fn schedule(&self) -> &ChurnSchedule {
        &self.schedule
    }

    /// The number of nodes in the universe.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Returns `true` if the node universe is empty (never, by
    /// construction of [`Topology`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// The normalized edge-level changes, sorted by time. This is what the
    /// simulation engine schedules [`TopologyChange`] events from.
    ///
    /// [`TopologyChange`]: https://docs.rs/gcs-sim
    #[must_use]
    pub fn edge_changes(&self) -> &[EdgeChange] {
        &self.changes
    }

    /// The live neighbors of node `i` at time `t` (ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn neighbors_at(&self, i: usize, t: f64) -> Vec<usize> {
        assert!(i < self.len(), "node index out of range");
        let touched = run_of(&self.incident, i, |e| e.0);
        let untouched = self
            .base
            .neighbors_of(i)
            .iter()
            .copied()
            .filter(|&j| touched.binary_search_by_key(&j, |e| e.1).is_err());
        let up = touched
            .iter()
            .filter(|e| formed(self.spans_of(e.2), t).is_some());
        let mut neighbors: Vec<usize> = untouched.chain(up.map(|e| e.1)).collect();
        neighbors.sort_unstable();
        neighbors
    }

    /// Whether node `i` is active (joined) at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[cfg(test)]
    fn active_at(&self, i: usize, t: f64) -> bool {
        assert!(i < self.len(), "node index out of range");
        let flips = run_of(&self.flips, i, |f| f.0);
        flips.partition_point(|&(_, at)| at <= t) % 2 == 0
    }

    /// The position of pair `{a, b}` in the sorted touched-pair list.
    fn touched_index(&self, a: usize, b: usize) -> Option<usize> {
        self.touched.binary_search(&(a.min(b), a.max(b))).ok()
    }

    /// Touched pair `k`'s up-intervals.
    fn spans_of(&self, k: usize) -> &[(f64, f64)] {
        &self.spans[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Whether the pair `{a, b}` is a link this view governs: a
    /// base-topology neighbor pair, or a pair some churn event references.
    /// Untracked pairs are outside the communication graph — the engine
    /// leaves direct sends between them alone (static semantics) instead
    /// of treating them as permanently-down links.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn link_tracked(&self, a: usize, b: usize) -> bool {
        let n = self.len();
        assert!(a < n && b < n, "node index out of range");
        self.touched_index(a, b).is_some() || self.base.neighbors_of(a).binary_search(&b).is_ok()
    }

    /// Whether the link `{a, b}` is live at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn link_up_at(&self, a: usize, b: usize, t: f64) -> bool {
        self.link_formed_at(a, b, t).is_some()
    }

    /// When the current up-interval of link `{a, b}` began, if it is live
    /// at time `t`. Links live since time 0 report `NEG_INFINITY` — they
    /// are "always stable" in the weak/strong discipline.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn link_formed_at(&self, a: usize, b: usize, t: f64) -> Option<f64> {
        let n = self.len();
        assert!(a < n && b < n, "node index out of range");
        match self.touched_index(a, b) {
            Some(k) => formed(self.spans_of(k), t),
            None if self.base.neighbors_of(a).binary_search(&b).is_ok() => formed(&FOREVER, t),
            None => None,
        }
    }

    /// Whether the link `{a, b}` was up continuously over `(t0, t1]`: live
    /// at `t1` with its current up-interval starting at or before `t0`.
    /// This is the delivery condition for a message sent at `t0` arriving
    /// at `t1`.
    #[must_use]
    pub fn link_uninterrupted(&self, a: usize, b: usize, t0: f64, t1: f64) -> bool {
        match self.link_formed_at(a, b, t1) {
            Some(formed) => formed <= t0,
            None => false,
        }
    }

    /// Whether churn loses a message on `{a, b}` sent at `t0` and due at
    /// `t1`: the pair is tracked and was *not* up continuously over
    /// `(t0, t1]`. Equal to `link_tracked(a, b) && !link_uninterrupted(a,
    /// b, t0, t1)` for finite times, in at most one search of the touched
    /// pairs, and in none unless both endpoints touch a link that ever
    /// changed. This is the question the engines ask once per delivery.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn link_interrupted(&self, a: usize, b: usize, t0: f64, t1: f64) -> bool {
        debug_assert!(
            t0.is_finite() && t1.is_finite(),
            "send and arrival times are finite, got ({t0}, {t1}]"
        );
        if !(self.churned[a] && self.churned[b]) {
            return false;
        }
        self.touched_index(a, b)
            .is_some_and(|k| formed(self.spans_of(k), t1).is_none_or(|formed| formed > t0))
    }

    /// The live edges `(a, b)` with `a < b` at time `t`, ascending.
    #[must_use]
    pub fn live_edges_at(&self, t: f64) -> Vec<(usize, usize)> {
        let untouched = self
            .base
            .neighbor_edges()
            .into_iter()
            .filter(|&(a, b)| self.touched_index(a, b).is_none());
        let up = (0..self.touched.len()).filter(|&k| formed(self.spans_of(k), t).is_some());
        let mut edges: Vec<_> = untouched.chain(up.map(|k| self.touched[k])).collect();
        edges.sort_unstable();
        edges
    }

    /// Returns `true` if the live graph never changes after time zero (the
    /// network is effectively static).
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.changes.is_empty()
    }
}

impl fmt::Display for DynamicTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dynamic({} nodes, {} change instants, {} edge changes)",
            self.len(),
            self.instants,
            self.changes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnEvent;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One constant-topology interval of the reference model: the live
    /// graph's adjacency lists and node activity.
    #[derive(Debug, Clone)]
    struct Epoch {
        neighbors: Vec<Vec<usize>>,
        active: Vec<bool>,
    }

    /// The compile the view replaced, kept as its reference model: one
    /// copy of the adjacency lists per change instant (an epoch), and one
    /// interval list per tracked pair, every base pair included.
    struct Reference {
        epoch_starts: Vec<f64>,
        epochs: Vec<Epoch>,
        changes: Vec<EdgeChange>,
        tracked: Vec<(usize, usize)>,
        intervals: Vec<Vec<(f64, f64)>>,
        churned: Vec<bool>,
    }

    impl Reference {
        #[allow(clippy::too_many_lines)]
        fn new(base: &Topology, schedule: &ChurnSchedule) -> Self {
            let n = base.len();
            let mut tracked_set = std::collections::BTreeSet::new();
            for i in 0..n {
                for &j in base.neighbors_of(i) {
                    if i < j {
                        tracked_set.insert((i, j));
                    }
                }
            }
            for event in schedule.events() {
                if let ChurnKind::EdgeUp { a, b } | ChurnKind::EdgeDown { a, b } = event.kind {
                    tracked_set.insert((a.min(b), a.max(b)));
                }
            }
            let tracked: Vec<(usize, usize)> = tracked_set.into_iter().collect();
            let m = tracked.len();
            let pair_idx =
                |a: usize, b: usize| tracked.binary_search(&(a.min(b), a.max(b))).unwrap();
            let mut edge_state: Vec<bool> = tracked
                .iter()
                .map(|&(a, b)| base.neighbors_of(a).contains(&b))
                .collect();
            let mut active = vec![true; n];
            let compute_live = |edge_state: &[bool], active: &[bool]| -> Vec<bool> {
                (0..m)
                    .map(|k| edge_state[k] && active[tracked[k].0] && active[tracked[k].1])
                    .collect()
            };
            let make_epoch = |live: &[bool], active: &[bool]| -> Epoch {
                let mut neighbors = vec![Vec::new(); n];
                for (k, &(a, b)) in tracked.iter().enumerate() {
                    if live[k] {
                        neighbors[a].push(b);
                        neighbors[b].push(a);
                    }
                }
                Epoch {
                    neighbors,
                    active: active.to_vec(),
                }
            };
            let initial_intervals = |live: &[bool]| -> Vec<Vec<(f64, f64)>> {
                live.iter()
                    .map(|&up| if up { FOREVER.to_vec() } else { Vec::new() })
                    .collect()
            };
            let mut live = compute_live(&edge_state, &active);
            let mut intervals = initial_intervals(&live);
            let mut epoch_starts = vec![0.0];
            let mut epochs = vec![make_epoch(&live, &active)];
            let mut changes = Vec::new();
            let events = schedule.events();
            let mut k = 0;
            while k < events.len() {
                let t = events[k].time;
                while k < events.len() && events[k].time == t {
                    match events[k].kind {
                        ChurnKind::EdgeUp { a, b } => edge_state[pair_idx(a, b)] = true,
                        ChurnKind::EdgeDown { a, b } => edge_state[pair_idx(a, b)] = false,
                        ChurnKind::NodeJoin { node } => active[node] = true,
                        ChurnKind::NodeLeave { node } => active[node] = false,
                    }
                    k += 1;
                }
                let next_live = compute_live(&edge_state, &active);
                if t == 0.0 {
                    live = next_live;
                    intervals = initial_intervals(&live);
                    epochs[0] = make_epoch(&live, &active);
                    continue;
                }
                let first_change = changes.len();
                for (idx, (&was, &is)) in live.iter().zip(next_live.iter()).enumerate() {
                    if was != is {
                        let (a, b) = tracked[idx];
                        changes.push(EdgeChange {
                            time: t,
                            a,
                            b,
                            up: is,
                        });
                        if is {
                            intervals[idx].push((t, f64::INFINITY));
                        } else {
                            intervals[idx].last_mut().unwrap().1 = t;
                        }
                    }
                }
                let last = epochs.last().unwrap();
                live = next_live;
                if changes.len() > first_change || last.active != active {
                    // Each epoch is a full copy of the one before, with
                    // this instant's flips applied in place.
                    let mut neighbors = last.neighbors.clone();
                    for change in &changes[first_change..] {
                        for (node, peer) in [(change.a, change.b), (change.b, change.a)] {
                            let list = &mut neighbors[node];
                            match list.binary_search(&peer) {
                                Err(pos) if change.up => list.insert(pos, peer),
                                Ok(pos) if !change.up => drop(list.remove(pos)),
                                _ => unreachable!("a flip changes the last epoch's live set"),
                            }
                        }
                    }
                    epoch_starts.push(t);
                    epochs.push(Epoch {
                        neighbors,
                        active: active.clone(),
                    });
                }
            }
            let mut churned = vec![false; n];
            for (&(a, b), history) in tracked.iter().zip(&intervals) {
                if history.as_slice() != FOREVER {
                    churned[a] = true;
                    churned[b] = true;
                }
            }
            Self {
                epoch_starts,
                epochs,
                changes,
                tracked,
                intervals,
                churned,
            }
        }

        fn epoch_at(&self, t: f64) -> &Epoch {
            let idx = self.epoch_starts.partition_point(|&s| s <= t);
            &self.epochs[idx.saturating_sub(1)]
        }

        fn link_formed_at(&self, a: usize, b: usize, t: f64) -> Option<f64> {
            let idx = self.tracked.binary_search(&(a.min(b), a.max(b))).ok()?;
            let history = &self.intervals[idx];
            let pos = history
                .partition_point(|&(start, _)| start <= t)
                .checked_sub(1)?;
            let (start, end) = history[pos];
            (t < end).then_some(start)
        }

        fn link_interrupted(&self, a: usize, b: usize, t0: f64, t1: f64) -> bool {
            self.tracked.binary_search(&(a.min(b), a.max(b))).is_ok()
                && self
                    .link_formed_at(a, b, t1)
                    .is_none_or(|formed| formed > t0)
        }

        fn live_edges_at(&self, t: f64) -> Vec<(usize, usize)> {
            let epoch = self.epoch_at(t);
            (0..epoch.neighbors.len())
                .flat_map(|a| epoch.neighbors[a].iter().map(move |&b| (a, b)))
                .filter(|&(a, b)| a < b)
                .collect()
        }
    }

    #[test]
    fn the_view_agrees_with_the_epoch_reference() {
        let mut rng = StdRng::seed_from_u64(0x0C4A);
        let (mut changes, mut instants, mut folded) = (0, 0, 0);
        for case in 0..500u64 {
            let n = rng.random_range(3..=9usize);
            let base = match case % 5 {
                0 => Topology::line(n),
                1 => Topology::ring(n),
                2 => Topology::star(n),
                3 => Topology::grid(rng.random_range(1..=3), rng.random_range(2..=3)),
                _ => Topology::random_geometric(n, 10.0, 2.5, case),
            };
            let n = base.len();
            let schedule = random_schedule(&mut rng, n);
            let reference = Reference::new(&base, &schedule);
            let view = DynamicTopology::new(base, schedule).unwrap();
            assert_eq!(view.edge_changes(), reference.changes, "case {case}");
            assert_eq!(view.is_static(), reference.changes.is_empty());
            assert_eq!(view.churned, reference.churned, "case {case}");
            assert_eq!(view.instants + 1, reference.epochs.len(), "case {case}");
            changes += reference.changes.len();
            instants += view.instants;
            folded += usize::from(view.schedule().events().iter().any(|e| e.time == 0.0));
            // Half-grid instants land before, on, between and past the
            // churn times.
            for step in 0..=20u32 {
                let t = f64::from(step) * 1.25 - 1.25;
                let what = format!("case {case} at {t} in {view}");
                assert_eq!(view.live_edges_at(t), reference.live_edges_at(t), "{what}");
                for a in 0..n {
                    let epoch = reference.epoch_at(t);
                    assert_eq!(view.neighbors_at(a, t), epoch.neighbors[a], "{what}: {a}");
                    assert_eq!(view.active_at(a, t), epoch.active[a], "{what}: {a}");
                    for b in (0..n).filter(|&b| b != a) {
                        let tracked = reference.tracked.contains(&(a.min(b), a.max(b)));
                        assert_eq!(view.link_tracked(a, b), tracked, "{what}: ({a}, {b})");
                        let formed = view.link_formed_at(a, b, t);
                        assert_eq!(formed, reference.link_formed_at(a, b, t), "{what}");
                        for t1 in [t, t + 1.25, t + 5.0] {
                            let lost = view.link_interrupted(a, b, t, t1);
                            assert_eq!(lost, reference.link_interrupted(a, b, t, t1), "{what}");
                        }
                    }
                }
            }
        }
        // The generator reaches changes, about two change instants per
        // schedule and time-zero folds.
        assert!(
            changes > 1000 && instants > 800 && folded > 100,
            "{changes} {instants} {folded}"
        );
    }

    #[test]
    fn static_view_matches_base_neighbors() {
        let d = DynamicTopology::static_view(Topology::line(4));
        assert!(d.is_static());
        for t in [0.0, 5.0, 1e6] {
            assert_eq!(d.neighbors_at(1, t), &[0, 2]);
            assert!(d.link_up_at(0, 1, t));
            assert!(!d.link_up_at(0, 2, t));
        }
        assert_eq!(d.link_formed_at(0, 1, 3.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn flap_toggles_the_live_set() {
        let churn = ChurnSchedule::periodic_flap(0, 1, 10.0, 35.0);
        let d = DynamicTopology::new(Topology::ring(4), churn).unwrap();
        assert!(d.link_up_at(0, 1, 9.9));
        assert!(!d.link_up_at(0, 1, 10.0)); // change applies at its instant
        assert!(!d.link_up_at(0, 1, 19.9));
        assert!(d.link_up_at(0, 1, 20.0));
        assert_eq!(d.neighbors_at(0, 15.0), &[3]);
        assert_eq!(d.neighbors_at(0, 25.0), &[1, 3]);
    }

    #[test]
    fn formation_time_tracks_latest_up_interval() {
        let churn = ChurnSchedule::periodic_flap(0, 1, 10.0, 55.0);
        let d = DynamicTopology::new(Topology::ring(4), churn).unwrap();
        assert_eq!(d.link_formed_at(0, 1, 5.0), Some(f64::NEG_INFINITY));
        assert_eq!(d.link_formed_at(0, 1, 15.0), None);
        assert_eq!(d.link_formed_at(0, 1, 25.0), Some(20.0));
        assert_eq!(d.link_formed_at(0, 1, 45.0), Some(40.0));
        // An edge untouched by churn stays stable throughout.
        assert_eq!(d.link_formed_at(2, 3, 45.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn link_uninterrupted_is_the_delivery_condition() {
        let churn = ChurnSchedule::periodic_flap(0, 1, 10.0, 35.0);
        let d = DynamicTopology::new(Topology::ring(4), churn).unwrap();
        assert!(d.link_uninterrupted(0, 1, 5.0, 9.0)); // fully inside up
        assert!(!d.link_uninterrupted(0, 1, 9.0, 11.0)); // down at arrival
        assert!(!d.link_uninterrupted(0, 1, 9.0, 21.0)); // re-formed after send
        assert!(d.link_uninterrupted(0, 1, 20.5, 21.0)); // inside new interval
    }

    /// A random schedule over `n` nodes: edge toggles on arbitrary pairs
    /// (base edges or not), node leaves and joins, a share of them at
    /// time zero, times drawn from a small grid so instants collide.
    fn random_schedule(rng: &mut StdRng, n: usize) -> ChurnSchedule {
        let events = (0..rng.random_range(0..=12usize))
            .map(|_| {
                let a = rng.random_range(0..n);
                let b = (a + rng.random_range(1..n)) % n;
                let kind = match rng.random_range(0..6u32) {
                    0 | 1 => ChurnKind::EdgeDown { a, b },
                    2 | 3 => ChurnKind::EdgeUp { a, b },
                    4 => ChurnKind::NodeLeave { node: a },
                    _ => ChurnKind::NodeJoin { node: a },
                };
                let time = f64::from(rng.random_range(0..=8u32)) * 2.5;
                ChurnEvent { time, kind }
            })
            .collect();
        ChurnSchedule::new(events)
    }

    #[test]
    fn link_interrupted_is_tracked_and_not_uninterrupted() {
        let mut rng = StdRng::seed_from_u64(0x11A7);
        let (mut hits, mut shortcuts, mut searched) = (0, 0, 0);
        for case in 0..300 {
            let n = rng.random_range(3..=9usize);
            let base = match case % 3 {
                0 => Topology::line(n),
                1 => Topology::ring(n),
                _ => Topology::star(n),
            };
            let d = DynamicTopology::new(base, random_schedule(&mut rng, n)).unwrap();
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    for _ in 0..6 {
                        // Half-grid instants land on, between and past
                        // the churn times.
                        let t0 = f64::from(rng.random_range(0..=20u32)) * 1.25;
                        let t1 = t0 + f64::from(rng.random_range(0..=8u32)) * 1.25;
                        let expected = d.link_tracked(a, b) && !d.link_uninterrupted(a, b, t0, t1);
                        assert_eq!(
                            d.link_interrupted(a, b, t0, t1),
                            expected,
                            "case {case}: pair ({a}, {b}) over ({t0}, {t1}] in {d}"
                        );
                        hits += usize::from(expected);
                        if d.churned[a] && d.churned[b] {
                            searched += 1;
                        } else {
                            shortcuts += 1;
                        }
                    }
                }
            }
        }
        // The generator reaches both answers and both code paths.
        assert!(hits > 1000, "interrupted answers: {hits}");
        assert!(
            shortcuts > 1000 && searched > 1000,
            "{shortcuts} / {searched}"
        );
    }

    #[test]
    fn epoch_neighbor_lists_match_the_link_histories() {
        // Neighbor lists merge the base lists with the touched pairs'
        // histories; link queries read one pair's history, so the two must
        // describe the same graph at every instant.
        let mut rng = StdRng::seed_from_u64(0xE90C);
        for case in 0..200 {
            let n = rng.random_range(3..=9usize);
            let base = if case % 2 == 0 {
                Topology::ring(n)
            } else {
                Topology::star(n)
            };
            let d = DynamicTopology::new(base, random_schedule(&mut rng, n)).unwrap();
            for step in 0..=18u32 {
                let t = f64::from(step) * 1.25;
                for i in 0..n {
                    let expected: Vec<usize> = (0..n)
                        .filter(|&j| j != i && d.link_up_at(i, j, t))
                        .collect();
                    assert_eq!(
                        d.neighbors_at(i, t),
                        expected,
                        "case {case}: node {i} at {t} in {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_endpoints_of_changed_links_are_flagged() {
        // One flapping ring edge and one inserted chord that never comes
        // up: their endpoints are flagged, the rest of the ring is not.
        let churn = ChurnSchedule::periodic_flap(0, 1, 10.0, 35.0).merge(ChurnSchedule::new(vec![
            ChurnEvent {
                time: 5.0,
                kind: ChurnKind::EdgeDown { a: 3, b: 5 },
            },
        ]));
        let d = DynamicTopology::new(Topology::ring(8), churn).unwrap();
        assert_eq!(
            d.churned,
            [true, true, false, true, false, true, false, false]
        );
        assert!(d.link_interrupted(0, 1, 9.0, 11.0));
        assert!(d.link_interrupted(3, 5, 1.0, 2.0), "tracked, never up");
        assert!(
            !d.link_interrupted(1, 3, 1.0, 50.0),
            "untracked, both flagged"
        );
        assert!(!d.link_interrupted(6, 7, 1.0, 50.0), "tracked, up forever");
        assert!(DynamicTopology::static_view(Topology::ring(8))
            .churned
            .iter()
            .all(|&c| !c));
    }

    #[test]
    fn node_leave_downs_incident_edges_and_rejoin_restores() {
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 10.0,
                kind: ChurnKind::NodeLeave { node: 1 },
            },
            ChurnEvent {
                time: 20.0,
                kind: ChurnKind::NodeJoin { node: 1 },
            },
        ]);
        let d = DynamicTopology::new(Topology::line(3), churn).unwrap();
        assert!(d.active_at(1, 5.0));
        assert!(!d.active_at(1, 15.0));
        assert_eq!(d.neighbors_at(1, 15.0), &[] as &[usize]);
        assert_eq!(d.neighbors_at(0, 15.0), &[] as &[usize]);
        assert_eq!(d.neighbors_at(1, 25.0), &[0, 2]);
        // Restored edges count as newly formed at the join time.
        assert_eq!(d.link_formed_at(0, 1, 25.0), Some(20.0));
    }

    #[test]
    fn activity_flips_survive_even_without_edge_changes() {
        // Node 1 is already isolated (both incident edges down) when it
        // leaves: the live-edge set does not move, but active_at must
        // still flip.
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 5.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            },
            ChurnEvent {
                time: 5.0,
                kind: ChurnKind::EdgeDown { a: 1, b: 2 },
            },
            ChurnEvent {
                time: 10.0,
                kind: ChurnKind::NodeLeave { node: 1 },
            },
        ]);
        let d = DynamicTopology::new(Topology::line(3), churn).unwrap();
        assert!(d.active_at(1, 7.0));
        assert!(!d.active_at(1, 15.0));
        assert!(d.edge_changes().iter().all(|c| c.time == 5.0));
    }

    #[test]
    fn tracked_links_are_base_edges_plus_churned_pairs() {
        let churn = ChurnSchedule::new(vec![ChurnEvent {
            time: 5.0,
            kind: ChurnKind::EdgeUp { a: 0, b: 2 },
        }]);
        let d = DynamicTopology::new(Topology::line(4), churn).unwrap();
        assert!(d.link_tracked(0, 1)); // base edge
        assert!(d.link_tracked(2, 0)); // churned pair (symmetric)
        assert!(!d.link_tracked(0, 3)); // neither
        assert!(!d.link_tracked(1, 3));
    }

    #[test]
    fn churn_can_insert_non_base_edges() {
        let churn = ChurnSchedule::new(vec![ChurnEvent {
            time: 5.0,
            kind: ChurnKind::EdgeUp { a: 0, b: 2 },
        }]);
        let d = DynamicTopology::new(Topology::line(3), churn).unwrap();
        assert!(!d.link_up_at(0, 2, 4.0));
        assert!(d.link_up_at(0, 2, 6.0));
        assert_eq!(d.neighbors_at(0, 6.0), &[1, 2]);
    }

    #[test]
    fn redundant_events_produce_no_changes() {
        // Downing an edge that is already down is a no-op.
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 5.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            },
            ChurnEvent {
                time: 7.0,
                kind: ChurnKind::EdgeDown { a: 0, b: 1 },
            },
        ]);
        let d = DynamicTopology::new(Topology::line(3), churn).unwrap();
        assert_eq!(d.edge_changes().len(), 1);
        assert_eq!(
            d.edge_changes()[0],
            EdgeChange {
                time: 5.0,
                a: 0,
                b: 1,
                up: false
            }
        );
    }

    #[test]
    fn same_instant_events_collapse_into_one_epoch() {
        let churn = ChurnSchedule::partition_and_heal(&[(0, 1), (1, 2)], 10.0, 20.0);
        let d = DynamicTopology::new(Topology::line(3), churn).unwrap();
        assert_eq!(d.edge_changes().len(), 4);
        assert_eq!(d.neighbors_at(1, 15.0), &[] as &[usize]);
        assert_eq!(d.neighbors_at(1, 25.0), &[0, 2]);
    }

    #[test]
    fn errors_on_bad_indices() {
        let churn = ChurnSchedule::new(vec![ChurnEvent {
            time: 1.0,
            kind: ChurnKind::EdgeUp { a: 0, b: 9 },
        }]);
        assert_eq!(
            DynamicTopology::new(Topology::line(3), churn).unwrap_err(),
            DynamicTopologyError::NodeOutOfRange { node: 9, n: 3 }
        );
        let churn = ChurnSchedule::new(vec![ChurnEvent {
            time: 1.0,
            kind: ChurnKind::EdgeDown { a: 2, b: 2 },
        }]);
        assert_eq!(
            DynamicTopology::new(Topology::line(3), churn).unwrap_err(),
            DynamicTopologyError::SelfLoop { node: 2 }
        );
    }

    #[test]
    fn growing_network_starts_small() {
        let churn = ChurnSchedule::growing_network(5, 2, 10.0);
        let d = DynamicTopology::new(Topology::line(5), churn).unwrap();
        assert_eq!(d.live_edges_at(0.0), vec![(0, 1)]);
        assert_eq!(d.live_edges_at(10.0), vec![(0, 1), (1, 2)]);
        assert_eq!(d.live_edges_at(30.0), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn display_summarizes() {
        let d = DynamicTopology::static_view(Topology::line(3));
        assert!(format!("{d}").contains("3 nodes"));
    }

    #[test]
    fn retimed_view_shifts_formation_times() {
        let churn = ChurnSchedule::periodic_flap(0, 1, 10.0, 35.0);
        let d = DynamicTopology::new(Topology::ring(4), churn).unwrap();
        let warped = d.retimed(|t| t / 2.0);
        // down@10, up@20 become down@5, up@10.
        assert!(warped.link_up_at(0, 1, 4.9));
        assert!(!warped.link_up_at(0, 1, 5.0));
        assert_eq!(warped.link_formed_at(0, 1, 12.0), Some(10.0));
        assert_eq!(warped.base().len(), d.base().len());
        // Untouched edges keep their always-up history.
        assert_eq!(warped.link_formed_at(2, 3, 12.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn scales_to_thousands_of_nodes_with_sparse_history() {
        // With dense per-epoch snapshots this was O(epochs · n²) — at
        // n = 2000 and ~100 epochs, tens of gigabytes. Per-edge interval
        // lists make it proportional to the churn instead.
        let n = 2000;
        let mut events = Vec::new();
        for k in 0..100u32 {
            // Down/up the same edge in consecutive events so every event
            // is a real live-set change (redundant ones are elided).
            let a = (k as usize / 2 * 13) % (n - 1);
            let t = f64::from(k + 1);
            events.push(ChurnEvent {
                time: t,
                kind: if k % 2 == 0 {
                    ChurnKind::EdgeDown { a, b: a + 1 }
                } else {
                    ChurnKind::EdgeUp { a, b: a + 1 }
                },
            });
        }
        let d = DynamicTopology::new(Topology::line(n), ChurnSchedule::new(events)).unwrap();
        assert_eq!(d.len(), n);
        assert!(d.link_up_at(500, 501, 0.5));
        assert!(d.link_tracked(0, 1));
        assert!(!d.link_tracked(0, 2));
        // The first downed edge: (0, 1) at t = 1.
        assert!(!d.link_up_at(0, 1, 1.0));
        assert_eq!(d.edge_changes().len(), 100);
    }
}
