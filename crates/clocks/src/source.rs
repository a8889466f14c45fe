//! Clock sources: how a simulation reads hardware clocks.
//!
//! The engine in `gcs-sim` converts between real time and hardware time
//! through exactly three queries — "rate of node `i` at time `t`", the
//! integral `H_i(t)`, and its inverse. [`ClockSource`] abstracts those
//! queries so that the *representation* of the per-node rate functions is
//! the source's business:
//!
//! - [`EagerSchedule`] wraps today's precomputed `Vec<RateSchedule>` —
//!   the right choice for recorded runs, goldens, and the adversarial
//!   lower-bound constructions, whose schedules are data. When every
//!   node's rate is constant it reads from one flat `Vec` of rates (one
//!   load per query where the per-schedule path is a binary search and
//!   two loads into per-node allocations), and its storage is shared by
//!   reference count, so a sharded run's per-shard forks cost nothing.
//! - [`LazyDriftSource`] regenerates a bounded random walk (the
//!   [`DriftModel`] walk) *windowed on demand*: segments materialize only
//!   as the run's probe/event frontier reaches them, and
//!   [`ClockSource::compact_before`] drops segments behind the frontier.
//!   Long-horizon streaming runs therefore hold O(live window) schedule
//!   segments instead of O(horizon) — matching the paper's model, where
//!   hardware clocks are rate functions queried online, not tables
//!   precomputed to a fixed horizon (executions in the dynamic-network
//!   setting have no final horizon at all).
//!
//! Laziness is *observationally invisible*: for every `(seed, node)` the
//! lazy walk reproduces [`DriftModel::generate`] segment-for-segment and
//! bit-for-bit — same breakpoint times, same rates, same accumulated
//! hardware values — so a run driven from a [`LazyDriftSource`]
//! fingerprints identically to the same run driven from the eager
//! schedules. The conformance suite pins this.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::drift::DriftModel;
use crate::RateSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A queryable set of per-node hardware clocks.
///
/// All methods take `&self`: sources that materialize state on demand
/// (like [`LazyDriftSource`]) use interior mutability, which lets the
/// engine hand out read-only probe views backed by a live source.
///
/// # Contract
///
/// For a fixed node, `value_at` must be the exact integral of `rate_at`
/// from time 0 and `time_at_value` its exact inverse — the same
/// bit-stability contract [`RateSchedule`] documents. Queries are only
/// required to succeed at or after the most recent
/// [`ClockSource::compact_before`] time; a compacting source may panic on
/// queries behind that frontier.
pub trait ClockSource {
    /// The number of nodes this source covers.
    fn node_count(&self) -> usize;

    /// The rate `h_i(t)` of node `node` at real time `t ≥ 0`
    /// (right-continuous at breakpoints).
    fn rate_at(&self, node: usize, t: f64) -> f64;

    /// The hardware clock value `H_i(t)` of node `node` at real time
    /// `t ≥ 0`.
    fn value_at(&self, node: usize, t: f64) -> f64;

    /// The real time at which node `node`'s hardware clock reaches
    /// `value ≥ 0` — the exact inverse of [`ClockSource::value_at`].
    fn time_at_value(&self, node: usize, value: f64) -> f64;

    /// Declares that no query will ever again ask about a time strictly
    /// before `t`; a windowing source drops the segments it no longer
    /// needs. The default does nothing (eager sources keep everything).
    fn compact_before(&self, t: f64) {
        let _ = t;
    }

    /// The total number of schedule segments currently held in memory
    /// across all nodes — the counter a flat-memory assertion checks.
    fn live_segments(&self) -> usize;

    /// Materializes the per-node schedules on `[0, horizon]` as plain
    /// [`RateSchedule`]s, bit-identical to what an eager construction
    /// would have produced. Eager sources return their schedules as-is
    /// (untruncated, so recorded executions keep today's exact bytes);
    /// lazy sources regenerate the prefix from the seed.
    fn materialize_prefix(&self, horizon: f64) -> Vec<RateSchedule>;

    /// Returns the first node whose clock is detectably non-finite, for
    /// build-time validation (`None`: nothing wrong was found). The
    /// default probes each node's rate and value at time 0; sources with
    /// materialized segments (like [`EagerSchedule`]) override it to
    /// scan every segment they hold. A lazily-generated source cannot be
    /// scanned exhaustively up front, so `None` is a best-effort verdict,
    /// not a proof.
    fn find_non_finite(&self) -> Option<usize> {
        (0..self.node_count())
            .find(|&i| !self.rate_at(i, 0.0).is_finite() || !self.value_at(i, 0.0).is_finite())
    }

    /// An independent, sendable copy of this source answering every query
    /// bit-identically to a fresh instance of `self` — the handle a
    /// sharded engine gives each worker thread so shards can query clocks
    /// without sharing interior mutability. Lazy sources reconstruct from
    /// their seed rather than copying materialized state, so the fork's
    /// compaction frontier starts at zero regardless of the parent's.
    /// The default returns `None`: the source cannot be forked and the
    /// sharded path must refuse the run.
    fn fork(&self) -> Option<Box<dyn ClockSource + Send>> {
        None
    }
}

impl<S: ClockSource + ?Sized> ClockSource for &S {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn rate_at(&self, node: usize, t: f64) -> f64 {
        (**self).rate_at(node, t)
    }

    fn value_at(&self, node: usize, t: f64) -> f64 {
        (**self).value_at(node, t)
    }

    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        (**self).time_at_value(node, value)
    }

    fn compact_before(&self, t: f64) {
        (**self).compact_before(t);
    }

    fn live_segments(&self) -> usize {
        (**self).live_segments()
    }

    fn materialize_prefix(&self, horizon: f64) -> Vec<RateSchedule> {
        (**self).materialize_prefix(horizon)
    }

    fn find_non_finite(&self) -> Option<usize> {
        (**self).find_non_finite()
    }

    fn fork(&self) -> Option<Box<dyn ClockSource + Send>> {
        (**self).fork()
    }
}

impl ClockSource for [RateSchedule] {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn rate_at(&self, node: usize, t: f64) -> f64 {
        self[node].rate_at(t)
    }

    fn value_at(&self, node: usize, t: f64) -> f64 {
        self[node].value_at(t)
    }

    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        self[node].time_at_value(value)
    }

    fn live_segments(&self) -> usize {
        self.iter().map(|s| s.segments().len()).sum()
    }

    fn materialize_prefix(&self, _horizon: f64) -> Vec<RateSchedule> {
        self.to_vec()
    }

    fn find_non_finite(&self) -> Option<usize> {
        self.iter().position(|s| {
            s.segments()
                .iter()
                .any(|&(t, r)| !t.is_finite() || !r.is_finite())
        })
    }

    fn fork(&self) -> Option<Box<dyn ClockSource + Send>> {
        Some(Box::new(EagerSchedule::new(self.to_vec())))
    }
}

/// Where every single-segment [`RateSchedule`] starts: real time 0 with
/// hardware value 0. The flat read path spells both out so its float
/// expressions keep the shape of [`RateSchedule::value_at`] and
/// [`RateSchedule::time_at_value`] (`0.0 + x` is not `x` at `-0.0`).
const FLAT_START: f64 = 0.0;
const FLAT_VALUE_AT_START: f64 = 0.0;

/// The eager [`ClockSource`]: a precomputed [`RateSchedule`] per node.
///
/// This is exactly the representation the engine used before clock
/// sources existed; wrapping a schedule vector in an `EagerSchedule`
/// changes nothing observable about a run.
///
/// When every schedule is a single segment (constant-rate clocks, the
/// large-network case), queries are answered from one flat vector of
/// rates, bit-identically to the per-schedule path. Schedules and rates
/// sit behind [`Arc`]s, so a clone or [`ClockSource::fork`] is two
/// reference counts whatever the node count.
#[derive(Debug, Clone, PartialEq)]
pub struct EagerSchedule {
    schedules: Arc<Vec<RateSchedule>>,
    /// Node `i`'s constant rate, present iff every schedule has exactly
    /// one segment.
    flat_rates: Option<Arc<[f64]>>,
}

impl EagerSchedule {
    /// Wraps precomputed per-node schedules.
    #[must_use]
    pub fn new(schedules: Vec<RateSchedule>) -> Self {
        let flat_rates = schedules
            .iter()
            .all(|s| s.segments().len() == 1)
            .then(|| schedules.iter().map(|s| s.segments()[0].1).collect());
        Self {
            schedules: Arc::new(schedules),
            flat_rates,
        }
    }

    /// The wrapped schedules.
    #[must_use]
    pub fn schedules(&self) -> &[RateSchedule] {
        &self.schedules
    }
}

impl From<Vec<RateSchedule>> for EagerSchedule {
    fn from(schedules: Vec<RateSchedule>) -> Self {
        Self::new(schedules)
    }
}

impl ClockSource for EagerSchedule {
    fn node_count(&self) -> usize {
        self.schedules.len()
    }

    fn rate_at(&self, node: usize, t: f64) -> f64 {
        match &self.flat_rates {
            Some(rates) => {
                assert!(t >= 0.0, "schedules are defined on t >= 0, got {t}");
                rates[node]
            }
            None => self.schedules[node].rate_at(t),
        }
    }

    fn value_at(&self, node: usize, t: f64) -> f64 {
        match &self.flat_rates {
            Some(rates) => {
                assert!(t >= 0.0, "schedules are defined on t >= 0, got {t}");
                FLAT_VALUE_AT_START + rates[node] * (t - FLAT_START)
            }
            None => self.schedules[node].value_at(t),
        }
    }

    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        match &self.flat_rates {
            Some(rates) => {
                assert!(
                    value >= 0.0,
                    "hardware clock values are nonnegative: {value}"
                );
                FLAT_START + (value - FLAT_VALUE_AT_START) / rates[node]
            }
            None => self.schedules[node].time_at_value(value),
        }
    }

    fn live_segments(&self) -> usize {
        match &self.flat_rates {
            Some(rates) => rates.len(),
            None => self.schedules.as_slice().live_segments(),
        }
    }

    fn materialize_prefix(&self, _horizon: f64) -> Vec<RateSchedule> {
        self.schedules.to_vec()
    }

    fn find_non_finite(&self) -> Option<usize> {
        self.schedules.as_slice().find_non_finite()
    }

    fn fork(&self) -> Option<Box<dyn ClockSource + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// One node's in-flight random walk: the retained segment window plus the
/// generator state needed to extend it.
#[derive(Debug, Clone)]
struct NodeWalk {
    /// RNG positioned to draw the *next* step's perturbation. Continuing
    /// this stream reproduces the eager generator's stream exactly (the
    /// eager walk draws the initial rate, then one delta per step, from
    /// one seeded generator).
    rng: StdRng,
    /// Retained `(start_time, rate)` segments, oldest first. Segment `k`
    /// covers `[segs[k].0, segs[k+1].0)`; the last covers up to
    /// `next_t`.
    segs: VecDeque<(f64, f64)>,
    /// Hardware value at each retained segment start (parallel to
    /// `segs`). Accumulated exactly like `RateScheduleBuilder::build`,
    /// never recomputed — compaction cannot perturb a single bit.
    vals: VecDeque<f64>,
    /// Start time of the next (not yet generated) segment. Accumulated
    /// as `step + step + …`, the eager generator's exact sequence.
    next_t: f64,
    /// Zero-based index of the next window to generate.
    next_window: u64,
    /// `true` once the walk reached its horizon: no further segments
    /// are generated, and the last rate extrapolates to infinity —
    /// exactly how a [`RateSchedule`] built by [`DriftModel::generate`]
    /// behaves beyond its last breakpoint.
    done: bool,
}

/// A [`ClockSource`] that regenerates [`DriftModel`] bounded-random-walk
/// schedules lazily, in windows, dropping segments behind the compaction
/// frontier.
///
/// Node `i`'s walk is seeded exactly like
/// [`DriftModel::generate_network`] seeds it from the same `base_seed`,
/// and window `w` of node `i` is a pure function of
/// `(base_seed, i, w)` given the model — windows materialize in order as
/// queries reach them, so the walk is deterministic and bit-identical to
/// the eager generator no matter how the run interleaves its queries.
///
/// # Examples
///
/// ```
/// use gcs_clocks::{drift::DriftModel, ClockSource, DriftBound, LazyDriftSource};
///
/// let model = DriftModel::new(DriftBound::new(0.01).unwrap(), 10.0, 0.002);
/// let lazy = LazyDriftSource::new(model, 42, 3);
/// let eager = model.generate_network(42, 3, 500.0);
/// for t in [0.0, 3.7, 99.5, 499.0] {
///     assert_eq!(lazy.value_at(1, t).to_bits(), eager[1].value_at(t).to_bits());
/// }
/// // Behind the probe frontier, segments are dropped.
/// lazy.compact_before(400.0);
/// assert!(lazy.live_segments() < 3 * 20);
/// ```
#[derive(Debug)]
pub struct LazyDriftSource {
    model: DriftModel,
    base_seed: u64,
    window_len: u64,
    /// Where the walk stops re-sampling (`None`: never). With
    /// `Some(h)` the source is everywhere bit-identical to
    /// `model.generate(seed, h)` — including the constant-rate
    /// extrapolation beyond `h` that queries past the horizon (e.g.
    /// the recorded `arrival_hw` of a message still in flight at the
    /// end of a run) observe on an eager schedule.
    walk_horizon: Option<f64>,
    nodes: Vec<RefCell<NodeWalk>>,
}

impl LazyDriftSource {
    /// Number of walk steps generated per window by default.
    pub const DEFAULT_WINDOW_LEN: u64 = 64;

    /// A lazy source for `n` nodes whose walks reproduce
    /// `model.generate_network(base_seed, n, ·)` bit-for-bit.
    #[must_use]
    pub fn new(model: DriftModel, base_seed: u64, n: usize) -> Self {
        Self::with_window_len(model, base_seed, n, Self::DEFAULT_WINDOW_LEN)
    }

    /// As [`LazyDriftSource::new`], generating `window_len` walk steps
    /// per extension window.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    #[must_use]
    pub fn with_window_len(model: DriftModel, base_seed: u64, n: usize, window_len: u64) -> Self {
        assert!(window_len > 0, "window length must be positive");
        let nodes = (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(crate::drift::node_seed(base_seed, i));
                let lo = model.bound().min_rate();
                let hi = model.bound().max_rate();
                let rate = rng.random_range(lo..=hi);
                RefCell::new(NodeWalk {
                    rng,
                    segs: VecDeque::from([(0.0, rate)]),
                    vals: VecDeque::from([0.0]),
                    next_t: model.step(),
                    next_window: 0,
                    done: false,
                })
            })
            .collect();
        Self {
            model,
            base_seed,
            window_len,
            walk_horizon: None,
            nodes,
        }
    }

    /// Stops the walk from re-sampling at real time `horizon`, making
    /// this source bit-identical to
    /// `model.generate_network(base_seed, n, horizon)` *everywhere* —
    /// including the constant-rate extrapolation beyond `horizon` an
    /// eager schedule exhibits past its last breakpoint. Use this when a
    /// lazy run must reproduce an eagerly-scheduled run whose drift was
    /// generated to a fixed horizon (the `Scenario` random-walk
    /// semantics); leave unset for genuinely open-ended drift.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is finite and nonnegative, or if any
    /// window was already generated.
    #[must_use]
    pub fn with_walk_horizon(mut self, horizon: f64) -> Self {
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "walk horizon must be finite and nonnegative, got {horizon}"
        );
        assert!(
            self.nodes.iter().all(|c| c.borrow().next_window == 0),
            "set the walk horizon before the first query"
        );
        self.walk_horizon = Some(horizon);
        self
    }

    /// The walk's re-sampling horizon, if capped.
    #[must_use]
    pub fn walk_horizon(&self) -> Option<f64> {
        self.walk_horizon
    }

    /// The drift model whose walk this source regenerates.
    #[must_use]
    pub fn model(&self) -> DriftModel {
        self.model
    }

    /// The base seed (per-node seeds derive from it exactly as in
    /// [`DriftModel::generate_network`]).
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The index of the next window `node` would generate — how far the
    /// walk has been materialized, in windows of the configured length.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn next_window(&self, node: usize) -> u64 {
        self.nodes[node].borrow().next_window
    }

    /// Retained segments for `node` (for tests and footprint reporting).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn retained_segments(&self, node: usize) -> usize {
        self.nodes[node].borrow().segs.len()
    }

    /// Generates one window (`window_len` steps) of `node`'s walk,
    /// mirroring the eager generator's loop body exactly.
    fn extend_window(&self, walk: &mut NodeWalk) {
        let lo = self.model.bound().min_rate();
        let hi = self.model.bound().max_rate();
        let step = self.model.step();
        let max_step_change = self.model.max_step_change();
        for _ in 0..self.window_len {
            // Mirror the eager generator's `while t < horizon`: the walk
            // stops re-sampling at the horizon and the last segment's
            // rate extends to infinity.
            if self.walk_horizon.is_some_and(|h| walk.next_t >= h) {
                walk.done = true;
                break;
            }
            let &(last_t, last_rate) = walk.segs.back().expect("walk retains >= 1 segment");
            let &last_val = walk.vals.back().expect("parallel to segs");
            let delta = walk.rng.random_range(-max_step_change..=max_step_change);
            let rate = (last_rate + delta).clamp(lo, hi);
            // Accumulate the start value exactly as
            // `RateScheduleBuilder::build` does: acc += prev_rate · Δt.
            let val = last_val + last_rate * (walk.next_t - last_t);
            walk.segs.push_back((walk.next_t, rate));
            walk.vals.push_back(val);
            walk.next_t += step;
        }
        walk.next_window += 1;
    }

    /// Extends `node`'s walk until the segment containing real time `t`
    /// exists.
    fn cover_time(&self, walk: &mut NodeWalk, t: f64) {
        assert!(t >= 0.0, "schedules are defined on t >= 0, got {t}");
        while !walk.done && walk.next_t <= t {
            self.extend_window(walk);
        }
    }

    /// Extends `node`'s walk until the segment whose start value exceeds
    /// `value` exists (so the inverse lands in a generated segment).
    fn cover_value(&self, walk: &mut NodeWalk, value: f64) {
        assert!(
            value >= 0.0,
            "hardware clock values are nonnegative: {value}"
        );
        loop {
            if walk.done {
                return; // last segment's rate extrapolates to infinity
            }
            let &(last_t, last_rate) = walk.segs.back().expect("non-empty");
            let &last_val = walk.vals.back().expect("parallel");
            let next_boundary_val = last_val + last_rate * (walk.next_t - last_t);
            if next_boundary_val > value {
                return;
            }
            self.extend_window(walk);
        }
    }

    /// Index of the retained segment containing `t`. Mirrors
    /// `RateSchedule::segment_index` (same binary search, same
    /// tie-breaking), so lookups agree with the eager path bit-for-bit.
    fn segment_index(walk: &NodeWalk, t: f64) -> usize {
        let front = walk.segs.front().expect("non-empty").0;
        assert!(
            t >= front,
            "clock queried at t = {t}, behind the compaction frontier {front}"
        );
        match walk
            .segs
            .binary_search_by(|&(s, _)| s.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

impl ClockSource for LazyDriftSource {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn rate_at(&self, node: usize, t: f64) -> f64 {
        let mut walk = self.nodes[node].borrow_mut();
        self.cover_time(&mut walk, t);
        walk.segs[Self::segment_index(&walk, t)].1
    }

    fn value_at(&self, node: usize, t: f64) -> f64 {
        let mut walk = self.nodes[node].borrow_mut();
        self.cover_time(&mut walk, t);
        let i = Self::segment_index(&walk, t);
        let (start, rate) = walk.segs[i];
        walk.vals[i] + rate * (t - start)
    }

    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        let mut walk = self.nodes[node].borrow_mut();
        self.cover_value(&mut walk, value);
        // Mirror `RateSchedule::time_at_value`: last segment whose
        // starting value is <= value.
        let i = match walk
            .vals
            .binary_search_by(|v| v.partial_cmp(&value).expect("finite values"))
        {
            Ok(i) => i,
            Err(0) => {
                let front = walk.vals.front().expect("non-empty");
                assert!(
                    value >= *front,
                    "clock inverted at value = {value}, behind the compaction \
                     frontier value {front}"
                );
                0
            }
            Err(i) => i - 1,
        };
        let (start, rate) = walk.segs[i];
        start + (value - walk.vals[i]) / rate
    }

    fn compact_before(&self, t: f64) {
        for cell in &self.nodes {
            let mut walk = cell.borrow_mut();
            // Keep the segment containing `t` (and everything after it).
            while walk.segs.len() >= 2 && walk.segs[1].0 <= t {
                walk.segs.pop_front();
                walk.vals.pop_front();
            }
        }
    }

    fn live_segments(&self) -> usize {
        self.nodes.iter().map(|c| c.borrow().segs.len()).sum()
    }

    fn materialize_prefix(&self, horizon: f64) -> Vec<RateSchedule> {
        // Regenerate eagerly from the seed, bit-identical to the eager
        // construction of the same walk. A capped walk reproduces the
        // schedules an eager run would have carried — generated to the
        // walk horizon up front, however far the run was driven; an
        // uncapped walk materializes exactly the prefix the run touched.
        let cutoff = self.walk_horizon.unwrap_or(horizon);
        self.model
            .generate_network(self.base_seed, self.node_count(), cutoff)
    }

    fn fork(&self) -> Option<Box<dyn ClockSource + Send>> {
        // Reconstruct from the seed rather than copying walk state: the
        // fork regenerates every window from scratch, so it answers all
        // queries bit-identically to this source regardless of how far
        // this source has been driven or compacted.
        let fresh = Self::with_window_len(
            self.model,
            self.base_seed,
            self.node_count(),
            self.window_len,
        );
        Some(Box::new(match self.walk_horizon {
            Some(h) => fresh.with_walk_horizon(h),
            None => fresh,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriftBound;

    fn model() -> DriftModel {
        DriftModel::new(DriftBound::new(0.05).unwrap(), 5.0, 0.01)
    }

    fn eager(seed: u64, n: usize, horizon: f64) -> Vec<RateSchedule> {
        model().generate_network(seed, n, horizon)
    }

    #[test]
    fn forks_answer_bit_identically_to_their_parent() {
        // An eager fork is a copy; a lazy fork regenerates from the seed
        // even after the parent has been driven and compacted.
        let horizon = 100.0;
        let eager_src = EagerSchedule::new(eager(11, 3, horizon));
        let lazy = LazyDriftSource::new(model(), 11, 3).with_walk_horizon(horizon);
        // Drive the parent forward and compact, then fork.
        for node in 0..3 {
            let _ = lazy.value_at(node, 80.0);
        }
        lazy.compact_before(60.0);
        let eager_fork = eager_src.fork().expect("eager sources fork");
        let lazy_fork = lazy.fork().expect("lazy sources fork");
        for node in 0..3 {
            let mut t = 0.0;
            while t < horizon {
                assert_eq!(
                    eager_fork.value_at(node, t).to_bits(),
                    eager_src.value_at(node, t).to_bits()
                );
                assert_eq!(
                    lazy_fork.value_at(node, t).to_bits(),
                    eager_src.value_at(node, t).to_bits(),
                    "lazy fork diverged at node {node}, t {t}"
                );
                t += 3.1;
            }
        }
    }

    #[test]
    fn lazy_matches_eager_bit_for_bit() {
        let horizon = 333.0;
        let schedules = eager(9, 4, horizon);
        let lazy = LazyDriftSource::new(model(), 9, 4);
        for (node, schedule) in schedules.iter().enumerate() {
            let mut t = 0.0;
            while t < horizon {
                assert_eq!(
                    lazy.value_at(node, t).to_bits(),
                    schedule.value_at(t).to_bits(),
                    "value at node {node}, t {t}"
                );
                assert_eq!(
                    lazy.rate_at(node, t).to_bits(),
                    schedule.rate_at(t).to_bits(),
                    "rate at node {node}, t {t}"
                );
                let v = schedule.value_at(t);
                assert_eq!(
                    lazy.time_at_value(node, v).to_bits(),
                    schedule.time_at_value(v).to_bits(),
                    "inverse at node {node}, t {t}"
                );
                t += 1.37;
            }
        }
    }

    #[test]
    fn lazy_matches_eager_under_interleaved_queries() {
        // Out-of-order (but forward-window) query patterns must not
        // change a single bit: windows materialize on demand.
        let schedules = eager(3, 2, 500.0);
        let lazy = LazyDriftSource::with_window_len(model(), 3, 2, 4);
        for &t in &[450.0, 3.0, 222.2, 449.9, 0.0, 75.5] {
            for (node, schedule) in schedules.iter().enumerate() {
                assert_eq!(
                    lazy.value_at(node, t).to_bits(),
                    schedule.value_at(t).to_bits()
                );
            }
        }
    }

    #[test]
    fn windows_generate_on_demand_only() {
        let lazy = LazyDriftSource::with_window_len(model(), 1, 2, 8);
        assert_eq!(lazy.next_window(0), 0);
        // step = 5, window = 8 steps => 40 time units per window.
        let _ = lazy.value_at(0, 39.0);
        assert_eq!(lazy.next_window(0), 1);
        assert_eq!(lazy.next_window(1), 0, "node 1 untouched");
        let _ = lazy.value_at(0, 200.0);
        assert!(lazy.next_window(0) >= 5);
    }

    #[test]
    fn compaction_bounds_live_segments_and_preserves_queries() {
        let horizon = 10_000.0;
        let schedules = eager(7, 2, horizon);
        let lazy = LazyDriftSource::new(model(), 7, 2);
        let mut peak = 0;
        let mut t = 0.0;
        while t < horizon - 1.0 {
            let v = lazy.value_at(0, t);
            assert_eq!(v.to_bits(), schedules[0].value_at(t).to_bits());
            lazy.compact_before(t);
            peak = peak.max(lazy.live_segments());
            t += 10.0;
        }
        // With step 5 and window 64, the live window stays a few
        // windows wide per node — far below the 2000 segments the
        // horizon would cost eagerly.
        assert!(peak <= 2 * 3 * 64 + 4, "peak live segments: {peak}");
        assert!(lazy.live_segments() < 200);
    }

    #[test]
    fn value_accumulation_is_unperturbed_by_compaction() {
        let horizon = 2000.0;
        let schedules = eager(11, 1, horizon);
        let compacted = LazyDriftSource::new(model(), 11, 1);
        let mut t = 0.0;
        while t < horizon - 1.0 {
            compacted.compact_before(t);
            assert_eq!(
                compacted.value_at(0, t).to_bits(),
                schedules[0].value_at(t).to_bits(),
                "t = {t}"
            );
            t += 7.77;
        }
    }

    #[test]
    #[should_panic(expected = "behind the compaction frontier")]
    fn queries_behind_the_frontier_panic() {
        let lazy = LazyDriftSource::new(model(), 1, 1);
        let _ = lazy.value_at(0, 500.0);
        lazy.compact_before(400.0);
        let _ = lazy.value_at(0, 10.0);
    }

    #[test]
    fn materialize_prefix_equals_eager_generation() {
        let lazy = LazyDriftSource::new(model(), 21, 3);
        // Touch and compact, then materialize: the prefix regenerates
        // from the seed, unaffected by the source's live window.
        let _ = lazy.value_at(2, 750.0);
        lazy.compact_before(700.0);
        let materialized = lazy.materialize_prefix(300.0);
        let expected = eager(21, 3, 300.0);
        assert_eq!(materialized, expected);
    }

    #[test]
    fn eager_schedule_source_is_transparent() {
        let schedules = eager(5, 3, 100.0);
        let source = EagerSchedule::new(schedules.clone());
        assert_eq!(source.node_count(), 3);
        for t in [0.0, 17.3, 99.0] {
            for (node, schedule) in schedules.iter().enumerate() {
                assert_eq!(
                    source.value_at(node, t).to_bits(),
                    schedule.value_at(t).to_bits()
                );
                assert_eq!(
                    source.rate_at(node, t).to_bits(),
                    schedule.rate_at(t).to_bits()
                );
            }
        }
        // compact_before is a no-op for eager sources.
        source.compact_before(50.0);
        assert_eq!(source.value_at(0, 1.0), schedules[0].value_at(1.0));
        assert_eq!(source.materialize_prefix(42.0), schedules);
    }

    /// Random constant rates and query points, the signed zeros included.
    fn flat_cases(seed: u64, n: usize) -> (Vec<RateSchedule>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedules = (0..n)
            .map(|_| RateSchedule::constant(rng.random_range(0.5..=2.0)))
            .collect();
        let mut points = vec![0.0, -0.0, f64::MIN_POSITIVE, 1e300, f64::INFINITY];
        points.extend((0..200).map(|_| rng.random_range(0.0..=1e6)));
        (schedules, points)
    }

    /// Asserts two sources give the same bits for all three queries at
    /// every node and point.
    fn assert_same_answers<A, B>(a: &A, b: &B, points: &[f64])
    where
        A: ClockSource + ?Sized,
        B: ClockSource + ?Sized,
    {
        assert_eq!(a.node_count(), b.node_count());
        for node in 0..a.node_count() {
            for &x in points {
                assert_eq!(
                    a.value_at(node, x).to_bits(),
                    b.value_at(node, x).to_bits(),
                    "value_at, node {node}, t {x:?}"
                );
                assert_eq!(
                    a.time_at_value(node, x).to_bits(),
                    b.time_at_value(node, x).to_bits(),
                    "time_at_value, node {node}, value {x:?}"
                );
                assert_eq!(
                    a.rate_at(node, x).to_bits(),
                    b.rate_at(node, x).to_bits(),
                    "rate_at, node {node}, t {x:?}"
                );
            }
        }
    }

    #[test]
    fn flat_path_matches_per_schedule_path_bit_for_bit() {
        for seed in 0..8 {
            let (schedules, points) = flat_cases(seed, 17);
            let source = EagerSchedule::new(schedules.clone());
            assert!(source.flat_rates.is_some(), "constant rates read flat");
            assert_eq!(source.live_segments(), schedules.len());
            assert_same_answers(&source, schedules.as_slice(), &points);
        }
    }

    #[test]
    fn one_two_segment_schedule_takes_the_general_path() {
        let (mut schedules, points) = flat_cases(3, 5);
        schedules[2] = RateSchedule::builder(1.0).rate_from(7.0, 1.5).build();
        let source = EagerSchedule::new(schedules.clone());
        assert!(source.flat_rates.is_none());
        assert_eq!(source.live_segments(), 6);
        assert_same_answers(&source, schedules.as_slice(), &points);
        assert_eq!(source.schedules(), schedules.as_slice());
        assert_eq!(source.materialize_prefix(1.0), schedules);
    }

    #[test]
    fn eager_fork_shares_storage_and_answers_like_its_parent() {
        let (schedules, points) = flat_cases(5, 9);
        let source = EagerSchedule::new(schedules);
        let copy = source.clone();
        assert!(Arc::ptr_eq(&source.schedules, &copy.schedules));
        assert!(Arc::ptr_eq(
            source.flat_rates.as_ref().unwrap(),
            copy.flat_rates.as_ref().unwrap()
        ));
        assert_eq!(source, copy);
        let fork = source.fork().expect("eager sources fork");
        assert_eq!(fork.live_segments(), 9);
        assert_same_answers(&*fork, &source, &points);
    }

    /// Both read paths, so each panic test covers the two of them.
    fn flat_and_general() -> [EagerSchedule; 2] {
        [
            EagerSchedule::new(vec![RateSchedule::constant(1.25)]),
            EagerSchedule::new(vec![RateSchedule::builder(1.0)
                .rate_from(3.0, 1.25)
                .build()]),
        ]
    }

    #[test]
    fn negative_time_panics_on_both_paths() {
        for source in flat_and_general() {
            for query in [EagerSchedule::value_at, EagerSchedule::rate_at] {
                let err = std::panic::catch_unwind(|| query(&source, 0, -0.5))
                    .expect_err("negative time must panic");
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.contains("schedules are defined on t >= 0"), "{msg}");
            }
        }
    }

    #[test]
    fn negative_value_panics_on_both_paths() {
        for source in flat_and_general() {
            let err = std::panic::catch_unwind(|| source.time_at_value(0, -0.5))
                .expect_err("negative value must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.contains("hardware clock values are nonnegative"),
                "{msg}"
            );
        }
    }

    #[test]
    fn slice_of_schedules_is_a_source() {
        let schedules = eager(5, 2, 50.0);
        let slice = schedules.as_slice();
        let source: &dyn ClockSource = &slice;
        assert_eq!(source.node_count(), 2);
        assert_eq!(
            source.value_at(1, 20.0).to_bits(),
            schedules[1].value_at(20.0).to_bits()
        );
        assert_eq!(source.live_segments(), schedules.as_slice().live_segments());
    }

    #[test]
    fn time_at_value_extends_by_value() {
        let schedules = eager(2, 1, 1000.0);
        let lazy = LazyDriftSource::new(model(), 2, 1);
        // Query purely through the inverse: coverage must extend by
        // value, not by time.
        let v = schedules[0].value_at(800.0);
        assert_eq!(
            lazy.time_at_value(0, v).to_bits(),
            schedules[0].time_at_value(v).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn zero_window_len_panics() {
        let _ = LazyDriftSource::with_window_len(model(), 1, 1, 0);
    }

    #[test]
    fn capped_walk_extrapolates_like_an_eager_schedule() {
        let horizon = 120.0;
        let schedules = eager(13, 2, horizon);
        let lazy = LazyDriftSource::new(model(), 13, 2).with_walk_horizon(horizon);
        // Queries beyond the horizon hit the eager schedule's last
        // segment, whose rate extends to infinity; the capped walk must
        // reproduce that, both forward and inverse.
        for (node, schedule) in schedules.iter().enumerate() {
            for t in [115.0, 119.9, 120.0, 150.0, 977.3] {
                assert_eq!(
                    lazy.value_at(node, t).to_bits(),
                    schedule.value_at(t).to_bits(),
                    "node {node}, t {t}"
                );
                let v = schedule.value_at(t);
                assert_eq!(
                    lazy.time_at_value(node, v).to_bits(),
                    schedule.time_at_value(v).to_bits()
                );
            }
        }
        assert_eq!(lazy.materialize_prefix(500.0), schedules);
        assert_eq!(lazy.materialize_prefix(60.0), schedules);
    }

    #[test]
    #[should_panic(expected = "before the first query")]
    fn walk_horizon_after_queries_panics() {
        let lazy = LazyDriftSource::new(model(), 1, 1);
        let _ = lazy.value_at(0, 100.0);
        let _ = lazy.with_walk_horizon(50.0);
    }
}
