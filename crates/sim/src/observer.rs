//! Streaming observers: O(1)-memory metrics computed *during* a run.
//!
//! An [`Observer`] is attached to a run through
//! [`crate::Simulation::try_run_until_observed`] and sees two kinds of
//! callbacks:
//!
//! - [`Observer::on_event`] after every dispatched event, and
//! - [`Observer::on_probe`] at a configurable simulated-time cadence
//!   (see [`crate::Simulation::set_probe_schedule`]): probe `k` fires at
//!   `from + k · every`, strictly after every event at or before that
//!   instant, so the [`Probe`] view it receives is final for its time.
//!
//! Observers replace the record-everything-then-analyze workflow for
//! metric runs: combined with
//! [`crate::SimulationBuilder::record_events`]`(false)` they bound memory
//! by the in-flight state of the network instead of the length of the
//! execution, which is what makes horizons 10–100× beyond the recorded
//! default practical.
//!
//! The same observers also run *post hoc*: [`observe_execution`] replays a
//! recorded [`Execution`] through the identical probe grid, so a streaming
//! metric and its post-hoc oracle are one implementation — equality of the
//! two paths is pinned by the `observers` integration suite.

use std::collections::BTreeMap;
use std::fmt;

use gcs_clocks::{ClockSource, PiecewiseLinear};
use gcs_net::Topology;

use crate::event::EventRecord;
use crate::execution::Execution;
use crate::NodeId;

/// A read-only view of the simulation at one instant, handed to
/// [`Observer`] callbacks.
///
/// The view exposes exactly what a metric needs — real time, hardware and
/// logical clock values, and the (static) topology — and nothing an
/// *algorithm* is forbidden to see stays hidden from algorithms: observers
/// are part of the measurement harness, not of the protocol, so they may
/// read real time and every node's clocks at once.
pub struct Probe<'a> {
    time: f64,
    topology: &'a Topology,
    clock: &'a dyn ClockSource,
    trajectories: &'a [PiecewiseLinear],
    /// Where node `i`'s trajectory sits in `trajectories`: at
    /// `positions[i]`, or at `i` when `positions` is empty.
    positions: &'a [u32],
}

impl fmt::Debug for Probe<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("time", &self.time)
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl<'a> Probe<'a> {
    pub(crate) fn new(
        time: f64,
        topology: &'a Topology,
        clock: &'a dyn ClockSource,
        trajectories: &'a [PiecewiseLinear],
        positions: &'a [u32],
    ) -> Self {
        Self {
            time,
            topology,
            clock,
            trajectories,
            positions,
        }
    }

    /// The real (simulated) time of this view.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topology.len()
    }

    /// The (base) network topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// Node `i`'s hardware clock value `H_i` at this instant.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn hw(&self, i: NodeId) -> f64 {
        self.clock.value_at(i, self.time)
    }

    /// Node `i`'s logical clock value `L_i` at this instant.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn logical(&self, i: NodeId) -> f64 {
        let at = self.positions.get(i).map_or(i, |&p| p as usize);
        self.trajectories[at].value_at(self.hw(i))
    }

    /// The logical skew `L_i - L_j` at this instant.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn skew(&self, i: NodeId, j: NodeId) -> f64 {
        self.logical(i) - self.logical(j)
    }
}

/// A streaming metric attached to a run (or replayed over a recorded
/// execution — the two paths share this one interface).
///
/// All methods default to no-ops so an observer implements only what it
/// needs. Observers must not assume they see *every* instant: exact
/// extrema live in the post-hoc breakpoint analysis
/// (`gcs_core::analysis`); probe-based metrics are sampled lower bounds
/// at the configured cadence, identical between the streaming and replay
/// paths.
pub trait Observer {
    /// Called after every dispatched event. `view` reflects the state
    /// *after* the node's callback ran.
    ///
    /// The one rule for views: a view is past-stable — it answers the same
    /// whenever it is evaluated — except when a trajectory point is
    /// overwritten at the same hardware reading later in the run (a second
    /// event at the same node and instant, such as two simultaneous
    /// deliveries); a view evaluated after that shows the overwriting
    /// value. One partition evaluates each view live, right after its
    /// event; a run with more than one shard evaluates them at the
    /// super-window barrier and [`observe_execution`] at the end of the
    /// run, so those two agree with each other and can differ from the
    /// live stream only at such instants. Probe views never differ.
    fn on_event(&mut self, view: &Probe<'_>, event: &EventRecord) {
        let _ = (view, event);
    }

    /// Called at each probe instant (see module docs for the grid).
    fn on_probe(&mut self, view: &Probe<'_>) {
        let _ = view;
    }

    /// Called once when the observed run (or replay) ends, with the final
    /// time. The engine's stepping API never ends a run implicitly, so the
    /// live path leaves this to the caller; [`observe_execution`] calls it
    /// at the recorded horizon.
    fn finish(&mut self, at: f64) {
        let _ = at;
    }
}

/// Replays a recorded execution through `observers`, firing
/// [`Observer::on_event`] for every recorded event and
/// [`Observer::on_probe`] on the probe grid `from + k · every` (all
/// `k ≥ 0` with the probe time within the horizon) — the *same* grid a
/// live run with [`crate::Simulation::set_probe_schedule`]`(from, every)`
/// uses, with probes firing strictly after all events at or before their
/// instant. This is the post-hoc path of every streaming metric.
///
/// # Panics
///
/// Panics if `every` is not finite and strictly positive or `from` is not
/// finite and nonnegative.
pub fn observe_execution<M>(
    exec: &Execution<M>,
    from: f64,
    every: f64,
    observers: &mut [&mut dyn Observer],
) {
    assert!(
        every.is_finite() && every > 0.0,
        "probe interval must be positive, got {every}"
    );
    assert!(
        from.is_finite() && from >= 0.0,
        "probe start must be finite and nonnegative, got {from}"
    );
    let horizon = exec.horizon();
    let schedules = exec.schedules();
    let view_at = |t: f64| Probe::new(t, exec.topology(), &schedules, exec.trajectories(), &[]);
    let mut k: u64 = 0;
    let probe_time = |k: u64| from + (k as f64) * every;
    for event in exec.events() {
        while probe_time(k) < event.time && probe_time(k) <= horizon {
            let view = view_at(probe_time(k));
            for obs in observers.iter_mut() {
                obs.on_probe(&view);
            }
            k += 1;
        }
        let view = view_at(event.time);
        for obs in observers.iter_mut() {
            obs.on_event(&view, event);
        }
    }
    while probe_time(k) <= horizon {
        let view = view_at(probe_time(k));
        for obs in observers.iter_mut() {
            obs.on_probe(&view);
        }
        k += 1;
    }
    for obs in observers.iter_mut() {
        obs.finish(horizon);
    }
}

/// Streaming global skew: the worst probe-sampled spread
/// `max_i L_i - min_i L_i`, with the probe time attaining it. O(n) per
/// probe, O(1) memory.
#[derive(Debug, Clone, Default)]
pub struct GlobalSkewObserver {
    worst: f64,
    worst_at: f64,
    probes: u64,
}

impl GlobalSkewObserver {
    /// A fresh observer (worst skew 0 until the first probe).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The worst sampled global skew.
    #[must_use]
    pub fn worst(&self) -> f64 {
        self.worst
    }

    /// The probe time attaining [`GlobalSkewObserver::worst`].
    #[must_use]
    pub fn worst_at(&self) -> f64 {
        self.worst_at
    }

    /// How many probes this observer has seen.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

impl Observer for GlobalSkewObserver {
    fn on_probe(&mut self, view: &Probe<'_>) {
        self.probes += 1;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..view.node_count() {
            let l = view.logical(i);
            lo = lo.min(l);
            hi = hi.max(l);
        }
        let spread = (hi - lo).max(0.0);
        if spread > self.worst {
            self.worst = spread;
            self.worst_at = view.time();
        }
    }
}

/// Streaming worst *adjacent* skew: the worst probe-sampled `|L_i - L_j|`
/// over pairs at topology distance ≤ `radius` — the quantity the gradient
/// property bounds most tightly. The pair list is computed once from the
/// first probe's topology.
#[derive(Debug, Clone)]
pub struct AdjacentSkewObserver {
    radius: f64,
    pairs: Option<Vec<(NodeId, NodeId)>>,
    worst: f64,
    worst_at: f64,
}

impl AdjacentSkewObserver {
    /// Observes pairs with topology distance at most `radius`.
    #[must_use]
    pub fn new(radius: f64) -> Self {
        Self {
            radius,
            pairs: None,
            worst: 0.0,
            worst_at: 0.0,
        }
    }

    /// The worst sampled skew across observed pairs.
    #[must_use]
    pub fn worst(&self) -> f64 {
        self.worst
    }

    /// The probe time attaining [`AdjacentSkewObserver::worst`].
    #[must_use]
    pub fn worst_at(&self) -> f64 {
        self.worst_at
    }
}

impl Observer for AdjacentSkewObserver {
    fn on_probe(&mut self, view: &Probe<'_>) {
        let radius = self.radius;
        let pairs = self.pairs.get_or_insert_with(|| {
            view.topology()
                .pairs()
                .filter(|&(i, j)| view.topology().distance(i, j) <= radius + 1e-9)
                .collect()
        });
        for &(i, j) in pairs.iter() {
            let s = view.skew(i, j).abs();
            if s > self.worst {
                self.worst = s;
                self.worst_at = view.time();
            }
        }
    }
}

/// Streaming gradient profile: for every pairwise distance class, the
/// worst probe-sampled `|L_i - L_j|` — the probed counterpart of the exact
/// `gcs_core::analysis::GradientProfile::measure`, and a lower bound on
/// it. Memory is
/// O(pairs + distance classes), independent of the horizon; the
/// pair-to-class mapping is computed once from the first probe's
/// (static) topology, so each probe is a flat array max-update.
#[derive(Debug, Clone, Default)]
pub struct GradientProfileObserver {
    /// `(i, j, class index)` for every unordered pair, built once.
    pairs: Option<Vec<(NodeId, NodeId, usize)>>,
    /// `(distance, max skew)` per class, in increasing distance order.
    classes: Vec<(f64, f64)>,
    /// Per-node logical values, reused across probes.
    logical: Vec<f64>,
}

impl GradientProfileObserver {
    /// A fresh observer with an empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `(distance, max skew)` rows in increasing distance order.
    #[must_use]
    pub fn rows(&self) -> Vec<(f64, f64)> {
        self.classes.clone()
    }

    /// The worst observed skew at any distance (the global skew).
    #[must_use]
    pub fn global_skew(&self) -> f64 {
        self.classes.iter().map(|&(_, s)| s).fold(0.0, f64::max)
    }

    /// The worst observed skew among pairs at distance ≤ `d`.
    #[must_use]
    pub fn max_skew_at_distance(&self, d: f64) -> f64 {
        self.classes
            .iter()
            .filter(|(dist, _)| *dist <= d + 1e-12)
            .map(|&(_, s)| s)
            .fold(0.0, f64::max)
    }
}

impl Observer for GradientProfileObserver {
    fn on_probe(&mut self, view: &Probe<'_>) {
        let n = view.node_count();
        let classes = &mut self.classes;
        let pairs = self.pairs.get_or_insert_with(|| {
            // Distance classes: keyed by bit pattern (`f64` is not
            // `Ord`; distances are finite and nonnegative, so bit order
            // is numeric order).
            let mut class_of: BTreeMap<u64, usize> = BTreeMap::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    class_of
                        .entry(view.topology().distance(i, j).to_bits())
                        .or_insert(0);
                }
            }
            classes.clear();
            for (rank, (bits, idx)) in class_of.iter_mut().enumerate() {
                *idx = rank;
                classes.push((f64::from_bits(*bits), 0.0));
            }
            let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
            for i in 0..n {
                for j in (i + 1)..n {
                    pairs.push((i, j, class_of[&view.topology().distance(i, j).to_bits()]));
                }
            }
            pairs
        });
        self.logical.clear();
        self.logical.extend((0..n).map(|i| view.logical(i)));
        for &(i, j, class) in pairs.iter() {
            let skew = (self.logical[i] - self.logical[j]).abs();
            let entry = &mut classes[class];
            entry.1 = entry.1.max(skew);
        }
    }
}

/// Streaming validity: checks that every node's logical clock advances at
/// mean rate at least `min_rate` (the paper fixes 1/2) between consecutive
/// probes — which also catches every backward jump. This is the sampled
/// counterpart of `gcs_core::problem::ValidityCondition::check` (the exact
/// segment-level check remains post-hoc only).
#[derive(Debug, Clone)]
pub struct ValidityObserver {
    min_rate: f64,
    last: Option<(f64, Vec<f64>)>,
    violations: u64,
}

impl ValidityObserver {
    /// Checks mean logical rates against `min_rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `min_rate` is finite and positive.
    #[must_use]
    pub fn new(min_rate: f64) -> Self {
        assert!(
            min_rate.is_finite() && min_rate > 0.0,
            "minimum rate must be positive"
        );
        Self {
            min_rate,
            last: None,
            violations: 0,
        }
    }

    /// The number of (node, probe-interval) violations witnessed.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// `true` if no violation has been witnessed.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.violations == 0
    }
}

impl Observer for ValidityObserver {
    fn on_probe(&mut self, view: &Probe<'_>) {
        let n = view.node_count();
        let logical: Vec<f64> = (0..n).map(|i| view.logical(i)).collect();
        if let Some((t0, prev)) = &self.last {
            let dt = view.time() - t0;
            if dt > 0.0 {
                for (&now, &before) in logical.iter().zip(prev.iter()) {
                    if (now - before) / dt < self.min_rate - 1e-9 {
                        self.violations += 1;
                    }
                }
            }
        }
        self.last = Some((view.time(), logical));
    }
}
