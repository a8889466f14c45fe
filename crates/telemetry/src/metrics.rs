//! Metrics: counters, gauges, and fixed-bucket histograms with
//! deterministic JSON snapshots, plus [`RunMetrics`] — a combined
//! [`Tracer`] + [`Observer`] that populates a standard set of
//! simulation metrics during a run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use gcs_sim::{EventRecord, Observer, Probe, SimStats, TraceEvent, Tracer};

/// A fixed-bucket histogram: counts of observations `v` per half-open
/// bucket `(edge[k-1], edge[k]]` (first bucket `(-∞, edge[0]]`, last
/// `(edge[n-1], ∞)`), plus count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given strictly increasing, finite bucket
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, non-finite, or not strictly
    /// increasing.
    #[must_use]
    pub fn new(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite and strictly increasing"
        );
        Self {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        let bucket = self.edges.partition_point(|&e| e < v);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The bucket edges.
    #[must_use]
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counts (`edges.len() + 1` entries; the last is the
    /// overflow bucket).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"edges\":[");
        for (k, e) in self.edges.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{e:?}");
        }
        out.push_str("],\"counts\":[");
        for (k, c) in self.counts.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "],\"count\":{},\"sum\":{:?}", self.count, self.sum);
        if self.count > 0 {
            let _ = write!(out, ",\"min\":{:?},\"max\":{:?}", self.min, self.max);
        }
        out.push('}');
        out
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are free-form; the conventional scheme is a `/`-separated path
/// (`events/deliver`, `drops/loss`, `link/0-1/delivered`). Snapshots
/// serialize in name order (the registry is `BTreeMap`-backed), so the
/// JSON is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name` (created at 0).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Registers histogram `name` with the given edges if absent.
    pub fn register_histogram(&mut self, name: &str, edges: &[f64]) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(edges));
    }

    /// Records `v` into histogram `name`, registering it with `edges`
    /// on first use.
    pub fn observe(&mut self, name: &str, edges: &[f64], v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(edges))
            .record(v);
    }

    /// Counter `name`, 0 if absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge `name`, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Serializes the registry as deterministic JSON: one object with
    /// `counters`, `gauges`, and `histograms` maps, all in name order,
    /// floats in shortest-roundtrip form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (k, (name, v)) in self.counters.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (k, (name, v)) in self.gauges.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v:?}");
        }
        out.push_str("},\"histograms\":{");
        for (k, (name, h)) in self.histograms.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", h.to_json());
        }
        out.push_str("}}");
        out
    }
}

/// Default delivery-latency bucket edges, in simulated time units
/// (topology distances are O(1) after normalization).
pub const LATENCY_EDGES: [f64; 7] = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0];

/// Default adjacent-skew bucket edges, in logical clock units.
pub const SKEW_EDGES: [f64; 7] = [0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0];

#[derive(Debug, Default)]
struct RunMetricsInner {
    registry: MetricsRegistry,
    /// Adjacent pairs, computed from the first probe's topology.
    pairs: Option<Vec<(usize, usize)>>,
}

/// The standard per-run metrics collector: one object that is both a
/// [`Tracer`] (attach with [`gcs_sim::Simulation::set_tracer`]) and
/// an [`Observer`] (pass to
/// [`gcs_sim::Simulation::try_run_until_observed`]), sharing storage across
/// clones like [`crate::TraceRecorder`].
///
/// Populates:
///
/// - `events/<kind>` counters for every trace-event kind
///   (`start`, `send`, `deliver`, `drop`, `timer`, `link`, `probe`);
/// - `drops/<reason>` counters (`loss`, `link-down`);
/// - `link/<from>-<to>/delivered` per-directed-link delivery counters;
/// - `delivery_latency` histogram of `deliver.time − send_time`
///   ([`LATENCY_EDGES`]);
/// - `adjacent_skew` histogram of `|L_i − L_j|` over topology-adjacent
///   pairs at each probe ([`SKEW_EDGES`]);
/// - via [`RunMetrics::stamp_stats`], `queue/*` and `engine/*` gauges
///   from the engine's [`SimStats`] (high-water marks included).
///
/// All inputs are sim-domain quantities, so snapshots are as
/// deterministic as the run itself.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    inner: Rc<RefCell<RunMetricsInner>>,
}

impl RunMetrics {
    /// A fresh collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the engine's end-of-run [`SimStats`] into gauges:
    /// `queue/peak_events`, `queue/peak_message_slots`,
    /// `queue/peak_breakpoints`, `engine/dispatched`,
    /// `engine/message_slots`.
    pub fn stamp_stats(&self, stats: &SimStats) {
        let mut inner = self.inner.borrow_mut();
        let r = &mut inner.registry;
        r.set_gauge("queue/peak_events", stats.peak_queued_events as f64);
        r.set_gauge("queue/peak_message_slots", stats.peak_message_slots as f64);
        r.set_gauge(
            "queue/peak_breakpoints",
            stats.peak_trajectory_breakpoints as f64,
        );
        r.set_gauge("engine/dispatched", stats.dispatched as f64);
        r.set_gauge("engine/message_slots", stats.message_slots as f64);
    }

    /// A snapshot of the collected metrics.
    #[must_use]
    pub fn snapshot(&self) -> MetricsRegistry {
        self.inner.borrow().registry.clone()
    }
}

impl Tracer for RunMetrics {
    fn record(&mut self, event: &TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        let r = &mut inner.registry;
        r.inc(&format!("events/{}", event.kind_tag()));
        match *event {
            TraceEvent::Deliver {
                time,
                from,
                to,
                send_time,
                ..
            } => {
                r.observe("delivery_latency", &LATENCY_EDGES, time - send_time);
                r.inc(&format!("link/{from}-{to}/delivered"));
            }
            TraceEvent::Drop { reason, .. } => {
                r.inc(&format!("drops/{reason}"));
            }
            _ => {}
        }
    }
}

impl Observer for RunMetrics {
    fn on_probe(&mut self, view: &Probe<'_>) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let pairs = inner
            .pairs
            .get_or_insert_with(|| view.topology().neighbor_edges());
        for &(i, j) in pairs.iter() {
            inner
                .registry
                .observe("adjacent_skew", &SKEW_EDGES, view.skew(i, j).abs());
        }
    }

    fn on_event(&mut self, _view: &Probe<'_>, _event: &EventRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_half_open() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.record(0.5); // (-inf, 1]
        h.record(1.0); // (-inf, 1] (inclusive upper edge)
        h.record(1.5); // (1, 2]
        h.record(9.0); // overflow
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 12.0);
    }

    #[test]
    fn registry_json_is_deterministic_and_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc("b");
        r.inc("a");
        r.add("a", 2);
        r.set_gauge("g", 1.5);
        r.observe("h", &[1.0], 0.5);
        let json = r.to_json();
        assert_eq!(json, r.clone().to_json());
        let a = json.find("\"a\":3").expect("counter a");
        let b = json.find("\"b\":1").expect("counter b");
        assert!(a < b, "counters must serialize in name order");
        assert!(json.contains("\"g\":1.5"));
        assert!(json.contains("\"edges\":[1.0]"));
    }

    #[test]
    fn run_metrics_counts_trace_events() {
        let mut m = RunMetrics::new();
        m.record(&TraceEvent::Deliver {
            time: 1.5,
            from: 0,
            to: 1,
            seq: 0,
            send_time: 1.0,
            hw: 1.5,
            logical: 1.5,
        });
        m.record(&TraceEvent::Drop {
            time: 2.0,
            from: 1,
            to: 0,
            seq: 0,
            send_time: 1.9,
            reason: gcs_sim::DropReason::LinkDown,
        });
        let snap = m.snapshot();
        assert_eq!(snap.counter("events/deliver"), 1);
        assert_eq!(snap.counter("events/drop"), 1);
        assert_eq!(snap.counter("drops/link-down"), 1);
        assert_eq!(snap.counter("link/0-1/delivered"), 1);
        let h = snap.histogram("delivery_latency").expect("latency");
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 0.5).abs() < 1e-12);
    }
}
