//! Gradient synchronization for dynamic (churning) networks: the
//! weak/strong two-tier local-skew discipline of Kuhn, Lenzen, Locher &
//! Oshman, *Optimal Gradient Clock Synchronization in Dynamic Networks*.
//!
//! # State is O(degree), not O(n)
//!
//! A node only ever needs formation times for its *live neighbors*, so
//! the per-peer state is a sparse, sorted-by-`NodeId` small-vec probed
//! by binary search — O(degree) bytes per node, O(Σ degree) fleet-wide.
//! Construction is topology-size-independent: [`DynamicGradientNode::new`]
//! takes only the parameters. The old dense `Vec<Option<f64>>` layout
//! (O(n) per node, O(n²) fleet-wide — what kept this algorithm out of
//! the 100k-node scale runs) lives on as the reference node of
//! `tests/dynamic_gradient_sparse.rs`, which pins bit-identical
//! executions between the two.

use gcs_sim::{Context, Node, NodeId, TimerId};

use crate::SyncMsg;

/// Parameters of [`DynamicGradientNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicGradientParams {
    /// Broadcast period in hardware time.
    pub period: f64,
    /// Strong (stable-edge) slack per unit distance: the steady-state
    /// local skew guarantee on edges that have existed for at least the
    /// stabilization window.
    pub kappa_strong: f64,
    /// Weak (new-edge) slack per unit distance, applied the instant an
    /// edge forms. Must be at least `kappa_strong`.
    pub kappa_weak: f64,
    /// Stabilization window in hardware time: the slack applied to a
    /// neighbor interpolates linearly from `kappa_weak` down to
    /// `kappa_strong` over this long after the edge forms.
    pub window: f64,
}

impl Default for DynamicGradientParams {
    fn default() -> Self {
        Self {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 4.0,
            window: 20.0,
        }
    }
}

fn validate(params: &DynamicGradientParams) {
    assert!(
        params.period.is_finite() && params.period > 0.0,
        "period must be positive"
    );
    assert!(
        params.window.is_finite() && params.window > 0.0,
        "stabilization window must be positive"
    );
    assert!(
        params.kappa_strong.is_finite() && params.kappa_strong >= 0.0,
        "kappa_strong must be nonnegative"
    );
    assert!(
        params.kappa_weak.is_finite() && params.kappa_weak >= params.kappa_strong,
        "kappa_weak must be at least kappa_strong"
    );
}

/// The per-message slack: `kappa_weak - slope * age`, clamped into
/// `[kappa_strong, kappa_weak]` — one multiply on the hot path, with the
/// slope `(kappa_weak - kappa_strong) / window` precomputed at
/// construction. The `max`/`min` clamp (rather than `f64::clamp`) also
/// absorbs the `0 · ∞ = NaN` corner of a zero slope against an
/// infinitely old (since-startup) link.
#[inline]
fn kappa(params: &DynamicGradientParams, slope: f64, age: f64) -> f64 {
    (params.kappa_weak - slope * age)
        .max(params.kappa_strong)
        .min(params.kappa_weak)
}

/// Jump-based gradient synchronization that survives topology churn.
///
/// The static [`crate::GradientNode`] applies one slack `κ·d` to every
/// neighbor. In a dynamic network that is untenable: a freshly formed edge
/// may connect two nodes whose clocks legitimately drifted `Θ(D)` apart
/// while they were far apart in the old graph, and snapping them to the
/// strong bound instantly would force a discontinuous (invalid) clock
/// jump on a healthy node. Kuhn et al. resolve this with two tiers: a
/// newly formed edge is only guaranteed a *weak* bound, which tightens to
/// the *strong* (stable-edge) bound once the edge has existed for a
/// stabilization window.
///
/// This node realizes that discipline operationally:
///
/// - it timestamps (in its own hardware time) every neighbor whose link
///   comes up, via [`gcs_sim::Node::on_topology_change`];
/// - on receiving a clock sample from a neighbor at distance `d`, it
///   applies slack `κ(age)·d`, where `κ(age)` interpolates linearly from
///   `kappa_weak` at age 0 down to `kappa_strong` at age ≥ `window` —
///   so its own clock approaches the new neighbor's gradually instead of
///   cliff-jumping;
/// - neighbors present since startup (and any neighbor once its link age
///   exceeds the window) get the strong slack.
///
/// Validity is preserved: the logical clock never jumps backward and
/// advances at least at the hardware rate.
#[derive(Debug, Clone)]
pub struct DynamicGradientNode {
    params: DynamicGradientParams,
    /// Precomputed `(kappa_weak - kappa_strong) / window`.
    kappa_slope: f64,
    /// Sparse per-peer link state, sorted by peer id: the hardware time
    /// the current link formed. Absent while the link is down;
    /// `NEG_INFINITY` marks links live since startup, which are stable
    /// from the outset. Holds O(degree) entries, never O(n).
    formed: Vec<(NodeId, f64)>,
}

impl DynamicGradientNode {
    /// Creates a node. Construction is topology-size-independent — the
    /// sparse neighbor map grows with the node's *degree* as links come
    /// up, never with the network size.
    ///
    /// # Panics
    ///
    /// Panics if the period or window is not positive, either `κ` is
    /// negative, or `kappa_weak < kappa_strong`.
    #[must_use]
    pub fn new(params: DynamicGradientParams) -> Self {
        validate(&params);
        Self {
            params,
            kappa_slope: (params.kappa_weak - params.kappa_strong) / params.window,
            formed: Vec::new(),
        }
    }

    /// The node's parameters.
    #[must_use]
    pub fn params(&self) -> DynamicGradientParams {
        self.params
    }

    /// Live tracked links (the sparse map's size) — O(degree), the
    /// quantity the scale runs bound.
    #[cfg(test)]
    pub(crate) fn tracked_links(&self) -> usize {
        self.formed.len()
    }

    /// The slack per unit distance applied to a link of hardware age
    /// `age`: `kappa_weak` at age 0, tightening linearly to
    /// `kappa_strong` at `age >= window`.
    #[must_use]
    pub fn kappa_at_age(&self, age: f64) -> f64 {
        kappa(&self.params, self.kappa_slope, age)
    }

    fn formed_at(&self, peer: NodeId) -> Option<f64> {
        self.formed
            .binary_search_by_key(&peer, |&(p, _)| p)
            .ok()
            .map(|i| self.formed[i].1)
    }

    fn set_formed(&mut self, peer: NodeId, at: f64) {
        match self.formed.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => self.formed[i].1 = at,
            Err(i) => self.formed.insert(i, (peer, at)),
        }
    }

    fn clear_formed(&mut self, peer: NodeId) {
        if let Ok(i) = self.formed.binary_search_by_key(&peer, |&(p, _)| p) {
            self.formed.remove(i);
        }
    }
}

impl Node<SyncMsg> for DynamicGradientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        // Links present at startup are stable from the outset.
        for &peer in ctx.neighbors() {
            self.set_formed(peer, f64::NEG_INFINITY);
        }
        ctx.set_timer(self.params.period);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId) {
        let value = ctx.logical_now();
        ctx.send_to_neighbors(&SyncMsg::Clock(value));
        ctx.set_timer(self.params.period);
    }

    fn on_topology_change(&mut self, ctx: &mut Context<'_, SyncMsg>, peer: NodeId, up: bool) {
        if up {
            self.set_formed(peer, ctx.hw_now());
        } else {
            self.clear_formed(peer);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        if let SyncMsg::Clock(value) = msg {
            // A sample can arrive from a peer whose link just dropped (the
            // drop and the delivery can share an instant); treat it as a
            // brand-new (weak) link rather than inventing a formation time.
            let age = match self.formed_at(from) {
                Some(formed) => ctx.hw_now() - formed,
                None => 0.0,
            };
            let kappa = kappa(&self.params, self.kappa_slope, age);
            let d = ctx.distance_to(from);
            let target = value - kappa * d;
            if target > ctx.logical_now() {
                ctx.set_logical(target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::RateSchedule;
    use gcs_dynamic::{ChurnSchedule, DynamicTopology};
    use gcs_net::Topology;
    use gcs_sim::SimulationBuilder;

    fn drifting(n: usize) -> Vec<RateSchedule> {
        (0..n)
            .map(|i| RateSchedule::constant(1.0 + 0.02 * ((i % 3) as f64 - 1.0)))
            .collect()
    }

    #[test]
    fn kappa_interpolates_weak_to_strong() {
        let node = DynamicGradientNode::new(DynamicGradientParams {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 4.5,
            window: 10.0,
        });
        assert_eq!(node.kappa_at_age(0.0), 4.5);
        assert_eq!(node.kappa_at_age(5.0), 2.5);
        assert_eq!(node.kappa_at_age(10.0), 0.5);
        assert_eq!(node.kappa_at_age(100.0), 0.5);
        assert_eq!(node.kappa_at_age(f64::INFINITY), 0.5);
    }

    #[test]
    fn kappa_handles_equal_tiers_and_ancient_links() {
        // slope = 0 against age = ∞ is the 0·∞ = NaN corner; the clamp
        // must still land on the (single) tier.
        let node = DynamicGradientNode::new(DynamicGradientParams {
            period: 1.0,
            kappa_strong: 0.75,
            kappa_weak: 0.75,
            window: 10.0,
        });
        assert_eq!(node.kappa_at_age(0.0), 0.75);
        assert_eq!(node.kappa_at_age(f64::INFINITY), 0.75);
    }

    #[test]
    fn behaves_like_gradient_on_static_networks() {
        let n = 6;
        let sim = SimulationBuilder::new(Topology::line(n))
            .schedules(drifting(n))
            .build_with(|_, _| DynamicGradientNode::new(DynamicGradientParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(200.0).unwrap();
        for i in 0..n - 1 {
            let s = exec.skew(i, i + 1, 200.0).abs();
            assert!(s < 3.0, "neighbors ({i},{}) skew {s}", i + 1);
        }
    }

    #[test]
    fn never_jumps_backward_under_churn() {
        let n = 6;
        let view = DynamicTopology::new(
            Topology::ring(n),
            ChurnSchedule::periodic_flap(0, 1, 10.0, 190.0),
        )
        .unwrap();
        let sim = SimulationBuilder::new_dynamic(view)
            .schedules(drifting(n))
            .build_with(|_, _| DynamicGradientNode::new(DynamicGradientParams::default()))
            .unwrap();
        let exec = sim.try_execute_until(200.0).unwrap();
        for node in 0..n {
            assert_eq!(exec.trajectory(node).max_backward_jump(0.0, f64::MAX), 0.0);
        }
    }

    #[test]
    fn healed_partition_reconverges_to_strong_bound() {
        // Cut a ring in half for a while, then heal it. While cut, the two
        // halves drift apart; after healing plus the stabilization window,
        // the re-formed edges must be back under a strong-tier skew.
        let n = 8;
        let cut = [(0usize, 7usize), (3usize, 4usize)];
        let view = DynamicTopology::new(
            Topology::ring(n),
            ChurnSchedule::partition_and_heal(&cut, 40.0, 120.0),
        )
        .unwrap();
        let params = DynamicGradientParams {
            period: 1.0,
            kappa_strong: 0.5,
            kappa_weak: 6.0,
            window: 30.0,
        };
        let rates: Vec<RateSchedule> = (0..n)
            .map(|i| RateSchedule::constant(if i < 4 { 1.03 } else { 0.97 }))
            .collect();
        let sim = SimulationBuilder::new_dynamic(view)
            .schedules(rates)
            .build_with(|_, _| DynamicGradientNode::new(params))
            .unwrap();
        let exec = sim.try_execute_until(250.0).unwrap();
        // During the cut the halves drift ~0.06/t apart across the cut
        // edges; long after healing (t=250 > 120 + window) they are tight.
        for &(a, b) in &cut {
            let during = exec.skew(a, b, 110.0).abs();
            let after = exec.skew(a, b, 250.0).abs();
            assert!(
                during > 2.0,
                "cut edge ({a},{b}) should drift, got {during}"
            );
            assert!(
                after < 2.0,
                "healed edge ({a},{b}) should restabilize, got {after}"
            );
        }
    }

    #[test]
    fn sparse_map_tracks_degree_not_network_size() {
        // The map is keyed by live links only: insert, replace, and
        // remove keep it sorted and sized by degree, independent of any
        // notion of network size.
        let mut node = DynamicGradientNode::new(DynamicGradientParams::default());
        assert_eq!(node.tracked_links(), 0);
        node.set_formed(7, 1.0);
        node.set_formed(3, 2.0);
        node.set_formed(5, 3.0);
        assert_eq!(node.tracked_links(), 3);
        assert_eq!(node.formed, vec![(3, 2.0), (5, 3.0), (7, 1.0)]);
        // Re-forming an existing link replaces in place.
        node.set_formed(5, 9.0);
        assert_eq!(node.tracked_links(), 3);
        assert_eq!(node.formed_at(5), Some(9.0));
        // Dropping a link removes its entry; unknown peers are no-ops.
        node.clear_formed(3);
        node.clear_formed(1000);
        assert_eq!(node.tracked_links(), 2);
        assert_eq!(node.formed_at(3), None);
    }

    #[test]
    fn params_accessor_roundtrips() {
        let p = DynamicGradientParams {
            period: 2.0,
            kappa_strong: 0.25,
            kappa_weak: 3.0,
            window: 15.0,
        };
        assert_eq!(DynamicGradientNode::new(p).params(), p);
    }

    #[test]
    #[should_panic(expected = "kappa_weak must be at least kappa_strong")]
    fn rejects_weak_below_strong() {
        let _ = DynamicGradientNode::new(DynamicGradientParams {
            period: 1.0,
            kappa_strong: 1.0,
            kappa_weak: 0.5,
            window: 10.0,
        });
    }
}
