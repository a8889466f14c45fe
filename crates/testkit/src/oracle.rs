//! Skew oracles: assertions about global skew, the gradient property, and
//! validity, plus churn-aware oracles for dynamic topologies.

use gcs_core::analysis::max_abs_skew;
use gcs_core::problem::{GradientFunction, ValidityCondition};
use gcs_dynamic::DynamicTopology;
use gcs_sim::{
    observe_execution, AdjacentSkewObserver, Execution, GlobalSkewObserver,
    GradientProfileObserver, Observer, ValidityObserver,
};

/// Asserts the worst pairwise skew from time `from` onward is at most
/// `bound`, and returns the witnessed global skew.
///
/// Uses the exact (event-driven) per-pair maximum, not sampling, so a
/// passing assertion really is a bound on the whole suffix.
///
/// # Panics
///
/// Panics naming the worst pair if the bound is exceeded.
pub fn assert_global_skew_bound<M>(exec: &Execution<M>, from: f64, bound: f64) -> f64 {
    let n = exec.node_count();
    let mut worst = 0.0_f64;
    let mut worst_pair = (0, 0);
    let mut worst_at = from;
    for i in 0..n {
        for j in (i + 1)..n {
            let (skew, at) = max_abs_skew(exec, i, j, from);
            if skew > worst {
                worst = skew;
                worst_pair = (i, j);
                worst_at = at;
            }
        }
    }
    assert!(
        worst <= bound + 1e-9,
        "global skew bound {bound} violated: |L_{} - L_{}| reaches {worst} at t={worst_at}",
        worst_pair.0,
        worst_pair.1,
    );
    worst
}

/// Asserts the execution satisfies the `f`-gradient property on the probe
/// grid `k · horizon / samples`: one [`GradientProfileObserver`] pass over
/// the whole run, then every distance class's worst skew against `f`.
///
/// # Panics
///
/// Panics naming the distance, skew and bound of the first class above
/// `f(d)`.
pub fn assert_gradient_property<M>(exec: &Execution<M>, f: &GradientFunction, samples: usize) {
    let mut profile = GradientProfileObserver::new();
    // A zero horizon has the one instant t = 0, which any positive cadence
    // probes.
    let every = (exec.horizon() / samples.max(1) as f64).max(f64::MIN_POSITIVE);
    observe_execution(exec, 0.0, every, &mut [&mut profile]);
    for (d, skew) in profile.rows() {
        let bound = f.eval(d);
        assert!(
            skew <= bound + 1e-9,
            "gradient property violated at distance {d}: skew {skew} > f(d) = {bound}"
        );
    }
}

/// Asserts the validity condition (logical clocks advance within the
/// model's rate envelope) holds throughout the execution.
///
/// # Panics
///
/// Panics with the recorded violations otherwise.
pub fn assert_validity<M>(exec: &Execution<M>) {
    assert_validity_in(exec, "execution");
}

/// Like [`assert_validity`], with a caller-supplied label naming the run —
/// use inside loops over algorithms/seeds so a failure identifies its case.
///
/// # Panics
///
/// Panics with the label and the recorded violations otherwise.
pub fn assert_validity_in<M>(exec: &Execution<M>, label: impl std::fmt::Display) {
    let violations = ValidityCondition::default().check(exec);
    assert!(
        violations.is_empty(),
        "{label}: validity violated: {violations:?}"
    );
}

/// One observation from [`for_each_live_edge_sample`]: a live edge at a
/// sampled time, with everything the churn oracles and measurements need.
#[derive(Debug, Clone, Copy)]
pub struct LiveEdgeSample {
    /// The sampled real time.
    pub time: f64,
    /// First endpoint (`a < b`).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Base-topology distance `d_ab` (the delay uncertainty).
    pub distance: f64,
    /// Time since the edge's current up-interval began (`INFINITY` for
    /// edges live since the start).
    pub age: f64,
    /// The absolute skew `|L_a(time) − L_b(time)|`.
    pub skew: f64,
}

/// Visits every live edge of `view` at `samples` evenly spaced times in
/// `[from, horizon]` (at least 2, so the division below is safe). This is
/// the one sampling loop behind the churn oracles and the E11
/// measurements — keep skew-vs-link-age consumers on it rather than
/// re-deriving ages by hand.
pub fn for_each_live_edge_sample<M>(
    exec: &Execution<M>,
    view: &DynamicTopology,
    from: f64,
    samples: usize,
    mut visit: impl FnMut(&LiveEdgeSample),
) {
    let horizon = exec.horizon();
    assert!(
        (0.0..=horizon).contains(&from),
        "warm-up start {from} must lie within the execution ([0, {horizon}]); \
         clocks beyond the horizon were never simulated"
    );
    let samples = samples.max(2);
    for k in 0..samples {
        let t = from + (horizon - from) * k as f64 / (samples - 1) as f64;
        for (a, b) in view.live_edges_at(t) {
            let formed = view
                .link_formed_at(a, b, t)
                .expect("live edges have a formation time");
            visit(&LiveEdgeSample {
                time: t,
                a,
                b,
                distance: view.base().distance(a, b),
                age: t - formed,
                skew: exec.skew(a, b, t).abs(),
            });
        }
    }
}

/// Asserts the two-tier (weak/strong) gradient property of dynamic
/// networks (Kuhn–Lenzen–Locher–Oshman): at every sampled time `t ≥ from`
/// and every edge `{i, j}` *live* at `t`, the skew `|L_i(t) − L_j(t)|` is
/// at most
///
/// - `strong.eval(d_ij)` if the edge's current up-interval is older than
///   `window` (a *stable* edge), and
/// - `weak.eval(d_ij)` otherwise (a *newly formed* edge) —
///
/// i.e. skew is bounded as a function of time since edge formation. Edges
/// that are down are unconstrained (their endpoints may drift apart
/// freely, which is what makes the weak tier necessary on re-formation).
///
/// `view` must be the same dynamic view the execution ran under (see
/// [`crate::Scenario::dynamic_topology`]). Returns the worst live-edge
/// skew observed.
///
/// **Time bases.** `window` here is *real* time (edge ages come from the
/// churn schedule), while an algorithm like `DynamicGradientNode`
/// measures its stabilization window on its own *hardware* clock — the
/// model forbids it anything else. Under drift bound `ρ` a node's window
/// can take up to `window / (1 − ρ)` real time to elapse, so pass an
/// oracle window at least that much larger than the algorithm's to avoid
/// demanding the strong tier before the algorithm has promised it.
///
/// # Panics
///
/// Panics naming the edge, time, link age, and violated bound.
pub fn assert_weak_gradient_property<M>(
    exec: &Execution<M>,
    view: &DynamicTopology,
    strong: &GradientFunction,
    weak: &GradientFunction,
    window: f64,
    from: f64,
    samples: usize,
) -> f64 {
    assert!(
        window.is_finite() && window > 0.0,
        "stabilization window must be positive"
    );
    let mut worst = 0.0_f64;
    for_each_live_edge_sample(exec, view, from, samples, |s| {
        let stable = s.age >= window;
        let bound = if stable {
            strong.eval(s.distance)
        } else {
            weak.eval(s.distance)
        };
        assert!(
            s.skew <= bound + 1e-9,
            "weak gradient property violated on edge ({}, {}) at t={}: \
             |skew| = {} > {bound} ({} tier, link age {}, window {window})",
            s.a,
            s.b,
            s.time,
            s.skew,
            if stable { "strong" } else { "weak" },
            s.age,
        );
        worst = worst.max(s.skew);
    });
    worst
}

/// Asserts stabilization: every edge whose current up-interval is older
/// than `window` satisfies the *strong* bound at every sampled time
/// `t ≥ from` — newly formed edges are ignored, so this isolates the
/// promise that the weak tier is transient. Returns the worst stable-edge
/// skew observed.
///
/// `window` is *real* time; as with [`assert_weak_gradient_property`],
/// pass at least the algorithm's (hardware-time) window divided by
/// `1 − ρ` so slow-clocked nodes have provably finished tightening.
///
/// # Panics
///
/// Panics naming the first violating edge and time; also panics if no
/// stable edge-time was sampled at all (the assertion would be vacuous).
pub fn assert_stabilization<M>(
    exec: &Execution<M>,
    view: &DynamicTopology,
    strong: &GradientFunction,
    window: f64,
    from: f64,
    samples: usize,
) -> f64 {
    assert!(
        window.is_finite() && window > 0.0,
        "stabilization window must be positive"
    );
    let mut worst = 0.0_f64;
    let mut stable_points = 0usize;
    for_each_live_edge_sample(exec, view, from, samples, |s| {
        if s.age < window {
            return;
        }
        stable_points += 1;
        let bound = strong.eval(s.distance);
        assert!(
            s.skew <= bound + 1e-9,
            "stabilization violated on edge ({}, {}) at t={}: |skew| = {} > \
             {bound} (link age {}, window {window})",
            s.a,
            s.b,
            s.time,
            s.skew,
            s.age,
        );
        worst = worst.max(s.skew);
    });
    assert!(
        stable_points > 0,
        "no edge was ever older than the window {window} in [{from}, {}]: \
         the stabilization assertion is vacuous",
        exec.horizon()
    );
    worst
}

/// The worst skew across *neighbor* pairs (topology distance ≤ `radius`)
/// from time `from` onward — the quantity the gradient property bounds
/// most tightly.
#[must_use]
pub fn worst_adjacent_skew<M>(exec: &Execution<M>, from: f64, radius: f64) -> f64 {
    let topology = exec.topology();
    let mut worst = 0.0_f64;
    let mut pairs = 0_usize;
    for (i, j) in topology.pairs() {
        if topology.distance(i, j) <= radius + 1e-9 {
            worst = worst.max(max_abs_skew(exec, i, j, from).0);
            pairs += 1;
        }
    }
    assert!(
        pairs > 0,
        "no pair within radius {radius} (min distance {}): the bound would be vacuous",
        topology.min_distance(),
    );
    worst
}

/// The four built-in streaming metrics of one run, computed by the
/// engine's observers from [`StreamedMetrics::collect`] — either live
/// (drive [`crate::Scenario::run_observed`] with them) or post hoc via
/// [`streamed_metrics`]. Both paths execute the *same* observer code on
/// the *same* probe grid, so their values are bit-equal; the `observers`
/// integration suite pins this equivalence on every topology family.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedMetrics {
    /// Worst probe-sampled global skew (`max_i L_i − min_i L_i`).
    pub global_skew: f64,
    /// Worst probe-sampled skew over pairs within the adjacency radius.
    pub adjacent_skew: f64,
    /// Per-distance worst skew rows, ascending distance.
    pub profile: Vec<(f64, f64)>,
    /// Count of sampled validity violations (mean logical rate below 1/2
    /// over a probe interval, which includes every backward jump).
    pub validity_violations: u64,
}

impl StreamedMetrics {
    /// Builds the four built-in observers (adjacency radius `radius`,
    /// validity rate 1/2), hands them to `drive` — a live run or a replay
    /// — and collects their values beside `drive`'s own result.
    pub fn collect<R>(radius: f64, drive: impl FnOnce(&mut [&mut dyn Observer]) -> R) -> (Self, R) {
        let mut global = GlobalSkewObserver::new();
        let mut adjacent = AdjacentSkewObserver::new(radius);
        let mut profile = GradientProfileObserver::new();
        let mut validity = ValidityObserver::new(0.5);
        let ran = drive(&mut [&mut global, &mut adjacent, &mut profile, &mut validity]);
        let metrics = Self {
            global_skew: global.worst(),
            adjacent_skew: adjacent.worst(),
            profile: profile.rows(),
            validity_violations: validity.violations(),
        };
        (metrics, ran)
    }
}

/// The post-hoc path of the streaming oracles: replays a recorded
/// execution through [`StreamedMetrics::collect`]'s observers on the probe
/// grid `from + k · every`, pairs within `radius` counting as adjacent.
/// Live runs stream the identical observers, so checking a streaming run
/// against its recording reduces to comparing two [`StreamedMetrics`] for
/// equality.
#[must_use]
pub fn streamed_metrics<M>(
    exec: &Execution<M>,
    from: f64,
    every: f64,
    radius: f64,
) -> StreamedMetrics {
    StreamedMetrics::collect(radius, |observers| {
        observe_execution(exec, from, every, observers);
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use gcs_algorithms::AlgorithmKind;

    fn gradient_run() -> Execution<gcs_algorithms::SyncMsg> {
        Scenario::line(6)
            .algorithm(AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            })
            .drift_walk(0.02, 10.0, 0.005)
            .uniform_delay(0.1, 0.9)
            .seed(3)
            .horizon(120.0)
            .run()
    }

    #[test]
    fn oracles_accept_a_healthy_gradient_run() {
        let exec = gradient_run();
        assert_validity(&exec);
        let global = assert_global_skew_bound(&exec, 30.0, 20.0);
        assert!(global > 0.0, "some skew must exist under drift");
        assert_gradient_property(
            &exec,
            &GradientFunction::Linear {
                per_distance: 2.0,
                constant: 3.0,
            },
            150,
        );
        assert!(worst_adjacent_skew(&exec, 30.0, 1.0) <= global + 1e-9);
    }

    #[test]
    #[should_panic(expected = "global skew bound")]
    fn skew_bound_oracle_rejects_drifting_clocks() {
        let exec = Scenario::line(4)
            .algorithm(AlgorithmKind::NoSync)
            .spread_rates(0.05)
            .horizon(300.0)
            .run();
        let _ = assert_global_skew_bound(&exec, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "gradient property violated")]
    fn gradient_oracle_rejects_unsynchronized_runs() {
        let exec = Scenario::line(4)
            .algorithm(AlgorithmKind::NoSync)
            .spread_rates(0.05)
            .horizon(400.0)
            .run();
        assert_gradient_property(
            &exec,
            &GradientFunction::Linear {
                per_distance: 1.0,
                constant: 1.0,
            },
            100,
        );
    }

    fn churn_scenario() -> (
        Execution<gcs_algorithms::SyncMsg>,
        DynamicTopology,
        f64, // the algorithm's stabilization window
    ) {
        use gcs_dynamic::ChurnSchedule;
        let window = 15.0;
        let s = Scenario::ring(8)
            .algorithm(AlgorithmKind::DynamicGradient {
                period: 1.0,
                kappa_strong: 0.5,
                kappa_weak: 6.0,
                window,
            })
            .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 110.0))
            .constant_rates(&[1.02, 1.0, 0.99, 1.01, 0.98, 1.0, 1.02, 0.99])
            .horizon(120.0);
        let view = s.dynamic_topology().expect("churn scenario");
        (s.run(), view, window)
    }

    #[test]
    fn churn_oracles_accept_a_dynamic_gradient_run() {
        let (exec, view, window) = churn_scenario();
        assert_validity(&exec);
        let strong = GradientFunction::Linear {
            per_distance: 2.0,
            constant: 3.0,
        };
        let weak = GradientFunction::Linear {
            per_distance: 8.0,
            constant: 6.0,
        };
        let worst_live =
            assert_weak_gradient_property(&exec, &view, &strong, &weak, window * 1.05, 20.0, 120);
        assert!(worst_live > 0.0, "some skew must exist under drift");
        let worst_stable = assert_stabilization(&exec, &view, &strong, window * 1.05, 20.0, 120);
        assert!(worst_stable <= worst_live + 1e-9);
    }

    #[test]
    #[should_panic(expected = "weak gradient property violated")]
    fn weak_oracle_rejects_unsynchronized_churn_runs() {
        use gcs_dynamic::ChurnSchedule;
        let s = Scenario::ring(6)
            .algorithm(AlgorithmKind::NoSync)
            .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 290.0))
            .spread_rates(0.05)
            .horizon(300.0);
        let view = s.dynamic_topology().unwrap();
        let exec = s.run();
        let tight = GradientFunction::Linear {
            per_distance: 0.5,
            constant: 0.5,
        };
        let _ = assert_weak_gradient_property(&exec, &view, &tight, &tight, 10.0, 50.0, 100);
    }

    #[test]
    #[should_panic(expected = "vacuous")]
    fn stabilization_oracle_rejects_windows_no_edge_survives() {
        use gcs_dynamic::ChurnSchedule;
        use gcs_net::Topology;
        // The only edge flaps every 2 units, so (sampling after the
        // initial since-forever interval ends at t = 2) no up-interval
        // ever reaches the 5-unit window.
        let s = Scenario::on("flap_line_2", Topology::line(2))
            .churn(ChurnSchedule::periodic_flap(0, 1, 2.0, 30.0))
            .horizon(30.0);
        let view = s.dynamic_topology().unwrap();
        let exec = s.run();
        let loose = GradientFunction::Linear {
            per_distance: 100.0,
            constant: 100.0,
        };
        let _ = assert_stabilization(&exec, &view, &loose, 5.0, 2.0, 50);
    }

    #[test]
    fn dyn_node_delegates() {
        use gcs_algorithms::fault::CrashingNode;
        let exec = Scenario::line(4)
            .constant_rates(&[1.0, 1.02, 0.98, 1.01])
            .horizon(60.0)
            .run_with(|id, n| {
                let crash_at = if id == 1 { 15.0 } else { f64::MAX / 2.0 };
                CrashingNode::new(AlgorithmKind::Max { period: 1.0 }.build(id, n), crash_at)
            });
        assert_validity(&exec);
    }
}
