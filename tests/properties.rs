//! Property-based tests (proptest) on the core substrates: schedules,
//! piecewise functions, topologies, delay policies, and the retiming
//! engine's invariants.

use gcs_testkit::prelude::*;
use gradient_clock_sync::clocks::{DriftBound, PiecewiseLinear, RateSchedule};
use gradient_clock_sync::core::retiming::Retiming;
use gradient_clock_sync::dynamic::{ChurnKind, ChurnSchedule};
use gradient_clock_sync::net::{DelayOutcome, DelayPolicy, Topology, UniformDelay};
use gradient_clock_sync::prelude::*;
use proptest::prelude::*;

/// Strategy: a valid rate schedule with up to 6 breakpoints, rates within
/// [0.5, 2.0].
fn schedule_strategy() -> impl Strategy<Value = RateSchedule> {
    (
        0.5f64..2.0,
        proptest::collection::vec((0.1f64..30.0, 0.5f64..2.0), 0..6),
    )
        .prop_map(|(first, steps)| {
            let mut builder = RateSchedule::builder(first);
            let mut t = 0.0;
            for (dt, rate) in steps {
                t += dt;
                builder = builder.rate_from(t, rate);
            }
            builder.build()
        })
}

proptest! {
    #[test]
    fn schedule_value_is_strictly_increasing(s in schedule_strategy(), a in 0.0f64..100.0, b in 0.0f64..100.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assume!(hi - lo > 1e-9);
        prop_assert!(s.value_at(hi) > s.value_at(lo));
    }

    #[test]
    fn schedule_inversion_roundtrips(s in schedule_strategy(), t in 0.0f64..100.0) {
        let v = s.value_at(t);
        let t2 = s.time_at_value(v);
        prop_assert!((t - t2).abs() < 1e-6, "t = {t}, roundtrip {t2}");
    }

    #[test]
    fn schedule_rate_bounds_value_growth(s in schedule_strategy(), t in 0.0f64..100.0, dt in 0.001f64..10.0) {
        let (lo, hi) = s.rate_range();
        let dv = s.value_at(t + dt) - s.value_at(t);
        prop_assert!(dv >= lo * dt - 1e-9);
        prop_assert!(dv <= hi * dt + 1e-9);
    }

    #[test]
    fn piecewise_inverse_is_left_inverse(
        y0 in -10.0f64..10.0,
        slopes in proptest::collection::vec((0.1f64..20.0, 0.1f64..3.0), 1..6),
        x in 0.0f64..100.0,
    ) {
        let mut f = PiecewiseLinear::new(0.0, y0, slopes[0].1);
        let mut t = 0.0;
        for (dx, slope) in &slopes[1..] {
            t += dx;
            f.push_slope(t, *slope);
        }
        let y = f.value_at(x);
        let x2 = f.inverse_at(y);
        prop_assert!((f.value_at(x2) - y).abs() < 1e-6);
    }

    #[test]
    fn line_topology_metric_is_consistent(n in 2usize..40) {
        let t = Topology::line(n);
        // Triangle equality on a line: d(a,c) = d(a,b) + d(b,c) for a<b<c.
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n.min(b + 3) {
                    prop_assert!(
                        (t.distance(a, c) - t.distance(a, b) - t.distance(b, c)).abs() < 1e-9
                    );
                }
            }
        }
        prop_assert_eq!(t.diameter(), (n - 1) as f64);
    }

    #[test]
    fn geometric_topologies_are_valid_metrics(n in 2usize..12, seed in 0u64..50) {
        let t = Topology::random_geometric(n, 10.0, 2.0, seed);
        prop_assert!(t.min_distance() >= 1.0 - 1e-9);
        for (i, j) in t.pairs() {
            prop_assert_eq!(t.distance(i, j), t.distance(j, i));
            prop_assert!(t.distance(i, j).is_finite());
        }
    }

    #[test]
    fn topology_invariants_hold_for_every_shape(n in 3usize..14, seed in 0u64..50) {
        // Distance-matrix symmetry, zero diagonal, and neighbor-relation
        // symmetry, across every constructor family.
        let shapes = [
            Topology::line(n),
            Topology::ring(n),
            Topology::grid(n.div_ceil(2), 2),
            Topology::star(n),
            Topology::complete(n, 1.5),
            Topology::random_geometric(n, 10.0, 3.0, seed),
            Topology::tree(n, 2).unwrap(),
        ];
        for t in shapes {
            let m = t.len();
            for i in 0..m {
                prop_assert_eq!(t.distance(i, i), 0.0, "nonzero diagonal at {}", i);
                for j in 0..m {
                    prop_assert_eq!(t.distance(i, j), t.distance(j, i));
                    let ij = t.neighbors(i).contains(&j);
                    let ji = t.neighbors(j).contains(&i);
                    prop_assert_eq!(ij, ji, "asymmetric neighbors ({}, {})", i, j);
                }
                prop_assert!(!t.neighbors(i).contains(&i), "self-neighbor at {}", i);
            }
        }
    }

    #[test]
    fn normalized_really_achieves_unit_minimum(
        n in 2usize..10,
        scale in 1.0f64..40.0,
        seed in 0u64..30,
    ) {
        // Start from a geometric topology, blow all distances up by an
        // arbitrary factor (legal: min >= 1 still holds), and re-normalize:
        // the minimum off-diagonal distance must come back to exactly ~1.
        let t = Topology::random_geometric(n, 10.0, 2.0, seed);
        let m = t.len();
        let mut dist = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    dist[i * m + j] = t.distance(i, j) * scale;
                }
            }
        }
        let scaled = Topology::from_matrix(dist, 2.0).unwrap().normalized();
        prop_assert!((scaled.min_distance() - 1.0).abs() < 1e-9,
            "min distance {} after normalization", scaled.min_distance());
    }

    #[test]
    fn churn_schedules_are_sorted_and_seed_deterministic(
        n in 3usize..10,
        rate in 0.01f64..2.0,
        horizon in 10.0f64..200.0,
        seed in 0u64..100,
    ) {
        let edges = Topology::ring(n.max(3)).neighbor_edges();
        let a = ChurnSchedule::random_churn(&edges, rate, horizon, seed);
        // Events sorted by time, all within [0, horizon).
        for w in a.events().windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        for e in a.events() {
            prop_assert!(e.time >= 0.0 && e.time < horizon);
        }
        // Same seed => identical schedule; different seed => (almost
        // always) different. Only the former is a guarantee.
        let b = ChurnSchedule::random_churn(&edges, rate, horizon, seed);
        prop_assert_eq!(a.clone(), b);
        // Merging keeps the sort invariant.
        let merged = a.merge(ChurnSchedule::periodic_flap(0, 1, horizon / 7.0, horizon));
        for w in merged.events().windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn churn_schedule_toggles_alternate_per_edge(
        rate in 0.05f64..2.0,
        horizon in 20.0f64..150.0,
        seed in 0u64..50,
    ) {
        // random_churn must emit Down, Up, Down, … per edge (an edge is
        // never taken down twice without coming up in between).
        let edges = [(0usize, 1usize), (1, 2), (2, 0)];
        let s = ChurnSchedule::random_churn(&edges, rate, horizon, seed);
        let mut down = [false; 3];
        for e in s.events() {
            match e.kind {
                ChurnKind::EdgeDown { a, b } => {
                    let idx = edges.iter().position(|&p| p == (a, b)).unwrap();
                    prop_assert!(!down[idx], "({a}, {b}) downed twice");
                    down[idx] = true;
                }
                ChurnKind::EdgeUp { a, b } => {
                    let idx = edges.iter().position(|&p| p == (a, b)).unwrap();
                    prop_assert!(down[idx], "({a}, {b}) upped while up");
                    down[idx] = false;
                }
                _ => prop_assert!(false, "random_churn emits only edge events"),
            }
        }
    }

    #[test]
    fn uniform_delay_respects_bounds(
        seed in 0u64..100,
        lo in 0.0f64..0.5,
        width in 0.0f64..0.5,
        n in 2usize..8,
        seq in 0u64..50,
    ) {
        let topo = Topology::line(n);
        let mut p = UniformDelay::new(lo, lo + width, seed);
        p.bind_topology(&topo);
        for i in 0..n {
            for j in 0..n {
                if i == j { continue; }
                let d = topo.distance(i, j);
                match p.decide(i, j, seq, 0.0) {
                    DelayOutcome::Delay(delay) => {
                        prop_assert!(delay >= lo * d - 1e-9);
                        prop_assert!(delay <= (lo + width) * d + 1e-9);
                    }
                    other => prop_assert!(false, "unexpected outcome {other:?}"),
                }
            }
        }
    }

    #[test]
    fn drift_model_stays_within_bounds(seed in 0u64..100, rho in 0.001f64..0.5) {
        let bound = DriftBound::new(rho).unwrap();
        let model = DriftModel::new(bound, 5.0, rho / 4.0);
        let s = model.generate(seed, 100.0);
        prop_assert!(bound.admits(&s));
    }

    #[test]
    fn uniform_retiming_preserves_hw_readings(rate in 0.5f64..2.0, horizon in 5.0f64..30.0) {
        // Run a no-op fleet, re-time uniformly, and check every event keeps
        // its hardware reading while real time scales by 1/rate.
        let n = 3;
        let exec = Scenario::line(n)
            .algorithm(gradient_clock_sync::algorithms::AlgorithmKind::Max { period: 1.0 })
            .nominal_rates()
            .horizon(horizon)
            .run();
        let retimed = Retiming::new(
            vec![RateSchedule::constant(rate); n],
            horizon / rate,
        )
        .apply(&exec);
        for (a, b) in exec.events().iter().zip(retimed.events()) {
            prop_assert_eq!(a.hw, b.hw);
            prop_assert!((b.time - a.time / rate).abs() < 1e-9);
        }
    }

    #[test]
    fn logical_clocks_are_piecewise_consistent(seed in 0u64..30) {
        // For any algorithm run, L(t) computed through the trajectory
        // matches incremental queries (monotone nondecreasing for
        // jump-forward algorithms).
        let n = 4;
        let exec = Scenario::line(n)
            .algorithm(gradient_clock_sync::algorithms::AlgorithmKind::Max { period: 1.0 })
            .drift_walk(0.05, 5.0, 0.01)
            .fixed_delay(0.5)
            .seed(seed)
            .horizon(50.0)
            .run();
        for node in 0..n {
            let mut prev = exec.logical_at(node, 0.0);
            let mut t = 0.5;
            while t <= 50.0 {
                let cur = exec.logical_at(node, t);
                prop_assert!(cur >= prev - 1e-9, "node {node} decreased at {t}");
                prev = cur;
                t += 0.5;
            }
        }
    }
}

#[test]
fn drift_bound_gamma_is_always_within_upper_half() {
    // gamma = 1 + rho/(4+rho) < 1 + rho/2 for every valid rho.
    for rho in [0.001, 0.1, 0.5, 0.9, 0.999] {
        let b = DriftBound::new(rho).unwrap();
        assert!(b.gamma() < 1.0 + rho / 2.0);
        assert!(b.gamma() > 1.0);
    }
}
