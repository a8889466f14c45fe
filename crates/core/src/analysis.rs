//! Skew measurement and empirical gradient profiles.

use std::collections::BTreeMap;

use gcs_sim::Execution;

/// Candidate times at which a node's logical clock (as a function of real
/// time) changes slope or jumps: schedule breakpoints plus trajectory
/// breakpoints mapped to real time. Clipped to `[0, horizon]`.
pub(crate) fn node_breakpoint_times<M>(exec: &Execution<M>, i: usize) -> Vec<f64> {
    let sched = exec.schedule(i);
    let horizon = exec.horizon();
    let mut times: Vec<f64> = sched.segments().iter().map(|&(t, _)| t).collect();
    for bp in exec.trajectory(i).breakpoints() {
        let t = sched.time_at_value(bp.x);
        if t <= horizon {
            times.push(t);
        }
    }
    times.retain(|t| *t >= 0.0 && *t <= horizon);
    times
}

/// Exact maximum of `|L_i(t) - L_j(t)|` over `t ∈ [from, horizon]`, with a
/// witnessing time.
///
/// Between breakpoints of either node's logical clock the skew is linear,
/// so the maximum is attained at a breakpoint (or at a jump's left limit,
/// which is approached but not attained; this function reports the
/// supremum over evaluated candidates including values just before jumps).
///
/// # Panics
///
/// Panics if `from` is negative or beyond the horizon.
#[must_use]
pub fn max_abs_skew<M>(exec: &Execution<M>, i: usize, j: usize, from: f64) -> (f64, f64) {
    let horizon = exec.horizon();
    assert!(
        (0.0..=horizon + 1e-9).contains(&from),
        "window start {from} outside [0, {horizon}]"
    );
    let mut candidates = node_breakpoint_times(exec, i);
    candidates.extend(node_breakpoint_times(exec, j));
    candidates.push(from);
    candidates.push(horizon);
    candidates.retain(|t| *t >= from);
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    candidates.dedup();

    let mut best = (f64::NEG_INFINITY, from);
    for &t in &candidates {
        // Value at t (right-continuous) and just before t (left limit of
        // any jumps at t).
        let after = (exec.logical_at(i, t) - exec.logical_at(j, t)).abs();
        let before = (logical_before(exec, i, t) - logical_before(exec, j, t)).abs();
        for s in [after, before] {
            if s > best.0 {
                best = (s, t);
            }
        }
    }
    best
}

/// The left limit of node `i`'s logical clock at real time `t` (the value
/// just before any jump scheduled exactly at `t`).
#[must_use]
pub fn logical_before<M>(exec: &Execution<M>, i: usize, t: f64) -> f64 {
    let hw = exec.hw_at(i, t);
    exec.trajectory(i).value_before(hw)
}

/// The empirical gradient of an execution: for every pairwise distance
/// class, the maximum observed `|L_i - L_j|` over the measured window.
///
/// This is the artifact the gradient property constrains: an algorithm
/// satisfies f-GCS on this execution iff the profile lies below `f`
/// pointwise.
///
/// # Examples
///
/// ```
/// # let exec = gcs_testkit::Scenario::line(3).horizon(20.0).run();
/// use gcs_core::analysis::GradientProfile;
/// let p = GradientProfile::measure(&exec, 0.0);
/// for (d, skew) in p.rows() {
///     println!("distance {d}: worst skew {skew}");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct GradientProfile {
    /// Keyed by distance bits (f64 is not `Ord`; distances are finite).
    rows: BTreeMap<u64, (f64, f64)>,
}

impl GradientProfile {
    /// Measures the exact per-distance maximum skew over `[from, horizon]`
    /// for every pair of nodes.
    ///
    /// Cost is `O(n² · b)` for `b` logical breakpoints per node; for large
    /// executions probe instead (`gcs_sim::GradientProfileObserver`, live
    /// or through `gcs_sim::observe_execution`).
    #[must_use]
    pub fn measure<M>(exec: &Execution<M>, from: f64) -> Self {
        let n = exec.node_count();
        let mut rows: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = exec.topology().distance(i, j);
                let (skew, _) = max_abs_skew(exec, i, j, from);
                let entry = rows.entry(d.to_bits()).or_insert((d, 0.0));
                entry.1 = entry.1.max(skew);
            }
        }
        Self { rows }
    }

    /// `(distance, max skew)` rows in increasing distance order.
    #[must_use]
    pub fn rows(&self) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = self.rows.values().copied().collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        v
    }

    /// The maximum observed skew among pairs at distance ≤ `d` (`0.0` if no
    /// such pair exists).
    #[must_use]
    pub fn max_skew_at_distance(&self, d: f64) -> f64 {
        self.rows()
            .iter()
            .filter(|(dist, _)| *dist <= d + 1e-12)
            .map(|(_, s)| *s)
            .fold(0.0, f64::max)
    }

    /// The worst observed skew at any distance (the classical "global skew").
    #[must_use]
    pub fn global_skew(&self) -> f64 {
        self.rows().iter().map(|(_, s)| *s).fold(0.0, f64::max)
    }

    /// True if this profile lies below `f` pointwise.
    #[must_use]
    pub fn satisfies(&self, f: &crate::problem::GradientFunction) -> bool {
        self.rows().iter().all(|(d, s)| *s <= f.eval(*d) + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::{PiecewiseLinear, RateSchedule};
    use gcs_net::Topology;

    /// Three nodes on a line; node 0's logical clock runs 0.1 fast per
    /// unit, node 2 jumps by 3 at t = 5.
    fn fixture() -> Execution<()> {
        let topology = Topology::line(3);
        let schedules = vec![RateSchedule::constant(1.0); 3];
        let t0 = PiecewiseLinear::new(0.0, 0.0, 1.1);
        let t1 = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let mut t2 = PiecewiseLinear::new(0.0, 0.0, 1.0);
        t2.push(5.0, 8.0, 1.0);
        Execution::from_parts(topology, schedules, 10.0, vec![], vec![], vec![t0, t1, t2])
    }

    #[test]
    fn max_abs_skew_catches_jump_left_limit() {
        let e = fixture();
        // Pair (0,2): before the jump at t=5 skew is 0.1·t (max 0.5-);
        // after, L2 leads: at t=5+, L0=5.5, L2=8 => skew 2.5; at t=10,
        // L0=11, L2=13 => 2. So max is 2.5 at t=5.
        let (s, t) = max_abs_skew(&e, 0, 2, 0.0);
        assert!((s - 2.5).abs() < 1e-9, "s = {s}");
        assert!((t - 5.0).abs() < 1e-9);
    }

    #[test]
    fn max_abs_skew_respects_window_start() {
        let e = fixture();
        // From t=6: |L0 - L2| decreases from 2.4 to 2.0 (L0 gains 0.1/s).
        let (s, t) = max_abs_skew(&e, 0, 2, 6.0);
        assert!((s - 2.4).abs() < 1e-9, "s = {s}");
        assert!((t - 6.0).abs() < 1e-9);
    }

    #[test]
    fn logical_before_sees_pre_jump_value() {
        let e = fixture();
        assert!((logical_before(&e, 2, 5.0) - 5.0).abs() < 1e-12);
        assert!((e.logical_at(2, 5.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_profile_orders_rows_by_distance() {
        let e = fixture();
        let p = GradientProfile::measure(&e, 0.0);
        let rows = p.rows();
        assert_eq!(rows.len(), 2); // distances 1 and 2
        assert_eq!(rows[0].0, 1.0);
        assert_eq!(rows[1].0, 2.0);
    }

    #[test]
    fn gradient_profile_distance_queries() {
        let e = fixture();
        let p = GradientProfile::measure(&e, 0.0);
        // Distance 1 pairs: (0,1) max 1.0 at t=10; (1,2) max 3.0 at t=5+.
        assert!((p.max_skew_at_distance(1.0) - 3.0).abs() < 1e-9);
        assert!(p.global_skew() >= p.max_skew_at_distance(1.0));
    }

    #[test]
    fn sampled_profile_is_a_lower_bound_on_exact() {
        let e = fixture();
        let exact = GradientProfile::measure(&e, 0.0);
        let mut sampled = gcs_sim::GradientProfileObserver::new();
        gcs_sim::observe_execution(&e, 0.0, 0.2, &mut [&mut sampled]);
        for ((d1, s_exact), (d2, s_sampled)) in exact.rows().iter().zip(sampled.rows().iter()) {
            assert_eq!(d1, d2);
            assert!(s_sampled <= &(s_exact + 1e-9));
        }
    }

    #[test]
    fn profile_satisfies_generous_bound() {
        let e = fixture();
        let p = GradientProfile::measure(&e, 0.0);
        let generous = crate::problem::GradientFunction::Linear {
            per_distance: 10.0,
            constant: 10.0,
        };
        let stingy = crate::problem::GradientFunction::Linear {
            per_distance: 0.1,
            constant: 0.0,
        };
        assert!(p.satisfies(&generous));
        assert!(!p.satisfies(&stingy));
    }
}
