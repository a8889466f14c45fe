//! Formal problem definitions: validity and the gradient property.

use std::fmt;

use gcs_sim::Execution;

/// A gradient bound `f : distance → maximum allowed skew` (nondecreasing).
///
/// The f-GCS property (Requirement 2 of the paper) demands
/// `|L_i(t) - L_j(t)| ≤ f(d_ij)` for all nodes `i, j` and all times `t`.
///
/// # Examples
///
/// ```
/// use gcs_core::problem::GradientFunction;
///
/// // The paper's conjectured achievable gradient: f(d) = c·(d + log D).
/// let f = GradientFunction::conjecture(1.0, 64.0);
/// assert!(f.eval(1.0) < f.eval(10.0));
///
/// // The paper's lower bound: f(d) ≥ c·(d + log D / log log D).
/// let lb = GradientFunction::lower_bound_shape(1.0, 64.0);
/// assert!(lb.eval(0.0) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum GradientFunction {
    /// `f(d) = per_distance · d + constant`.
    Linear {
        /// Coefficient on the distance.
        per_distance: f64,
        /// Additive constant (the `f(1)`-like term).
        constant: f64,
    },
    /// Piecewise bound from measured data: `(distance, bound)` pairs sorted
    /// by distance; `eval` takes the bound of the smallest tabulated
    /// distance ≥ `d` (or the last entry).
    Table(Vec<(f64, f64)>),
}

impl GradientFunction {
    /// The paper's Section-9 conjecture shape `f(d) = c·(d + log D)` for a
    /// network of diameter `diameter`.
    #[must_use]
    pub fn conjecture(c: f64, diameter: f64) -> Self {
        GradientFunction::Linear {
            per_distance: c,
            constant: c * diameter.max(2.0).ln(),
        }
    }

    /// The lower-bound shape `f(d) = c·(d + log D / log log D)`.
    #[must_use]
    pub fn lower_bound_shape(c: f64, diameter: f64) -> Self {
        let d = diameter.max(4.0);
        GradientFunction::Linear {
            per_distance: c,
            constant: c * d.ln() / d.ln().ln(),
        }
    }

    /// Evaluates the bound at distance `d`.
    ///
    /// # Panics
    ///
    /// Panics if a [`GradientFunction::Table`] is empty.
    #[must_use]
    pub fn eval(&self, d: f64) -> f64 {
        match self {
            GradientFunction::Linear {
                per_distance,
                constant,
            } => per_distance * d + constant,
            GradientFunction::Table(rows) => {
                assert!(!rows.is_empty(), "empty gradient table");
                for &(dist, bound) in rows {
                    if dist >= d {
                        return bound;
                    }
                }
                rows.last().expect("non-empty").1
            }
        }
    }
}

impl fmt::Display for GradientFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GradientFunction::Linear {
                per_distance,
                constant,
            } => write!(f, "f(d) = {per_distance}·d + {constant}"),
            GradientFunction::Table(rows) => write!(f, "f(d) tabulated at {} points", rows.len()),
        }
    }
}

/// A violation of the validity condition at some node.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidityViolation {
    /// The offending node.
    pub node: usize,
    /// Real time (segment start or jump time) where the violation occurs.
    pub time: f64,
    /// What went wrong.
    pub kind: ValidityViolationKind,
}

/// The kind of validity violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidityViolationKind {
    /// The logical clock's rate of increase (in real time) dropped below
    /// the minimum.
    RateTooLow {
        /// Observed rate.
        rate: f64,
        /// Required minimum.
        min: f64,
    },
    /// The logical clock jumped backwards.
    BackwardJump {
        /// Magnitude of the backward jump.
        magnitude: f64,
    },
}

/// Requirement 1 of the paper: every logical clock advances at rate at
/// least `min_rate` (the paper fixes 1/2) in real time, at all times.
///
/// Backward jumps violate validity for any positive `min_rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidityCondition {
    /// Minimum rate of logical-clock increase relative to real time.
    pub min_rate: f64,
}

impl Default for ValidityCondition {
    fn default() -> Self {
        Self { min_rate: 0.5 }
    }
}

impl ValidityCondition {
    /// Creates a validity condition with the given minimum rate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_rate`.
    #[must_use]
    pub fn new(min_rate: f64) -> Self {
        assert!(
            min_rate.is_finite() && min_rate > 0.0,
            "minimum rate must be positive"
        );
        Self { min_rate }
    }

    /// Checks every node's logical clock over the whole execution. Returns
    /// all violations (empty means the execution is valid).
    ///
    /// The logical clock of node `i` at real time `t` is
    /// `trajectory_i(H_i(t))`, so its real-time rate on a segment is
    /// `trajectory slope × hardware rate`; both factor sets of breakpoints
    /// are examined.
    #[must_use]
    pub fn check<M>(&self, exec: &Execution<M>) -> Vec<ValidityViolation> {
        let mut out = Vec::new();
        let horizon = exec.horizon();
        for node in 0..exec.node_count() {
            let sched = exec.schedule(node);
            let traj = exec.trajectory(node);

            // Backward jumps: any decrease of the trajectory violates
            // validity. Jumps live in hardware time; report in real time.
            for w in traj.breakpoints().windows(2) {
                let (prev, cur) = (w[0], w[1]);
                let left_value = prev.y + prev.slope * (cur.x - prev.x);
                let drop = left_value - cur.y;
                if drop > 1e-9 {
                    let t = sched.time_at_value(cur.x);
                    if t <= horizon + 1e-9 {
                        out.push(ValidityViolation {
                            node,
                            time: t,
                            kind: ValidityViolationKind::BackwardJump { magnitude: drop },
                        });
                    }
                }
            }

            // Segment rates: for every trajectory segment (in hw time),
            // intersect with schedule segments (in real time).
            let bps = traj.breakpoints();
            for (idx, bp) in bps.iter().enumerate() {
                let seg_start_hw = bp.x;
                let seg_end_hw = bps.get(idx + 1).map(|b| b.x);
                let t_start = sched.time_at_value(seg_start_hw);
                if t_start > horizon {
                    break;
                }
                let t_end = seg_end_hw
                    .map(|h| sched.time_at_value(h))
                    .unwrap_or(horizon)
                    .min(horizon);
                if t_end <= t_start {
                    continue;
                }
                if let Some((lo_rate, _)) = sched.rate_range_in(t_start, t_end) {
                    let rate = bp.slope * lo_rate;
                    if rate < self.min_rate - 1e-9 {
                        out.push(ValidityViolation {
                            node,
                            time: t_start,
                            kind: ValidityViolationKind::RateTooLow {
                                rate,
                                min: self.min_rate,
                            },
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::{PiecewiseLinear, RateSchedule};
    use gcs_net::Topology;

    fn exec_with_trajectories(trajs: Vec<PiecewiseLinear>, rates: Vec<f64>) -> Execution<()> {
        let n = trajs.len();
        let topology = Topology::line(n);
        let schedules = rates.into_iter().map(RateSchedule::constant).collect();
        Execution::from_parts(topology, schedules, 10.0, vec![], vec![], trajs)
    }

    #[test]
    fn linear_gradient_evaluates() {
        let f = GradientFunction::Linear {
            per_distance: 2.0,
            constant: 3.0,
        };
        assert_eq!(f.eval(0.0), 3.0);
        assert_eq!(f.eval(5.0), 13.0);
    }

    #[test]
    fn table_gradient_steps() {
        let f = GradientFunction::Table(vec![(1.0, 2.0), (4.0, 8.0)]);
        assert_eq!(f.eval(0.5), 2.0);
        assert_eq!(f.eval(1.0), 2.0);
        assert_eq!(f.eval(2.0), 8.0);
        assert_eq!(f.eval(100.0), 8.0);
    }

    #[test]
    fn conjecture_and_lower_bound_shapes_grow_with_d() {
        let small = GradientFunction::conjecture(1.0, 8.0);
        let large = GradientFunction::conjecture(1.0, 1024.0);
        assert!(large.eval(1.0) > small.eval(1.0));
        let lb_small = GradientFunction::lower_bound_shape(1.0, 8.0);
        let lb_large = GradientFunction::lower_bound_shape(1.0, 1024.0);
        assert!(lb_large.eval(1.0) > lb_small.eval(1.0));
        // Conjecture upper shape dominates the lower-bound shape.
        assert!(large.eval(1.0) > lb_large.eval(1.0));
    }

    #[test]
    fn validity_accepts_rate_one_clock() {
        let exec =
            exec_with_trajectories(vec![PiecewiseLinear::new(0.0, 0.0, 1.0); 2], vec![1.0, 1.0]);
        assert!(ValidityCondition::default().check(&exec).is_empty());
    }

    #[test]
    fn validity_catches_slow_segment() {
        // Slope 0.3 in hw time at hw rate 1.0 => real rate 0.3 < 0.5.
        let mut t = PiecewiseLinear::new(0.0, 0.0, 1.0);
        t.push_slope(5.0, 0.3);
        let exec =
            exec_with_trajectories(vec![t, PiecewiseLinear::new(0.0, 0.0, 1.0)], vec![1.0, 1.0]);
        let v = ValidityCondition::default().check(&exec);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].node, 0);
        assert!(matches!(
            v[0].kind,
            ValidityViolationKind::RateTooLow { .. }
        ));
    }

    #[test]
    fn validity_accounts_for_hardware_rate() {
        // Slope 0.6 at hw rate 1.0 is fine (0.6 >= 0.5), but at hw rate 0.8
        // the real rate is 0.48 < 0.5.
        let mut t = PiecewiseLinear::new(0.0, 0.0, 1.0);
        t.push_slope(1.0, 0.6);
        let ok = exec_with_trajectories(vec![t.clone()], vec![1.0]);
        assert!(ValidityCondition::default().check(&ok).is_empty());
        let bad = exec_with_trajectories(vec![t], vec![0.8]);
        assert_eq!(ValidityCondition::default().check(&bad).len(), 1);
    }

    #[test]
    fn validity_catches_backward_jump() {
        let mut t = PiecewiseLinear::new(0.0, 0.0, 1.0);
        t.push(4.0, 2.0, 1.0); // jumps from 4 down to 2
        let exec = exec_with_trajectories(vec![t], vec![1.0]);
        let v = ValidityCondition::default().check(&exec);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0].kind,
            ValidityViolationKind::BackwardJump { magnitude } if (magnitude - 2.0).abs() < 1e-9
        ));
    }

    #[test]
    fn forward_jumps_are_valid() {
        let mut t = PiecewiseLinear::new(0.0, 0.0, 1.0);
        t.push(4.0, 9.0, 1.0); // forward jump
        let exec = exec_with_trajectories(vec![t], vec![1.0]);
        assert!(ValidityCondition::default().check(&exec).is_empty());
    }

    #[test]
    #[should_panic(expected = "minimum rate must be positive")]
    fn zero_min_rate_rejected() {
        let _ = ValidityCondition::new(0.0);
    }

    #[test]
    fn display_formats() {
        let f = GradientFunction::Linear {
            per_distance: 1.0,
            constant: 2.0,
        };
        assert!(format!("{f}").contains("1·d + 2"));
    }
}
