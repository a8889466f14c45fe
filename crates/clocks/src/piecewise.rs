//! Piecewise-linear functions.
//!
//! Two central quantities in the paper are piecewise-linear:
//!
//! - the hardware clock value `H_i(t)` (the integral of a piecewise-constant
//!   rate), and
//! - the logical clock expressed as a function of the hardware clock,
//!   `L_i(H)`, which the indistinguishability principle of Section 3 keeps
//!   invariant under execution re-timing.
//!
//! [`PiecewiseLinear`] represents a continuous-or-jumping piecewise-linear
//! function on `[x₀, ∞)` as a sequence of segments. It supports exact
//! evaluation, right-continuous jumps (logical clocks may jump forward at
//! events), slope queries, and inversion for strictly-increasing functions.

use std::fmt;

/// A segment boundary of a [`PiecewiseLinear`] function: at `x`, the function
/// value is `y` (right-continuous) and increases with slope `slope` until the
/// next breakpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakpoint {
    /// Domain coordinate where this segment begins.
    pub x: f64,
    /// Function value at `x` (the value *after* any jump at `x`).
    pub y: f64,
    /// Slope of the function on `[x, next.x)`.
    pub slope: f64,
}

/// A right-continuous piecewise-linear function defined on `[start, ∞)`.
///
/// The function may jump (discontinuously) at breakpoints, which models
/// logical clocks that are set forward on message receipt. Between
/// breakpoints it is linear.
///
/// # Examples
///
/// ```
/// use gcs_clocks::PiecewiseLinear;
///
/// // L(H): starts at 0 with slope 1, jumps to 10 at H = 4, slope 2 after.
/// let mut f = PiecewiseLinear::new(0.0, 0.0, 1.0);
/// f.push(4.0, 10.0, 2.0);
/// assert_eq!(f.value_at(3.0), 3.0);
/// assert_eq!(f.value_at(4.0), 10.0);
/// assert_eq!(f.value_at(5.0), 12.0);
/// assert_eq!(f.value_before(4.0), 4.0); // left limit sees the pre-jump value
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    points: Vec<Breakpoint>,
}

impl PiecewiseLinear {
    /// Creates a function equal to `y0 + slope·(x - x0)` on `[x0, ∞)`.
    #[must_use]
    pub fn new(x0: f64, y0: f64, slope: f64) -> Self {
        Self {
            points: vec![Breakpoint {
                x: x0,
                y: y0,
                slope,
            }],
        }
    }

    /// Appends a breakpoint at `x` with (post-jump) value `y` and new `slope`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not ≥ the last breakpoint's coordinate, or if any
    /// argument is non-finite. If `x` equals the last breakpoint, that
    /// breakpoint is replaced (the jump and slope are updated in place).
    pub fn push(&mut self, x: f64, y: f64, slope: f64) {
        assert!(
            x.is_finite() && y.is_finite() && slope.is_finite(),
            "breakpoint must be finite: x={x}, y={y}, slope={slope}"
        );
        let last = self.points.last().expect("non-empty by construction");
        assert!(
            x >= last.x,
            "breakpoints must be nondecreasing: {x} < {}",
            last.x
        );
        if x == last.x {
            let i = self.points.len() - 1;
            self.points[i].y = y;
            self.points[i].slope = slope;
        } else {
            self.points.push(Breakpoint { x, y, slope });
        }
    }

    /// Appends a breakpoint at `x` that keeps the function continuous and
    /// changes only the slope.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PiecewiseLinear::push`].
    pub fn push_slope(&mut self, x: f64, slope: f64) {
        let y = self.value_at(x);
        self.push(x, y, slope);
    }

    /// The first domain coordinate where the function is defined.
    #[must_use]
    pub fn start(&self) -> f64 {
        self.points[0].x
    }

    /// The breakpoints of the function, in increasing domain order.
    #[must_use]
    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.points
    }

    /// Evaluates the function at `x` (right-continuous at breakpoints).
    ///
    /// # Panics
    ///
    /// Panics if `x < self.start()`.
    #[must_use]
    pub fn value_at(&self, x: f64) -> f64 {
        let seg = self.segment_at(x);
        seg.y + seg.slope * (x - seg.x)
    }

    /// Evaluates the left limit of the function at `x`: the value just before
    /// any jump at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x < self.start()`.
    #[must_use]
    pub fn value_before(&self, x: f64) -> f64 {
        let idx = self.segment_index(x);
        if idx > 0 && self.points[idx].x == x {
            let prev = self.points[idx - 1];
            prev.y + prev.slope * (x - prev.x)
        } else {
            self.value_at(x)
        }
    }

    /// The slope of the function at `x` (the slope of the segment containing
    /// `x`, right-continuous at breakpoints).
    ///
    /// # Panics
    ///
    /// Panics if `x < self.start()`.
    #[must_use]
    pub fn slope_at(&self, x: f64) -> f64 {
        self.segment_at(x).slope
    }

    /// The minimum and maximum slopes over all segments that intersect
    /// `[from, to)`. Returns `None` if the interval is empty or entirely
    /// before `start`.
    #[must_use]
    pub fn slope_range(&self, from: f64, to: f64) -> Option<(f64, f64)> {
        if to <= from || to <= self.start() {
            return None;
        }
        let from = from.max(self.start());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, p) in self.points.iter().enumerate() {
            let seg_end = self.points.get(i + 1).map_or(f64::INFINITY, |next| next.x);
            if seg_end <= from || p.x >= to {
                continue;
            }
            lo = lo.min(p.slope);
            hi = hi.max(p.slope);
        }
        if lo.is_finite() {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// The largest downward jump (as a nonnegative magnitude) over all
    /// breakpoints in `(from, to]`; `0.0` if the function never decreases.
    #[must_use]
    pub fn max_backward_jump(&self, from: f64, to: f64) -> f64 {
        let mut worst = 0.0_f64;
        for i in 1..self.points.len() {
            let p = self.points[i];
            if p.x <= from || p.x > to {
                continue;
            }
            let prev = self.points[i - 1];
            let left = prev.y + prev.slope * (p.x - prev.x);
            worst = worst.max(left - p.y);
        }
        worst
    }

    /// Inverts a strictly-increasing function: returns the smallest `x` with
    /// `f(x) = y`. For values skipped by an upward jump at breakpoint `b`,
    /// returns `b.x`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is below `f(start)`, or if the function is not
    /// nondecreasing (a segment has negative slope).
    #[must_use]
    pub fn inverse_at(&self, y: f64) -> f64 {
        let first = self.points[0];
        assert!(
            y >= first.y - 1e-9,
            "inverse_at: value {y} below initial value {}",
            first.y
        );
        // Find the last breakpoint whose (post-jump) value is <= y.
        let mut idx = 0;
        for (i, p) in self.points.iter().enumerate() {
            assert!(p.slope >= 0.0, "inverse_at requires nondecreasing function");
            if p.y <= y {
                idx = i;
            }
        }
        let p = self.points[idx];
        // Value reached at the end of this segment.
        let seg_end = self.points.get(idx + 1).map(|n| n.x);
        let x = if p.slope > 0.0 {
            p.x + (y - p.y) / p.slope
        } else {
            p.x
        };
        match seg_end {
            Some(end) if x > end => end,
            _ => x.max(p.x),
        }
    }

    /// Drops every breakpoint strictly before the segment containing `x`,
    /// keeping the function identical on `[x, ∞)`. The new `start()` is the
    /// start of the segment containing `x`, so queries at or after `x`
    /// (including [`PiecewiseLinear::value_before`] at `x`-interior points)
    /// are unaffected; queries before it panic as usual.
    ///
    /// This is the memory-compaction primitive behind the simulator's
    /// streaming (non-recording) mode: once every consumer's frontier has
    /// passed `x`, history behind it can be discarded, bounding trajectory
    /// memory by the churn *since* the frontier instead of the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `x < self.start()`.
    pub fn compact_before(&mut self, x: f64) {
        let idx = self.segment_index(x);
        if idx > 0 {
            self.points.drain(..idx);
        }
    }

    /// Composes `self` with a monotone re-timing map: returns `g` such that
    /// `g(x) = self(map(x))`, where `map` is a nondecreasing
    /// [`PiecewiseLinear`] from new domain to old domain. Breakpoints of the
    /// result are the union of `map`'s breakpoints and the preimages of
    /// `self`'s breakpoints.
    ///
    /// This is the operation that transports a logical-clock trajectory
    /// `L(H)` through a hardware-clock re-timing in the lower-bound
    /// constructions.
    ///
    /// # Panics
    ///
    /// Panics if `map` is decreasing somewhere, or if `map`'s range falls
    /// below `self.start()`.
    #[must_use]
    pub fn compose_with_map(&self, map: &PiecewiseLinear) -> PiecewiseLinear {
        let mut xs: Vec<f64> = map.points.iter().map(|p| p.x).collect();
        for p in &self.points {
            if p.x >= map.value_at(map.start()) {
                let pre = map.inverse_at(p.x);
                xs.push(pre);
            }
        }
        xs.retain(|x| x.is_finite() && *x >= map.start());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs.dedup();

        let x0 = xs[0];
        let mut out = PiecewiseLinear::new(
            x0,
            self.value_at(map.value_at(x0)),
            self.slope_at(map.value_at(x0)) * map.slope_at(x0),
        );
        for &x in &xs[1..] {
            let inner = map.value_at(x);
            out.push(
                x,
                self.value_at(inner),
                self.slope_at(inner) * map.slope_at(x),
            );
        }
        out
    }
}

impl fmt::Display for PiecewiseLinear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pwl[")?;
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {}, slope {})", p.x, p.y, p.slope)?;
        }
        write!(f, "]")
    }
}

impl PiecewiseLinear {
    fn segment_index(&self, x: f64) -> usize {
        assert!(
            x >= self.start(),
            "evaluated piecewise function at {x} before start {}",
            self.start()
        );
        match self
            .points
            .binary_search_by(|p| p.x.partial_cmp(&x).expect("finite breakpoints"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    fn segment_at(&self, x: f64) -> Breakpoint {
        self.points[self.segment_index(x)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase() -> PiecewiseLinear {
        let mut f = PiecewiseLinear::new(0.0, 0.0, 1.0);
        f.push_slope(10.0, 2.0);
        f.push(20.0, 35.0, 0.5); // jump from 30 to 35
        f
    }

    #[test]
    fn evaluates_linear_segments() {
        let f = staircase();
        assert_eq!(f.value_at(0.0), 0.0);
        assert_eq!(f.value_at(5.0), 5.0);
        assert_eq!(f.value_at(10.0), 10.0);
        assert_eq!(f.value_at(15.0), 20.0);
        assert_eq!(f.value_at(25.0), 37.5);
    }

    #[test]
    fn left_limit_differs_at_jump() {
        let f = staircase();
        assert_eq!(f.value_before(20.0), 30.0);
        assert_eq!(f.value_at(20.0), 35.0);
        assert_eq!(f.value_before(15.0), f.value_at(15.0));
    }

    #[test]
    fn slope_queries() {
        let f = staircase();
        assert_eq!(f.slope_at(5.0), 1.0);
        assert_eq!(f.slope_at(10.0), 2.0);
        assert_eq!(f.slope_at(30.0), 0.5);
        assert_eq!(f.slope_range(0.0, 30.0), Some((0.5, 2.0)));
        assert_eq!(f.slope_range(0.0, 10.0), Some((1.0, 1.0)));
        assert_eq!(f.slope_range(12.0, 13.0), Some((2.0, 2.0)));
        assert_eq!(f.slope_range(5.0, 5.0), None);
    }

    #[test]
    fn backward_jump_detection() {
        let mut f = PiecewiseLinear::new(0.0, 0.0, 1.0);
        f.push(5.0, 3.0, 1.0); // drops from 5 to 3
        assert_eq!(f.max_backward_jump(0.0, 10.0), 2.0);
        assert_eq!(f.max_backward_jump(5.0, 10.0), 0.0); // exclusive of `from`
        assert_eq!(staircase().max_backward_jump(0.0, 100.0), 0.0);
    }

    #[test]
    fn inverse_of_increasing_function() {
        let f = staircase();
        assert_eq!(f.inverse_at(5.0), 5.0);
        assert_eq!(f.inverse_at(20.0), 15.0);
        // Values inside the jump [30, 35) map to the jump point.
        assert_eq!(f.inverse_at(32.0), 20.0);
        assert_eq!(f.inverse_at(36.0), 22.0);
    }

    #[test]
    fn inverse_roundtrip() {
        let f = staircase();
        for x in [0.0, 1.0, 9.99, 10.0, 14.5, 20.0, 31.4] {
            let y = f.value_at(x);
            let x2 = f.inverse_at(y);
            assert!((f.value_at(x2) - y).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn push_at_same_x_replaces() {
        let mut f = PiecewiseLinear::new(0.0, 0.0, 1.0);
        f.push(5.0, 5.0, 2.0);
        f.push(5.0, 7.0, 3.0);
        assert_eq!(f.breakpoints().len(), 2);
        assert_eq!(f.value_at(5.0), 7.0);
        assert_eq!(f.slope_at(6.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn push_rejects_decreasing_x() {
        let mut f = PiecewiseLinear::new(0.0, 0.0, 1.0);
        f.push(5.0, 5.0, 1.0);
        f.push(4.0, 4.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "before start")]
    fn value_before_start_panics() {
        let _ = staircase().value_at(-1.0);
    }

    #[test]
    fn compose_with_identity_is_identity() {
        let f = staircase();
        let id = PiecewiseLinear::new(0.0, 0.0, 1.0);
        let g = f.compose_with_map(&id);
        for x in [0.0, 3.0, 10.0, 17.2, 25.0] {
            assert!((g.value_at(x) - f.value_at(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn compose_with_compression() {
        // f(x) = 2x; map(x) = x/2 starting at 0 => g(x) = x.
        let f = PiecewiseLinear::new(0.0, 0.0, 2.0);
        let map = PiecewiseLinear::new(0.0, 0.0, 0.5);
        let g = f.compose_with_map(&map);
        for x in [0.0, 1.0, 7.5] {
            assert!((g.value_at(x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn compose_preserves_inner_breakpoints() {
        // f has a slope change at 10; map(x) = x + 5, so g changes slope at 5.
        let f = staircase();
        let map = PiecewiseLinear::new(0.0, 5.0, 1.0);
        let g = f.compose_with_map(&map);
        assert_eq!(g.slope_at(4.0), 1.0);
        assert_eq!(g.slope_at(6.0), 2.0);
        assert!((g.value_at(5.0) - f.value_at(10.0)).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", staircase()).is_empty());
    }

    #[test]
    fn compact_before_preserves_the_suffix() {
        let mut f = staircase();
        let reference = f.clone();
        f.compact_before(15.0);
        assert_eq!(f.breakpoints().len(), 2); // segments at 10 and 20 survive
        assert_eq!(f.start(), 10.0);
        for x in [10.0, 15.0, 19.99, 20.0, 31.4] {
            assert_eq!(f.value_at(x), reference.value_at(x));
            assert_eq!(f.value_before(x), reference.value_before(x));
            assert_eq!(f.slope_at(x), reference.slope_at(x));
        }
    }

    #[test]
    fn compact_before_at_breakpoint_keeps_that_breakpoint() {
        let mut f = staircase();
        f.compact_before(20.0);
        assert_eq!(f.start(), 20.0);
        assert_eq!(f.value_at(20.0), 35.0);
        assert_eq!(f.breakpoints().len(), 1);
    }

    #[test]
    fn compact_before_start_is_a_no_op() {
        let mut f = staircase();
        f.compact_before(0.0);
        assert_eq!(f.breakpoints().len(), 3);
    }

    #[test]
    #[should_panic(expected = "before start")]
    fn compact_before_rejects_pre_start_points() {
        let mut f = staircase();
        f.compact_before(15.0);
        f.compact_before(5.0);
    }
}
