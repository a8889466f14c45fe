//! Monotone warps of the real-time axis.
//!
//! A re-timing of an execution moves each node's *local* events through
//! that node's replacement hardware schedule. Shared physical events — a
//! link coming up or going down is experienced by both endpoints at one
//! real time — cannot be moved per node without tearing the two endpoint
//! observations apart. A [`TimeWarp`] is the single monotone map applied
//! to every shared event (and to the churn timeline they came from), so
//! the transformed execution still describes one coherent network history.
//!
//! Warps are represented by a [`RateSchedule`]: `w(t)` is the schedule's
//! integral [`RateSchedule::value_at`], which is strictly increasing (all
//! rates are strictly positive), starts at `w(0) = 0`, and inverts exactly
//! through [`RateSchedule::time_at_value`]. The identity warp is the
//! constant rate-1 schedule and is guaranteed bit-exact: `apply(t)`
//! returns `t` unchanged, which is what lets the static case of the
//! retiming engine degenerate to today's behavior byte for byte.

use std::fmt;

use crate::RateSchedule;

/// A strictly monotone, continuous map of real time with `w(0) = 0`,
/// applied to shared physical events when re-timing an execution.
///
/// # Examples
///
/// ```
/// use gcs_clocks::{RateSchedule, TimeWarp};
///
/// let id = TimeWarp::identity();
/// assert_eq!(id.apply(3.5), 3.5); // bit-exact
///
/// // Compress the first 10 time units by a factor 2, then run 1:1.
/// let w = TimeWarp::from_schedule(RateSchedule::builder(0.5).rate_from(10.0, 1.0).build());
/// assert_eq!(w.apply(10.0), 5.0);
/// assert_eq!(w.apply(14.0), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWarp {
    schedule: RateSchedule,
    identity: bool,
}

impl TimeWarp {
    /// The identity warp: `apply` returns its argument bit-exactly.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            schedule: RateSchedule::constant(1.0),
            identity: true,
        }
    }

    /// A warp from a rate schedule: `apply(t) = schedule.value_at(t)`.
    ///
    /// The schedule's strictly positive rates are exactly the monotonicity
    /// requirement, so every `RateSchedule` is a valid warp.
    #[must_use]
    pub fn from_schedule(schedule: RateSchedule) -> Self {
        let identity = schedule.segments() == [(0.0, 1.0)];
        Self { schedule, identity }
    }

    /// A uniform warp scaling all of time by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and strictly positive.
    #[must_use]
    pub fn uniform(factor: f64) -> Self {
        Self::from_schedule(RateSchedule::constant(factor))
    }

    /// Whether this is the identity warp (constant rate 1).
    #[cfg(test)]
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    /// The underlying rate schedule.
    #[must_use]
    pub fn schedule(&self) -> &RateSchedule {
        &self.schedule
    }

    /// The warped time `w(t)`.
    ///
    /// The identity warp returns `t` unchanged (bit-exact).
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    #[must_use]
    pub fn apply(&self, t: f64) -> f64 {
        if self.identity {
            assert!(t >= 0.0, "warps are defined on t >= 0, got {t}");
            return t;
        }
        self.schedule.value_at(t)
    }

    /// The pre-image `w⁻¹(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    #[cfg(test)]
    pub(crate) fn invert(&self, t: f64) -> f64 {
        if self.identity {
            assert!(t >= 0.0, "warps are defined on t >= 0, got {t}");
            return t;
        }
        self.schedule.time_at_value(t)
    }
}

impl Default for TimeWarp {
    fn default() -> Self {
        Self::identity()
    }
}

impl fmt::Display for TimeWarp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.identity {
            write!(f, "warp(identity)")
        } else {
            write!(f, "warp({})", self.schedule)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_bit_exact() {
        let w = TimeWarp::identity();
        for t in [0.0, 0.1, 1.0 / 3.0, 7.25, 1e9, f64::MIN_POSITIVE] {
            assert_eq!(w.apply(t).to_bits(), t.to_bits());
            assert_eq!(w.invert(t).to_bits(), t.to_bits());
        }
        assert!(w.is_identity());
    }

    #[test]
    fn constant_rate_one_schedule_is_detected_as_identity() {
        let w = TimeWarp::from_schedule(RateSchedule::constant(1.0));
        assert!(w.is_identity());
        let w = TimeWarp::uniform(2.0);
        assert!(!w.is_identity());
    }

    #[test]
    fn warp_is_monotone_and_inverts() {
        let w = TimeWarp::from_schedule(
            RateSchedule::builder(0.8)
                .rate_from(5.0, 1.5)
                .rate_from(20.0, 1.0)
                .build(),
        );
        let mut prev = -1.0;
        for k in 0..200 {
            let t = 0.17 * f64::from(k);
            let wt = w.apply(t);
            assert!(wt > prev);
            prev = wt;
            assert!((w.invert(wt) - t).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_maps_to_zero() {
        for w in [TimeWarp::identity(), TimeWarp::uniform(0.25)] {
            assert_eq!(w.apply(0.0), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "t >= 0")]
    fn negative_time_panics() {
        let _ = TimeWarp::identity().apply(-1.0);
    }

    #[test]
    fn display_marks_identity() {
        assert_eq!(format!("{}", TimeWarp::identity()), "warp(identity)");
        assert!(format!("{}", TimeWarp::uniform(2.0)).contains("t>=0: 2"));
    }
}
