//! Piecewise-constant hardware clock rate schedules.

use std::fmt;

/// A hardware clock defined by a piecewise-constant rate function of real
/// time, starting at real time `0` with hardware value `0`.
///
/// The clock *value* at real time `t` is `H(t) = ∫₀ᵗ h(r) dr`, computed
/// exactly from the segments. Because rates are strictly positive, `H` is
/// strictly increasing and [`RateSchedule::time_at_value`] inverts it exactly.
///
/// Both the simulation engine and the retiming engine in `gcs-core` perform
/// *all* conversions between real time and hardware time through this type,
/// which makes replayed (transformed) executions bit-identical to their
/// predicted traces.
///
/// # Examples
///
/// ```
/// use gcs_clocks::RateSchedule;
///
/// let s = RateSchedule::builder(1.0)
///     .rate_from(10.0, 1.25) // speed up at t = 10
///     .rate_from(18.0, 1.0)  // back to nominal at t = 18
///     .build();
/// assert_eq!(s.value_at(10.0), 10.0);
/// assert_eq!(s.value_at(18.0), 20.0);
/// assert_eq!(s.time_at_value(20.0), 18.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(start_time, rate)` pairs; `start_time` strictly increasing, first is 0.
    segments: Vec<(f64, f64)>,
    /// Hardware value at each segment start (same length as `segments`).
    values: Vec<f64>,
}

impl RateSchedule {
    /// Creates a schedule with a single constant rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and strictly positive.
    #[must_use]
    pub fn constant(rate: f64) -> Self {
        RateScheduleBuilder::new(rate).build()
    }

    /// Starts building a schedule whose rate is `initial_rate` from time 0.
    #[must_use]
    pub fn builder(initial_rate: f64) -> RateScheduleBuilder {
        RateScheduleBuilder::new(initial_rate)
    }

    /// Creates a schedule from `(start_time, rate)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, does not start at time `0`,
    /// is not strictly increasing in time, or contains a non-positive or
    /// non-finite rate.
    #[cfg(test)]
    pub(crate) fn from_segments(segments: &[(f64, f64)]) -> Result<Self, ScheduleError> {
        if segments.is_empty() {
            return Err(ScheduleError::Empty);
        }
        if segments[0].0 != 0.0 {
            return Err(ScheduleError::MustStartAtZero(segments[0].0));
        }
        let mut builder = RateScheduleBuilder::try_new(segments[0].1)?;
        for window in segments.windows(2) {
            let (prev_t, _) = window[0];
            let (t, rate) = window[1];
            if t <= prev_t {
                return Err(ScheduleError::NotIncreasing(t));
            }
            builder.try_rate_from(t, rate)?;
        }
        Ok(builder.build())
    }

    /// The rate `h(t)` at real time `t ≥ 0` (right-continuous at breakpoints).
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    #[must_use]
    pub fn rate_at(&self, t: f64) -> f64 {
        self.segments[self.segment_index(t)].1
    }

    /// The hardware clock value `H(t)` at real time `t ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        let i = self.segment_index(t);
        let (start, rate) = self.segments[i];
        self.values[i] + rate * (t - start)
    }

    /// The real time at which the hardware clock reaches `value ≥ 0`: the
    /// exact inverse of [`RateSchedule::value_at`].
    ///
    /// # Panics
    ///
    /// Panics if `value < 0`.
    #[must_use]
    pub fn time_at_value(&self, value: f64) -> f64 {
        assert!(
            value >= 0.0,
            "hardware clock values are nonnegative: {value}"
        );
        // Find the last segment whose starting value is <= value.
        let i = match self
            .values
            .binary_search_by(|v| v.partial_cmp(&value).expect("finite values"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let (start, rate) = self.segments[i];
        start + (value - self.values[i]) / rate
    }

    /// The minimum and maximum rates over all segments.
    #[must_use]
    pub fn rate_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, r) in &self.segments {
            lo = lo.min(r);
            hi = hi.max(r);
        }
        (lo, hi)
    }

    /// The minimum and maximum rates over segments intersecting `[from, to)`.
    /// Returns `None` for an empty interval.
    #[must_use]
    pub fn rate_range_in(&self, from: f64, to: f64) -> Option<(f64, f64)> {
        if to <= from {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, &(start, rate)) in self.segments.iter().enumerate() {
            let end = self.segments.get(i + 1).map_or(f64::INFINITY, |&(s, _)| s);
            if end <= from || start >= to {
                continue;
            }
            lo = lo.min(rate);
            hi = hi.max(rate);
        }
        Some((lo, hi))
    }

    /// The `(start_time, rate)` segments of this schedule.
    #[must_use]
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }

    fn segment_index(&self, t: f64) -> usize {
        assert!(t >= 0.0, "schedules are defined on t >= 0, got {t}");
        match self
            .segments
            .binary_search_by(|&(s, _)| s.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

impl Default for RateSchedule {
    /// A perfect clock: constant rate 1.
    fn default() -> Self {
        Self::constant(1.0)
    }
}

impl fmt::Display for RateSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rates[")?;
        for (i, (t, r)) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "t>={t}: {r}")?;
        }
        write!(f, "]")
    }
}

/// Incremental builder for [`RateSchedule`].
///
/// # Examples
///
/// ```
/// use gcs_clocks::RateSchedule;
/// let s = RateSchedule::builder(1.0).rate_from(3.0, 1.1).build();
/// assert_eq!(s.rate_at(2.0), 1.0);
/// assert_eq!(s.rate_at(3.0), 1.1);
/// ```
#[derive(Debug, Clone)]
pub struct RateScheduleBuilder {
    segments: Vec<(f64, f64)>,
}

impl RateScheduleBuilder {
    /// Creates a builder with `initial_rate` from time 0.
    ///
    /// # Panics
    ///
    /// Panics if `initial_rate` is not finite and strictly positive.
    #[must_use]
    pub fn new(initial_rate: f64) -> Self {
        Self::try_new(initial_rate).expect("invalid initial rate")
    }

    fn try_new(initial_rate: f64) -> Result<Self, ScheduleError> {
        check_rate(initial_rate)?;
        Ok(Self {
            segments: vec![(0.0, initial_rate)],
        })
    }

    /// Sets the rate to `rate` from time `t` onward.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not strictly after the previous change, or the rate
    /// is invalid. If `t == 0` and only the initial segment exists, the
    /// initial rate is replaced.
    #[must_use]
    pub fn rate_from(mut self, t: f64, rate: f64) -> Self {
        self.try_rate_from(t, rate).expect("invalid rate segment");
        self
    }

    fn try_rate_from(&mut self, t: f64, rate: f64) -> Result<(), ScheduleError> {
        check_rate(rate)?;
        let (last_t, _) = *self.segments.last().expect("non-empty");
        if t == last_t {
            let i = self.segments.len() - 1;
            self.segments[i].1 = rate;
            return Ok(());
        }
        if t <= last_t || !t.is_finite() {
            return Err(ScheduleError::NotIncreasing(t));
        }
        self.segments.push((t, rate));
        Ok(())
    }

    /// Finalizes the schedule, precomputing segment-start hardware values.
    #[must_use]
    pub fn build(self) -> RateSchedule {
        let mut values = Vec::with_capacity(self.segments.len());
        let mut acc = 0.0_f64;
        let mut prev: Option<(f64, f64)> = None;
        for &(t, rate) in &self.segments {
            if let Some((pt, pr)) = prev {
                acc += pr * (t - pt);
            }
            values.push(acc);
            prev = Some((t, rate));
        }
        RateSchedule {
            segments: self.segments,
            values,
        }
    }
}

fn check_rate(rate: f64) -> Result<(), ScheduleError> {
    if rate.is_finite() && rate > 0.0 {
        Ok(())
    } else {
        Err(ScheduleError::BadRate(rate))
    }
}

/// Error constructing a [`RateSchedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// No segments were provided.
    Empty,
    /// The first segment did not start at time 0.
    MustStartAtZero(f64),
    /// Segment start times were not strictly increasing.
    NotIncreasing(f64),
    /// A rate was non-finite or not strictly positive.
    BadRate(f64),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Empty => write!(f, "schedule has no segments"),
            ScheduleError::MustStartAtZero(t) => {
                write!(f, "first segment must start at time 0, got {t}")
            }
            ScheduleError::NotIncreasing(t) => {
                write!(f, "segment start times must be strictly increasing at {t}")
            }
            ScheduleError::BadRate(r) => {
                write!(f, "rates must be finite and positive, got {r}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_integrates_linearly() {
        let s = RateSchedule::constant(1.5);
        assert_eq!(s.value_at(0.0), 0.0);
        assert_eq!(s.value_at(4.0), 6.0);
        assert_eq!(s.rate_at(100.0), 1.5);
    }

    #[test]
    fn piecewise_integration_is_exact_at_breakpoints() {
        let s = RateSchedule::builder(1.0)
            .rate_from(10.0, 2.0)
            .rate_from(15.0, 0.5)
            .build();
        assert_eq!(s.value_at(10.0), 10.0);
        assert_eq!(s.value_at(15.0), 20.0);
        assert_eq!(s.value_at(19.0), 22.0);
    }

    #[test]
    fn inversion_roundtrips() {
        let s = RateSchedule::builder(1.0)
            .rate_from(5.0, 1.2)
            .rate_from(9.0, 0.8)
            .build();
        for t in [0.0, 1.0, 5.0, 7.3, 9.0, 12.0] {
            let v = s.value_at(t);
            let t2 = s.time_at_value(v);
            assert!((t2 - t).abs() < 1e-12, "t = {t}, got {t2}");
        }
    }

    #[test]
    fn inversion_is_bitwise_stable_on_repeated_eval() {
        let s = RateSchedule::builder(1.0).rate_from(7.0, 1.1).build();
        let v = s.value_at(13.37);
        let a = s.time_at_value(v);
        let b = s.time_at_value(v);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn from_segments_validates() {
        assert_eq!(RateSchedule::from_segments(&[]), Err(ScheduleError::Empty));
        assert_eq!(
            RateSchedule::from_segments(&[(1.0, 1.0)]),
            Err(ScheduleError::MustStartAtZero(1.0))
        );
        assert_eq!(
            RateSchedule::from_segments(&[(0.0, 1.0), (5.0, 1.0), (5.0, 2.0)]),
            Err(ScheduleError::NotIncreasing(5.0))
        );
        assert_eq!(
            RateSchedule::from_segments(&[(0.0, -1.0)]),
            Err(ScheduleError::BadRate(-1.0))
        );
        assert!(RateSchedule::from_segments(&[(0.0, 1.0), (2.0, 1.5)]).is_ok());
    }

    #[test]
    fn rate_range_in_window() {
        let s = RateSchedule::builder(1.0)
            .rate_from(10.0, 2.0)
            .rate_from(20.0, 3.0)
            .build();
        assert_eq!(s.rate_range(), (1.0, 3.0));
        assert_eq!(s.rate_range_in(0.0, 10.0), Some((1.0, 1.0)));
        assert_eq!(s.rate_range_in(5.0, 15.0), Some((1.0, 2.0)));
        assert_eq!(s.rate_range_in(10.0, 20.0), Some((2.0, 2.0)));
        assert_eq!(s.rate_range_in(25.0, 30.0), Some((3.0, 3.0)));
        assert_eq!(s.rate_range_in(5.0, 5.0), None);
    }

    #[test]
    fn builder_replaces_rate_at_same_time() {
        let s = RateSchedule::builder(1.0).rate_from(0.0, 2.0).build();
        assert_eq!(s.rate_at(0.0), 2.0);
        assert_eq!(s.segments().len(), 1);
    }

    #[test]
    fn default_is_perfect_clock() {
        let s = RateSchedule::default();
        assert_eq!(s.value_at(42.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "t >= 0")]
    fn negative_time_panics() {
        let _ = RateSchedule::default().value_at(-0.1);
    }
}
