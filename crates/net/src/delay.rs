//! Message-delay policies: the adversary's (or environment's) choice of
//! per-message delays, bounded by the pairwise distance `d_ij`.

use crate::Topology;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The outcome of a delay decision for a single message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayOutcome {
    /// Deliver the message `delay` time units after it was sent.
    Delay(f64),
    /// Deliver the message when the *receiver's hardware clock* reads the
    /// given value.
    ///
    /// This is the replay primitive: the indistinguishability principle
    /// (Section 3 of the paper) is phrased in terms of hardware clock
    /// readings at events, so a transformed execution is replayed exactly
    /// by pinning each delivery to its recorded hardware reading (adding a
    /// floating-point delay to a send time could perturb the arrival in the
    /// last bit). The simulator converts the reading to a real time for
    /// scheduling but dispatches the event with this exact hardware value.
    ArriveAtHw(f64),
    /// Drop the message (used only by failure-injection experiments; the
    /// paper's model assumes reliable delivery).
    Drop,
}

/// A message-delay policy.
///
/// The simulator calls [`DelayPolicy::decide`] once per message, passing the
/// sender, receiver, a per-(sender, receiver) sequence number, and the real
/// send time; the policy returns a [`DelayOutcome`]. Policies may be
/// stateful (e.g. seeded RNGs), but determinism given the same call sequence
/// is required for replayable executions.
pub trait DelayPolicy: fmt::Debug {
    /// Chooses the delay for the `seq`-th message from `from` to `to`, sent
    /// at real time `send_time`.
    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome;

    /// Binds the policy to the topology it will serve. Called once by the
    /// simulator builder; the default implementation does nothing.
    ///
    /// Policies whose delays scale with distance (e.g. [`UniformDelay`])
    /// use this to capture the distance matrix.
    fn bind_topology(&mut self, topology: &Topology) {
        let _ = topology;
    }

    /// An absolute lower bound on the delay of **every** message this
    /// policy will ever produce (`DelayOutcome::Drop` excluded): for any
    /// non-dropped message sent at `s`, arrival `t ≥ s + bound`.
    ///
    /// This is the *lookahead* of conservative parallel simulation: a
    /// sharded engine may dispatch all events up to `min_pending + bound`
    /// in parallel, because no message sent inside that window can arrive
    /// within it. The default — `0.0` — is always sound and simply yields
    /// no lookahead (the sharded engine then degrades to serial windows).
    fn min_delay_bound(&self) -> f64 {
        0.0
    }

    /// A thread-safe replica of this policy making **identical decisions**:
    /// for every `(from, to, seq, send_time)`, the fork's outcome is
    /// bit-identical to this policy's, independent of call order.
    ///
    /// Sharded simulations give each shard its own fork so delay decisions
    /// need no cross-thread coordination. Policies that are stateful in
    /// call order (e.g. [`AdversarialDelay`]) return `None` — the default —
    /// and are rejected by the sharded build path.
    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        None
    }
}

/// A boxed policy is a policy, so a type chosen at runtime passes
/// straight to [`DelayPolicy`]-generic builders and wrappers.
impl<D: DelayPolicy + ?Sized> DelayPolicy for Box<D> {
    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome {
        (**self).decide(from, to, seq, send_time)
    }

    fn bind_topology(&mut self, topology: &Topology) {
        (**self).bind_topology(topology);
    }

    fn min_delay_bound(&self) -> f64 {
        (**self).min_delay_bound()
    }

    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        (**self).fork()
    }
}

/// The per-message random stream of the seeded policies: a pure function
/// of `(seed, from, to, seq)`, so a draw does not depend on the order in
/// which the simulator asks (each policy passes its own salted seed).
#[inline]
fn message_rng(seed: u64, from: usize, to: usize, seq: u64) -> StdRng {
    let mut h = seed;
    for x in [from as u64, to as u64, seq] {
        h ^= x
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
    }
    StdRng::seed_from_u64(h)
}

/// The nominal policy: every message `i → j` takes exactly `frac × d_ij`.
///
/// With `frac = 0.5` this is the "midpoint" schedule the paper's
/// constructions start from (message delay `|i-j|/2` on the line).
///
/// # Examples
///
/// ```
/// use gcs_net::{DelayOutcome, DelayPolicy, FixedFractionDelay, Topology};
/// let mut p = FixedFractionDelay::for_topology(&Topology::line(4), 0.5);
/// assert_eq!(p.decide(0, 3, 0, 10.0), DelayOutcome::Delay(1.5));
/// ```
#[derive(Debug, Clone)]
pub struct FixedFractionDelay {
    topology: Topology,
    frac: f64,
}

impl FixedFractionDelay {
    /// Creates the policy for `topology` with delay fraction `frac ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`.
    #[must_use]
    pub fn for_topology(topology: &Topology, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
        Self {
            topology: topology.clone(),
            frac,
        }
    }
}

impl DelayPolicy for FixedFractionDelay {
    fn decide(&mut self, from: usize, to: usize, _seq: u64, _send_time: f64) -> DelayOutcome {
        DelayOutcome::Delay(self.frac * self.topology.distance(from, to))
    }

    fn min_delay_bound(&self) -> f64 {
        if self.topology.len() < 2 {
            return 0.0;
        }
        self.frac * self.topology.min_distance()
    }

    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// Seeded uniform-random delays: each message `i → j` takes a delay drawn
/// uniformly from `[lo_frac × d_ij, hi_frac × d_ij]`.
///
/// The draw is a pure function of `(seed, from, to, seq)`, so delays are
/// reproducible regardless of the order in which the simulator asks.
#[derive(Debug, Clone)]
pub struct UniformDelay {
    lo_frac: f64,
    hi_frac: f64,
    seed: u64,
    topology: Option<Topology>,
}

impl UniformDelay {
    /// Creates the policy; fractions must satisfy `0 ≤ lo ≤ hi ≤ 1`.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are out of range or out of order.
    #[must_use]
    pub fn new(lo_frac: f64, hi_frac: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lo_frac) && (0.0..=1.0).contains(&hi_frac) && lo_frac <= hi_frac,
            "fractions must satisfy 0 <= lo <= hi <= 1"
        );
        Self {
            lo_frac,
            hi_frac,
            seed,
            topology: None,
        }
    }
}

impl DelayPolicy for UniformDelay {
    fn bind_topology(&mut self, topology: &Topology) {
        self.topology = Some(topology.clone());
    }

    fn min_delay_bound(&self) -> f64 {
        match &self.topology {
            Some(t) if t.len() >= 2 => self.lo_frac * t.min_distance(),
            _ => 0.0,
        }
    }

    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        Some(Box::new(self.clone()))
    }

    fn decide(&mut self, from: usize, to: usize, seq: u64, _send_time: f64) -> DelayOutcome {
        let d = self
            .topology
            .as_ref()
            .expect("UniformDelay must be bound to a topology before use")
            .distance(from, to);
        let mut rng = message_rng(self.seed, from, to, seq);
        let lo = self.lo_frac * d;
        let hi = self.hi_frac * d;
        let delay = if hi > lo {
            rng.random_range(lo..=hi)
        } else {
            lo
        };
        DelayOutcome::Delay(delay)
    }
}

/// An adversarial policy defined by an arbitrary function. Used by tests and
/// by the Section-2 counterexample, where the adversary switches the delay
/// on one link mid-execution.
pub struct AdversarialDelay {
    f: Box<dyn FnMut(usize, usize, u64, f64) -> DelayOutcome>,
}

impl AdversarialDelay {
    /// Wraps a delay function `(from, to, seq, send_time) → outcome`.
    #[must_use]
    pub fn new(f: impl FnMut(usize, usize, u64, f64) -> DelayOutcome + 'static) -> Self {
        Self { f: Box::new(f) }
    }
}

impl fmt::Debug for AdversarialDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdversarialDelay").finish_non_exhaustive()
    }
}

impl DelayPolicy for AdversarialDelay {
    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome {
        (self.f)(from, to, seq, send_time)
    }
}

/// Near-zero-uncertainty broadcast (the RBS setting of Elson et al.):
/// every message takes a common base delay plus a per-message jitter drawn
/// uniformly from `[0, epsilon]`.
///
/// The policy is distance-oblivious, so it is a legal adversary only when
/// `base + epsilon ≤ min_ij d_ij`; the simulator rejects (panics on)
/// out-of-bounds deliveries.
#[derive(Debug, Clone)]
pub struct BroadcastDelay {
    base: f64,
    epsilon: f64,
    seed: u64,
}

impl BroadcastDelay {
    /// Creates a broadcast-delay policy with propagation `base ≥ 0` and
    /// receiver-side jitter `epsilon ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or non-finite.
    #[must_use]
    pub fn new(base: f64, epsilon: f64, seed: u64) -> Self {
        assert!(base.is_finite() && base >= 0.0, "base must be >= 0");
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be >= 0"
        );
        Self {
            base,
            epsilon,
            seed,
        }
    }
}

impl DelayPolicy for BroadcastDelay {
    fn min_delay_bound(&self) -> f64 {
        self.base
    }

    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        Some(Box::new(self.clone()))
    }

    fn decide(&mut self, from: usize, to: usize, seq: u64, _send_time: f64) -> DelayOutcome {
        let mut rng = message_rng(self.seed ^ 0xABCD_EF01_2345_6789, from, to, seq);
        let jitter = if self.epsilon > 0.0 {
            rng.random_range(0.0..=self.epsilon)
        } else {
            0.0
        };
        DelayOutcome::Delay(self.base + jitter)
    }
}

/// Failure-injection wrapper: drops each message independently with
/// probability `loss`, deterministic in `(seed, from, to, seq)`. Everything
/// else is delegated to the inner policy.
///
/// Generic over the boxed inner policy so that [`LossyDelay::fork`] can
/// hand sharded simulations the same wrapper over a `Send` fork.
///
/// The paper's model assumes reliable links; this wrapper exists for the
/// robustness extension experiments only.
#[derive(Debug)]
pub struct LossyDelay<P: DelayPolicy + ?Sized = dyn DelayPolicy> {
    inner: Box<P>,
    loss: f64,
    seed: u64,
}

impl<P: DelayPolicy + ?Sized> LossyDelay<P> {
    /// Wraps `inner`, dropping each message with probability `loss ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1)`.
    #[must_use]
    pub fn new(inner: Box<P>, loss: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        Self { inner, loss, seed }
    }
}

impl<P: DelayPolicy + ?Sized> DelayPolicy for LossyDelay<P> {
    // Forward the binding: the wrapped policy (e.g. `UniformDelay`) may
    // need the topology's distances, and the default `bind_topology` is
    // a no-op that would leave it unbound.
    fn bind_topology(&mut self, topology: &Topology) {
        self.inner.bind_topology(topology);
    }

    // Dropping a message never violates a delay lower bound, so the
    // wrapper's lookahead is exactly the inner policy's.
    fn min_delay_bound(&self) -> f64 {
        self.inner.min_delay_bound()
    }

    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        Some(Box::new(LossyDelay {
            inner: self.inner.fork()?,
            loss: self.loss,
            seed: self.seed,
        }))
    }

    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome {
        let mut rng = message_rng(self.seed ^ 0x1357_9BDF_2468_ACE0, from, to, seq);
        if rng.random_range(0.0..1.0) < self.loss {
            DelayOutcome::Drop
        } else {
            self.inner.decide(from, to, seq, send_time)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_fraction_is_half_distance() {
        let t = Topology::line(5);
        let mut p = FixedFractionDelay::for_topology(&t, 0.5);
        assert_eq!(p.decide(0, 4, 0, 0.0), DelayOutcome::Delay(2.0));
        assert_eq!(p.decide(2, 3, 7, 10.0), DelayOutcome::Delay(0.5));
    }

    #[test]
    fn uniform_delays_stay_in_bounds() {
        let t = Topology::line(6);
        let mut p = UniformDelay::new(0.25, 0.75, 3);
        p.bind_topology(&t);
        for seq in 0..100 {
            match p.decide(0, 5, seq, 0.0) {
                DelayOutcome::Delay(d) => {
                    assert!((1.25..=3.75).contains(&d), "delay {d} out of range");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn uniform_delays_are_order_independent() {
        let t = Topology::line(3);
        let mut a = UniformDelay::new(0.0, 1.0, 5);
        let mut b = UniformDelay::new(0.0, 1.0, 5);
        a.bind_topology(&t);
        b.bind_topology(&t);
        let x1 = a.decide(0, 1, 0, 0.0);
        let _ = a.decide(1, 2, 0, 0.0);
        let y1 = a.decide(0, 1, 1, 5.0);
        let _ = b.decide(0, 1, 1, 5.0);
        let x2 = b.decide(0, 1, 0, 0.0);
        assert_eq!(x1, x2);
        assert_eq!(y1, b.decide(0, 1, 1, 5.0));
    }

    #[test]
    fn adversarial_delay_runs_closure() {
        let mut p = AdversarialDelay::new(|from, _to, _seq, _s| {
            if from == 0 {
                DelayOutcome::Delay(0.0)
            } else {
                DelayOutcome::Delay(1.0)
            }
        });
        assert_eq!(p.decide(0, 1, 0, 0.0), DelayOutcome::Delay(0.0));
        assert_eq!(p.decide(1, 0, 0, 0.0), DelayOutcome::Delay(1.0));
    }

    #[test]
    fn broadcast_delay_has_small_jitter() {
        let mut p = BroadcastDelay::new(0.5, 0.01, 1);
        for seq in 0..50 {
            match p.decide(0, seq as usize % 4, seq, 0.0) {
                DelayOutcome::Delay(d) => assert!((0.5..=0.51).contains(&d)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn lossy_delay_drops_some_messages() {
        let t = Topology::line(2);
        let inner = Box::new(FixedFractionDelay::for_topology(&t, 0.5));
        let mut p = LossyDelay::new(inner, 0.5, 42);
        let outcomes: Vec<_> = (0..200).map(|seq| p.decide(0, 1, seq, 0.0)).collect();
        let drops = outcomes
            .iter()
            .filter(|o| **o == DelayOutcome::Drop)
            .count();
        assert!(drops > 50 && drops < 150, "drops = {drops}");
    }

    #[test]
    fn lossy_delay_is_deterministic() {
        let t = Topology::line(2);
        let mk = || LossyDelay::new(Box::new(FixedFractionDelay::for_topology(&t, 0.5)), 0.3, 7);
        let mut a = mk();
        let mut b = mk();
        for seq in 0..50 {
            assert_eq!(a.decide(0, 1, seq, 1.0), b.decide(0, 1, seq, 1.0));
        }
    }

    #[test]
    fn lossy_delay_forwards_topology_binding() {
        // Regression (found by gcs-vopr): an unbound distance-aware
        // policy under a lossy wrapper panicked on the first surviving
        // message because LossyDelay swallowed bind_topology.
        let t = Topology::line(3);
        let mut p = LossyDelay::new(Box::new(UniformDelay::new(0.25, 0.75, 3)), 0.2, 9);
        p.bind_topology(&t);
        for seq in 0..20 {
            match p.decide(0, 1, seq, 1.0) {
                DelayOutcome::Delay(d) => assert!(d > 0.0 && d < 1.0),
                DelayOutcome::Drop => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
}
