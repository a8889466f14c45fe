//! Scenario specs: a plain-data description of one fuzz case, derived
//! deterministically from a single `u64` seed.
//!
//! [`VoprScenario::from_seed`] is a *pure function* of the seed: the same
//! seed always yields a byte-identical spec (pinned by a property test),
//! so a failing seed printed by the fuzzer is a complete repro. The spec
//! is deliberately dumb data — every field is public so shrunken
//! counterexamples can be committed verbatim as regression tests.

use gcs_algorithms::fault::{CrashingNode, SilencedNode};
use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_dynamic::{ChurnEvent, ChurnKind, ChurnSchedule};
use gcs_sim::{Node, NodeId};
use gcs_testkit::{DelaySpec, DriftSpec, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Topology family × size. A separate enum (rather than a built
/// [`gcs_net::Topology`]) so the shrinker can walk sizes and downgrade
/// families structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// A path of `n` nodes.
    Line {
        /// Node count (≥ 1).
        n: usize,
    },
    /// A cycle of `n` nodes.
    Ring {
        /// Node count (≥ 3).
        n: usize,
    },
    /// A `rows × cols` grid.
    Grid {
        /// Grid rows (≥ 2).
        rows: usize,
        /// Grid columns (≥ 2).
        cols: usize,
    },
    /// A hub-and-spokes star of `n` nodes.
    Star {
        /// Node count (≥ 2).
        n: usize,
    },
    /// The complete graph on `n` nodes, unit edge distance.
    Complete {
        /// Node count (≥ 2).
        n: usize,
    },
}

impl TopologySpec {
    /// The number of nodes this family/size pair builds.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::Line { n }
            | TopologySpec::Ring { n }
            | TopologySpec::Star { n }
            | TopologySpec::Complete { n } => n,
            TopologySpec::Grid { rows, cols } => rows * cols,
        }
    }

    /// The family name (for reports).
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::Line { .. } => "line",
            TopologySpec::Ring { .. } => "ring",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Star { .. } => "star",
            TopologySpec::Complete { .. } => "complete",
        }
    }

    fn scenario(&self) -> Scenario {
        match *self {
            TopologySpec::Line { n } => Scenario::line(n),
            TopologySpec::Ring { n } => Scenario::ring(n),
            TopologySpec::Grid { rows, cols } => Scenario::grid(cols, rows),
            TopologySpec::Star { n } => Scenario::star(n),
            TopologySpec::Complete { n } => Scenario::complete(n, 1.0),
        }
    }
}

/// One edge-level churn event against the base topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Real time the change takes effect (finite, ≥ 0).
    pub time: f64,
    /// First endpoint.
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// `true` brings the edge up, `false` takes it down. Redundant
    /// events (downing a down edge) are legal — the dynamic view elides
    /// them — which keeps single-event removal a sound shrink step.
    pub up: bool,
}

/// A node-level fault wrapper applied to one node's algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The node stops participating at hardware time `at`.
    Crash {
        /// The faulty node.
        node: usize,
        /// Hardware crash time.
        at: f64,
    },
    /// The node is mute on hardware interval `[from, to)`.
    Silence {
        /// The faulty node.
        node: usize,
        /// Window start (hardware clock).
        from: f64,
        /// Window end (hardware clock).
        to: f64,
    },
}

/// A delay policy that hands the engine a non-finite value — the input
/// class the typed [`gcs_sim::SimError::NonFiniteDelay`] error exists
/// for. Hostile scenarios *expect* the typed error; a panic or a clean
/// run is the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileDelay {
    /// Every delay decision is `NaN`.
    Nan,
    /// Every delivery is pinned to receiver hardware reading `+∞`
    /// ([`gcs_net::DelayOutcome::ArriveAtHw`]).
    Infinite,
}

/// Everything one fuzz case needs, as plain data.
///
/// Derived from one seed by [`VoprScenario::from_seed`]; executable via
/// [`VoprScenario::to_scenario`] + [`VoprScenario::make_nodes`]. The
/// shrinker mutates copies of this struct directly.
#[derive(Debug, Clone)]
pub struct VoprScenario {
    /// The originating fuzzer seed (also used as the run's RNG seed).
    pub seed: u64,
    /// Topology family × size.
    pub topology: TopologySpec,
    /// Hardware-clock drift model.
    pub drift: DriftSpec,
    /// Message delay model.
    pub delay: DelaySpec,
    /// Independent message-loss probability, if any.
    pub loss: Option<f64>,
    /// Edge churn events (empty = static topology).
    pub churn: Vec<ChurnSpec>,
    /// Whether link-down churn drops in-flight messages.
    pub drop_in_flight: bool,
    /// At most one faulty node.
    pub fault: Option<FaultSpec>,
    /// The algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Probe grid start (finite, ≥ 0; may exceed the horizon, which is a
    /// legal empty grid).
    pub probe_from: f64,
    /// Probe grid cadence (finite, > 0).
    pub probe_every: f64,
    /// Real-time horizon (finite, ≥ 0).
    pub horizon: f64,
    /// If set, replace the delay model with a non-finite adversary and
    /// expect the typed error.
    pub hostile: Option<HostileDelay>,
}

impl VoprScenario {
    /// Derives the entire scenario from one seed. Pure: same seed, same
    /// spec, byte for byte, on every platform (the vendored `StdRng` is
    /// deterministic and portable).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let class = rng.random_range(0..100u32);
        if class < 6 {
            Self::degenerate(seed, &mut rng)
        } else if class < 10 {
            Self::hostile(seed, &mut rng)
        } else {
            Self::mainstream(seed, &mut rng)
        }
    }

    /// A minimal, boring baseline every generator starts from.
    fn base(seed: u64) -> Self {
        Self {
            seed,
            topology: TopologySpec::Line { n: 2 },
            drift: DriftSpec::Nominal,
            delay: DelaySpec::FixedFraction { frac: 0.5 },
            loss: None,
            churn: Vec::new(),
            drop_in_flight: false,
            fault: None,
            algorithm: AlgorithmKind::Max { period: 1.0 },
            probe_from: 0.0,
            probe_every: 1.0,
            horizon: 20.0,
            hostile: None,
        }
    }

    /// Degenerate classes: inputs that *used to* panic or silently
    /// misbehave. Kept in the seed stream forever so the fixes stay
    /// fixed.
    fn degenerate(seed: u64, rng: &mut StdRng) -> Self {
        let mut s = Self::base(seed);
        match rng.random_range(0..4u32) {
            // A single node: no edges, no messages, every oracle must
            // still be well-defined.
            0 => {
                s.topology = TopologySpec::Line { n: 1 };
                s.horizon = 10.0;
            }
            // A zero-length horizon: only the Start events exist.
            1 => {
                s.topology = TopologySpec::Ring { n: 4 };
                s.horizon = 0.0;
            }
            // An empty probe grid (first probe past the horizon).
            2 => {
                s.topology = TopologySpec::Line { n: 4 };
                s.horizon = 5.0;
                s.probe_from = 10.0;
            }
            // Churn at t = 0: the initial graph is already churned.
            _ => {
                s.topology = TopologySpec::Ring { n: 4 };
                s.churn = vec![ChurnSpec {
                    time: 0.0,
                    a: 0,
                    b: 1,
                    up: false,
                }];
            }
        }
        s
    }

    /// Hostile classes: the delay adversary hands the engine a
    /// non-finite value; the check expects the typed error.
    fn hostile(seed: u64, rng: &mut StdRng) -> Self {
        let mut s = Self::base(seed);
        s.topology = TopologySpec::Line {
            n: rng.random_range(2..=4usize),
        };
        s.horizon = 5.0;
        s.hostile = Some(if rng.random_bool(0.5) {
            HostileDelay::Nan
        } else {
            HostileDelay::Infinite
        });
        s
    }

    /// The mainstream generator: the full cross product of families,
    /// drift, delays, loss, churn, faults, and algorithms.
    fn mainstream(seed: u64, rng: &mut StdRng) -> Self {
        let mut s = Self::base(seed);

        s.topology = match rng.random_range(0..5u32) {
            0 => TopologySpec::Line {
                n: rng.random_range(2..=12usize),
            },
            1 => TopologySpec::Ring {
                n: rng.random_range(3..=12usize),
            },
            2 => TopologySpec::Grid {
                rows: rng.random_range(2..=3usize),
                cols: rng.random_range(2..=4usize),
            },
            3 => TopologySpec::Star {
                n: rng.random_range(2..=10usize),
            },
            _ => TopologySpec::Complete {
                n: rng.random_range(3..=8usize),
            },
        };
        let n = s.topology.node_count();

        s.horizon = rng.random_range(20.0..120.0);

        s.drift = match rng.random_range(0..10u32) {
            0 | 1 => DriftSpec::Nominal,
            2..=4 => DriftSpec::Spread {
                rho: rng.random_range(0.0005..0.02),
            },
            _ => {
                let rho = rng.random_range(0.0005..0.02);
                DriftSpec::Walk {
                    rho,
                    step: rng.random_range(2.0..8.0),
                    max_step_change: rho / 2.0,
                }
            }
        };

        // Broadcast delays model a shared medium whose base + jitter must
        // stay under every link distance; all families here have unit
        // edges, so base + epsilon ≤ 0.9 is always inside the model.
        s.delay = match rng.random_range(0..10u32) {
            0..=3 => DelaySpec::FixedFraction {
                frac: rng.random_range(0.1..0.9),
            },
            4..=7 => {
                let lo = rng.random_range(0.05..0.4);
                DelaySpec::Uniform {
                    lo_frac: lo,
                    hi_frac: rng.random_range((lo + 0.1)..0.95),
                }
            }
            _ => DelaySpec::Broadcast {
                base: rng.random_range(0.2..0.6),
                epsilon: rng.random_range(0.05..0.3),
            },
        };

        if rng.random_bool(0.3) {
            s.loss = Some(rng.random_range(0.05..0.3));
        }

        if n >= 3 && rng.random_bool(0.35) {
            s.churn = Self::gen_churn(rng, &s.topology, s.horizon);
            s.drop_in_flight = rng.random_bool(0.5);
        }

        if n >= 3 && rng.random_bool(0.25) {
            let node = rng.random_range(0..n);
            s.fault = Some(if rng.random_bool(0.5) {
                FaultSpec::Crash {
                    node,
                    at: rng.random_range(0.2..0.8) * s.horizon,
                }
            } else {
                let from = rng.random_range(0.1..0.5) * s.horizon;
                FaultSpec::Silence {
                    node,
                    from,
                    to: from + rng.random_range(0.1..0.4) * s.horizon,
                }
            });
        }

        let period = rng.random_range(0.5..3.0);
        s.algorithm = match rng.random_range(0..100u32) {
            0..=4 => AlgorithmKind::NoSync,
            5..=29 => AlgorithmKind::Max { period },
            30..=44 => AlgorithmKind::OffsetMax {
                period,
                compensation: rng.random_range(0.0..1.0),
            },
            45..=64 => AlgorithmKind::Gradient {
                period,
                kappa: rng.random_range(0.25..2.0),
            },
            65..=74 => AlgorithmKind::GradientRate {
                period,
                threshold: rng.random_range(0.1..1.0),
                boost: rng.random_range(1.1..2.0),
            },
            75..=89 => AlgorithmKind::DynamicGradient {
                period,
                kappa_strong: rng.random_range(0.25..1.0),
                kappa_weak: rng.random_range(2.0..6.0),
                window: rng.random_range(2.0..8.0),
            },
            90..=94 => AlgorithmKind::Rbs { period },
            _ => AlgorithmKind::TreeSync { period },
        };

        s.probe_from = rng.random_range(0.0..(s.horizon / 4.0));
        s.probe_every = rng.random_range((s.horizon / 40.0)..(s.horizon / 8.0));
        s
    }

    /// Alternating down/up flaps over base edges, strictly increasing in
    /// time, all inside `(1, 0.8 · horizon)`.
    fn gen_churn(rng: &mut StdRng, topology: &TopologySpec, horizon: f64) -> Vec<ChurnSpec> {
        let base = topology.scenario().topology().clone();
        let mut edges: Vec<(usize, usize)> = base.pairs().collect();
        edges.sort_unstable();
        if edges.is_empty() || horizon <= 2.0 {
            return Vec::new();
        }
        let count = rng.random_range(1..=6usize);
        let mut events = Vec::with_capacity(count);
        let mut t = 1.0;
        let span = (horizon * 0.8 - 1.0).max(0.5);
        for k in 0..count {
            let (a, b) = edges[rng.random_range(0..edges.len())];
            t += rng.random_range(0.05..1.0) * span / count as f64;
            events.push(ChurnSpec {
                time: t,
                a,
                b,
                // Even events take an edge down, odd ones bring one back:
                // a flapping network that never strays far from the base.
                up: k % 2 == 1,
            });
        }
        events
    }

    /// Node count of the base topology.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// The churn schedule, if any events are present.
    #[must_use]
    pub fn churn_schedule(&self) -> Option<ChurnSchedule> {
        if self.churn.is_empty() {
            return None;
        }
        Some(ChurnSchedule::new(
            self.churn
                .iter()
                .map(|c| ChurnEvent {
                    time: c.time,
                    kind: if c.up {
                        ChurnKind::EdgeUp { a: c.a, b: c.b }
                    } else {
                        ChurnKind::EdgeDown { a: c.a, b: c.b }
                    },
                })
                .collect(),
        ))
    }

    /// Compiles the spec into an executable testkit [`Scenario`].
    /// Hostile delay is *not* represented here (the harness swaps the
    /// delay policy itself); everything else is.
    #[must_use]
    pub fn to_scenario(&self) -> Scenario {
        let mut s = self
            .topology
            .scenario()
            .algorithm(self.algorithm)
            .seed(self.seed)
            .horizon(self.horizon)
            .named(format!("vopr-{:#018x}", self.seed));
        s = match &self.drift {
            DriftSpec::Nominal => s.nominal_rates(),
            DriftSpec::Constant(rates) => s.constant_rates(rates),
            DriftSpec::Spread { rho } => s.spread_rates(*rho),
            DriftSpec::Walk {
                rho,
                step,
                max_step_change,
            } => s.drift_walk(*rho, *step, *max_step_change),
        };
        s = match self.delay {
            DelaySpec::FixedFraction { frac } => s.fixed_delay(frac),
            DelaySpec::Uniform { lo_frac, hi_frac } => s.uniform_delay(lo_frac, hi_frac),
            DelaySpec::Broadcast { base, epsilon } => s.broadcast_delay(base, epsilon),
        };
        if let Some(loss) = self.loss {
            s = s.message_loss(loss);
        }
        if let Some(schedule) = self.churn_schedule() {
            s = s.churn(schedule);
            if !self.drop_in_flight {
                s = s.keep_in_flight_on_link_down();
            }
        }
        s
    }

    /// The node factory: the configured algorithm under a *uniform*
    /// fault-wrapper stack (crash over silence), inert where no fault is
    /// configured. One closure type serves the run, the streaming rerun,
    /// and replay verification identically.
    pub fn make_nodes(
        &self,
    ) -> impl FnMut(NodeId, usize) -> CrashingNode<SilencedNode<Box<dyn Node<SyncMsg> + Send>>> + '_
    {
        let kind = self.algorithm;
        let fault = self.fault;
        move |id, n| {
            let inner = kind.build(id, n);
            // Inert windows: a silence window entirely past any
            // reachable hardware time, and a crash "never".
            let (sf, st) = match fault {
                Some(FaultSpec::Silence { node, from, to }) if node == id => (from, to),
                _ => (f64::MAX / 4.0, f64::MAX / 2.0),
            };
            let crash_at = match fault {
                Some(FaultSpec::Crash { node, at }) if node == id => at,
                _ => f64::MAX / 2.0,
            };
            CrashingNode::new(SilencedNode::new(inner, sf, st), crash_at)
        }
    }

    /// A deterministic, strictly-monotone size measure for the shrinker:
    /// every shrink axis reduces its own term without growing another,
    /// so accepted shrinks strictly decrease the score.
    #[must_use]
    pub fn complexity(&self) -> u64 {
        let drift_rank = match self.drift {
            DriftSpec::Nominal => 0,
            DriftSpec::Constant(_) | DriftSpec::Spread { .. } => 1,
            DriftSpec::Walk { .. } => 2,
        };
        let delay_rank = match self.delay {
            DelaySpec::FixedFraction { .. } => 0,
            DelaySpec::Uniform { .. } | DelaySpec::Broadcast { .. } => 1,
        };
        let probes = if self.probe_from <= self.horizon {
            ((self.horizon - self.probe_from) / self.probe_every) as u64 + 1
        } else {
            0
        };
        (self.node_count() as u64) * 1_000_000
            + (self.churn.len() as u64) * 50_000
            + (self.horizon.ceil() as u64) * 100
            + drift_rank * 40
            + delay_rank * 20
            + u64::from(self.fault.is_some()) * 10
            + u64::from(self.loss.is_some()) * 10
            + probes.min(99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec() {
        for seed in 0..200u64 {
            let a = VoprScenario::from_seed(seed);
            let b = VoprScenario::from_seed(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }

    #[test]
    fn classes_are_all_reachable() {
        let mut degenerate = 0;
        let mut hostile = 0;
        let mut churned = 0;
        let mut faulty = 0;
        for seed in 0..400u64 {
            let s = VoprScenario::from_seed(seed);
            if s.hostile.is_some() {
                hostile += 1;
            } else if s.node_count() == 1 || s.horizon == 0.0 || s.probe_from > s.horizon {
                degenerate += 1;
            }
            if !s.churn.is_empty() {
                churned += 1;
            }
            if s.fault.is_some() {
                faulty += 1;
            }
        }
        assert!(degenerate > 0, "no degenerate scenarios in 400 seeds");
        assert!(hostile > 0, "no hostile scenarios in 400 seeds");
        assert!(churned > 20, "churn underrepresented: {churned}");
        assert!(faulty > 20, "faults underrepresented: {faulty}");
    }

    #[test]
    fn specs_always_satisfy_their_own_invariants() {
        for seed in 0..400u64 {
            let s = VoprScenario::from_seed(seed);
            assert!(s.horizon.is_finite() && s.horizon >= 0.0);
            assert!(s.probe_from.is_finite() && s.probe_from >= 0.0);
            assert!(s.probe_every.is_finite() && s.probe_every > 0.0);
            for c in &s.churn {
                assert!(c.time.is_finite() && c.time >= 0.0);
                assert!(c.a < s.node_count() && c.b < s.node_count() && c.a != c.b);
            }
            if let Some(FaultSpec::Crash { node, at }) = s.fault {
                assert!(node < s.node_count() && at.is_finite() && at >= 0.0);
            }
            if let Some(FaultSpec::Silence { node, from, to }) = s.fault {
                assert!(node < s.node_count() && from >= 0.0 && from < to);
            }
            if let Some(loss) = s.loss {
                assert!((0.0..1.0).contains(&loss));
            }
        }
    }

    #[test]
    fn complexity_is_positive_and_tracks_nodes() {
        let small = VoprScenario::base(0);
        let mut big = VoprScenario::base(0);
        big.topology = TopologySpec::Ring { n: 8 };
        assert!(big.complexity() > small.complexity());
    }
}
