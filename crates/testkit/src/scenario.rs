//! Declarative scenario builders: topology × drift × delay × algorithm,
//! reproducible from a single seed.

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::drift::{spread_rates, DriftModel};
use gcs_clocks::{DriftBound, LazyDriftSource, RateSchedule};
use gcs_dynamic::{ChurnSchedule, DynamicTopology};
use gcs_net::{
    BroadcastDelay, DelayPolicy, FixedFractionDelay, LossyDelay, Topology, UniformDelay,
};
use gcs_sim::{Execution, Node, NodeId, Simulation, SimulationBuilder};

/// How hardware clock rates are assigned to nodes.
#[derive(Debug, Clone)]
pub enum DriftSpec {
    /// Every clock runs at exactly rate 1 (the replay-friendly baseline).
    Nominal,
    /// Explicit constant per-node rates (length must equal the node count).
    Constant(Vec<f64>),
    /// Constant rates evenly spread across `[1 - rho, 1 + rho]`.
    Spread {
        /// Drift bound `rho`.
        rho: f64,
    },
    /// Bounded random-walk rates re-sampled every `step` time units,
    /// generated from the scenario seed.
    Walk {
        /// Drift bound `rho`.
        rho: f64,
        /// Re-sampling interval in real time.
        step: f64,
        /// Maximum rate change per step.
        max_step_change: f64,
    },
}

/// How message delays are chosen.
#[derive(Debug, Clone)]
pub enum DelaySpec {
    /// Every message from `i` to `j` takes exactly `frac * d_ij`.
    FixedFraction {
        /// Fraction of the distance, in `[0, 1]`.
        frac: f64,
    },
    /// Per-message delays uniform in `[lo_frac, hi_frac] * d_ij`, seeded
    /// from the scenario seed.
    Uniform {
        /// Lower delay fraction.
        lo_frac: f64,
        /// Upper delay fraction.
        hi_frac: f64,
    },
    /// Reference-broadcast style delays: `base` plus a jitter in
    /// `[0, epsilon]`, seeded from the scenario seed.
    Broadcast {
        /// Common propagation delay.
        base: f64,
        /// Receiver-side jitter bound.
        epsilon: f64,
    },
}

/// A fully specified, reproducible simulation scenario.
///
/// A scenario is (topology, drift model, delay policy, algorithm, seed,
/// horizon). Two scenarios with equal parameters produce **bit-identical**
/// [`Execution`]s — the property locked in by
/// [`crate::snapshot::assert_bit_identical`].
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    topology: Topology,
    /// Compiled once when [`Scenario::churn`] is called; cloned into the
    /// engine and handed to oracles, never recompiled.
    dynamic: Option<DynamicTopology>,
    drop_in_flight: bool,
    drift: DriftSpec,
    delay: DelaySpec,
    loss: Option<f64>,
    algorithm: AlgorithmKind,
    seed: u64,
    horizon: f64,
    record: bool,
}

impl Scenario {
    /// A scenario on an arbitrary prebuilt topology.
    ///
    /// Defaults: gradient algorithm (period 1, `kappa` 0.5), nominal drift,
    /// half-distance fixed delays, seed 1, horizon 100.
    #[must_use]
    pub fn on(name: impl Into<String>, topology: Topology) -> Self {
        Scenario {
            name: name.into(),
            topology,
            dynamic: None,
            drop_in_flight: true,
            drift: DriftSpec::Nominal,
            delay: DelaySpec::FixedFraction { frac: 0.5 },
            loss: None,
            algorithm: AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            },
            seed: 1,
            horizon: 100.0,
            record: true,
        }
    }

    /// A line of `n` nodes (the paper's canonical topology).
    #[must_use]
    pub fn line(n: usize) -> Self {
        Self::on(format!("line_{n}"), Topology::line(n))
    }

    /// A ring of `n` nodes.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        Self::on(format!("ring_{n}"), Topology::ring(n))
    }

    /// A `w × h` grid.
    #[must_use]
    pub fn grid(w: usize, h: usize) -> Self {
        Self::on(format!("grid_{w}x{h}"), Topology::grid(w, h))
    }

    /// A star: node 0 is the hub, nodes `1..n` are leaves.
    #[must_use]
    pub fn star(n: usize) -> Self {
        Self::on(format!("star_{n}"), Topology::star(n))
    }

    /// A complete graph on `n` nodes with uniform distance `d`.
    #[must_use]
    pub fn complete(n: usize, d: f64) -> Self {
        Self::on(format!("complete_{n}"), Topology::complete(n, d))
    }

    /// A random geometric graph (deterministic in `seed`).
    #[must_use]
    pub fn random_geometric(n: usize, extent: f64, neighbor_radius: f64, seed: u64) -> Self {
        Self::on(
            format!("rgg_{n}_s{seed}"),
            Topology::random_geometric(n, extent, neighbor_radius, seed),
        )
    }

    /// Overrides the scenario name (used in assertion messages and golden
    /// file headers).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Selects the algorithm under test.
    #[must_use]
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.algorithm = kind;
        self
    }

    /// Sets the seed driving drift generation and delay randomness.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the real-time horizon the simulation runs until.
    #[must_use]
    pub fn horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// All clocks run at exactly rate 1.
    #[must_use]
    pub fn nominal_rates(mut self) -> Self {
        self.drift = DriftSpec::Nominal;
        self
    }

    /// Explicit constant per-node rates.
    #[must_use]
    pub fn constant_rates(mut self, rates: &[f64]) -> Self {
        assert_eq!(
            rates.len(),
            self.topology.len(),
            "one rate per node (scenario `{}`)",
            self.name
        );
        self.drift = DriftSpec::Constant(rates.to_vec());
        self
    }

    /// Constant rates evenly spread across `[1 - rho, 1 + rho]`.
    #[must_use]
    pub fn spread_rates(mut self, rho: f64) -> Self {
        self.drift = DriftSpec::Spread { rho };
        self
    }

    /// Bounded random-walk drift within `rho`, re-sampled every `step`.
    #[must_use]
    pub fn drift_walk(mut self, rho: f64, step: f64, max_step_change: f64) -> Self {
        self.drift = DriftSpec::Walk {
            rho,
            step,
            max_step_change,
        };
        self
    }

    /// Every message takes exactly `frac * d_ij`.
    #[must_use]
    pub fn fixed_delay(mut self, frac: f64) -> Self {
        self.delay = DelaySpec::FixedFraction { frac };
        self
    }

    /// Per-message delays uniform in `[lo_frac, hi_frac] * d_ij`.
    #[must_use]
    pub fn uniform_delay(mut self, lo_frac: f64, hi_frac: f64) -> Self {
        self.delay = DelaySpec::Uniform { lo_frac, hi_frac };
        self
    }

    /// Reference-broadcast delays: `base` plus jitter in `[0, epsilon]`.
    #[must_use]
    pub fn broadcast_delay(mut self, base: f64, epsilon: f64) -> Self {
        self.delay = DelaySpec::Broadcast { base, epsilon };
        self
    }

    /// Makes the scenario dynamic: the topology churns according to
    /// `schedule` (see [`ChurnSchedule`]'s builders for flapping, random
    /// churn, partition-and-heal, and growing/shrinking networks). The
    /// simulation runs through the engine's dynamic path; messages whose
    /// link goes down in flight are dropped unless
    /// [`Scenario::keep_in_flight_on_link_down`] is also set.
    ///
    /// The schedule is compiled into its [`DynamicTopology`] view right
    /// here, once; [`Scenario::dynamic_topology`] and every run reuse it.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references nodes outside the topology.
    #[must_use]
    pub fn churn(mut self, schedule: ChurnSchedule) -> Self {
        let view = DynamicTopology::new(self.topology.clone(), schedule).unwrap_or_else(|e| {
            panic!(
                "scenario `{}` has an invalid churn schedule: {e}",
                self.name
            )
        });
        self.dynamic = Some(view);
        self
    }

    /// In a churn scenario, delivers in-flight messages even when their
    /// link goes down mid-flight (links buffer traffic across outages).
    #[must_use]
    pub fn keep_in_flight_on_link_down(mut self) -> Self {
        self.drop_in_flight = false;
        self
    }

    /// Enables or disables recording (default enabled). With recording
    /// off the scenario runs in the engine's streaming mode — message
    /// slots recycled, no event records, trajectories compacted behind
    /// the probe frontier — so metrics must come from observers (see
    /// [`Scenario::run_observed`]). Golden snapshots and oracles that
    /// read the event or message log require recording.
    #[must_use]
    pub fn record_events(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Drops each message independently with probability `loss`.
    ///
    /// `loss` must be in `[0, 1)` — the range `LossyDelay` accepts; a loss
    /// of exactly 1 would silence the network entirely.
    #[must_use]
    pub fn message_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss = Some(loss);
        self
    }

    /// The scenario's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The scenario's horizon.
    #[must_use]
    pub fn horizon_time(&self) -> f64 {
        self.horizon
    }

    /// The scenario's churn schedule, if it is a dynamic scenario.
    #[must_use]
    pub fn churn_schedule(&self) -> Option<&ChurnSchedule> {
        self.dynamic.as_ref().map(DynamicTopology::schedule)
    }

    /// The compiled dynamic-topology view for a churn scenario (the same
    /// view the engine uses — hand it to the churn oracles
    /// [`crate::oracle::assert_weak_gradient_property`] and
    /// [`crate::oracle::assert_stabilization`]). `None` for static
    /// scenarios. Compiled once in [`Scenario::churn`]; this is a clone.
    #[must_use]
    pub fn dynamic_topology(&self) -> Option<DynamicTopology> {
        self.dynamic.clone()
    }

    /// The scenario's algorithm.
    #[must_use]
    pub fn algorithm_kind(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// The scenario's seed.
    #[must_use]
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The scenario's drift specification.
    #[must_use]
    pub fn drift_spec(&self) -> &DriftSpec {
        &self.drift
    }

    /// The drift bound `rho` this scenario's rates respect: every
    /// hardware rate stays in `[1 - rho, 1 + rho]`, so hardware readings
    /// stay within `rho * t` of real time. This is the uncertainty
    /// radius a time service built over the scenario must budget per
    /// sample (see `gcs-timed`).
    #[must_use]
    pub fn drift_rho(&self) -> f64 {
        match &self.drift {
            DriftSpec::Nominal => 0.0,
            DriftSpec::Constant(rates) => rates.iter().map(|r| (r - 1.0).abs()).fold(0.0, f64::max),
            DriftSpec::Spread { rho } | DriftSpec::Walk { rho, .. } => *rho,
        }
    }

    /// For a random-walk drift scenario, the [`LazyDriftSource`] that
    /// regenerates exactly [`Scenario::schedules`] windowed on demand
    /// (walk capped at the scenario horizon, so the two representations
    /// are bit-identical everywhere). `None` for other drift specs.
    ///
    /// Streaming runs ([`Scenario::record_events`]`(false)`) use this
    /// source automatically, which keeps live schedule segments O(1) in
    /// the horizon; it is public so tests can drive a *recorded* run
    /// from the lazy path and pin it against the eager goldens.
    #[must_use]
    pub fn lazy_walk_source(&self) -> Option<LazyDriftSource> {
        let DriftSpec::Walk {
            rho,
            step,
            max_step_change,
        } = &self.drift
        else {
            return None;
        };
        let model = DriftModel::new(
            DriftBound::new(*rho).expect("valid rho"),
            *step,
            *max_step_change,
        );
        Some(
            LazyDriftSource::new(model, self.seed, self.topology.len())
                .with_walk_horizon(self.horizon),
        )
    }

    /// The hardware clock schedules this scenario assigns, one per node.
    #[must_use]
    pub fn schedules(&self) -> Vec<RateSchedule> {
        let n = self.topology.len();
        match &self.drift {
            DriftSpec::Nominal => vec![RateSchedule::constant(1.0); n],
            DriftSpec::Constant(rates) => {
                rates.iter().map(|&r| RateSchedule::constant(r)).collect()
            }
            DriftSpec::Spread { rho } => spread_rates(DriftBound::new(*rho).expect("valid rho"), n),
            DriftSpec::Walk {
                rho,
                step,
                max_step_change,
            } => DriftModel::new(
                DriftBound::new(*rho).expect("valid rho"),
                *step,
                *max_step_change,
            )
            .generate_network(self.seed, n, self.horizon),
        }
    }

    /// The delay policy this scenario uses (loss wrapping applied).
    #[must_use]
    pub fn delay_policy(&self) -> Box<dyn DelayPolicy + Send> {
        let inner: Box<dyn DelayPolicy + Send> = match self.delay {
            DelaySpec::FixedFraction { frac } => {
                Box::new(FixedFractionDelay::for_topology(&self.topology, frac))
            }
            DelaySpec::Uniform { lo_frac, hi_frac } => {
                Box::new(UniformDelay::new(lo_frac, hi_frac, self.seed))
            }
            DelaySpec::Broadcast { base, epsilon } => {
                Box::new(BroadcastDelay::new(base, epsilon, self.seed))
            }
        };
        match self.loss {
            Some(loss) => Box::new(LossyDelay::new(inner, loss, self.seed)),
            None => inner,
        }
    }

    /// The engine builder every run of this scenario starts from:
    /// topology or churn view, clock source, delay policy and recording.
    /// Panics as [`Scenario::build_with`] does.
    fn builder(&self) -> SimulationBuilder {
        // Churn scenarios may partition deliberately (or *connect* a
        // disconnected base via EdgeUp events) — but an effectively
        // static view gets no exemption.
        let genuinely_dynamic = self.dynamic.as_ref().is_some_and(|v| !v.is_static());
        assert!(
            genuinely_dynamic || self.topology.is_connected(),
            "scenario `{}`: the topology's neighbor relation is disconnected, so \
             synchronization (and every skew oracle) is vacuous; use a larger \
             neighbor radius or another seed",
            self.name
        );
        let mut builder = match self.dynamic_topology() {
            Some(view) => SimulationBuilder::new_dynamic(view)
                .drop_in_flight_on_link_down(self.drop_in_flight),
            None => SimulationBuilder::new(self.topology.clone()),
        };
        // Streaming random-walk scenarios read their clocks through the
        // lazy source (bit-identical to the eager schedules, O(1) live
        // segments); everything else — and every recorded run, whose
        // goldens pin the eager bytes — keeps the precomputed vector.
        builder = match (self.record, self.lazy_walk_source()) {
            (false, Some(source)) => builder.drift_source(source),
            _ => builder.schedules(self.schedules()),
        };
        builder
            .record_events(self.record)
            .delay_policy(self.delay_policy())
    }

    /// Builds the simulation with custom nodes instead of
    /// [`Scenario::algorithm`]; topology, schedules, and delays still come
    /// from the scenario. One shard: [`Scenario::build_sharded_with`] at
    /// `k = 1`.
    ///
    /// # Panics
    ///
    /// As [`Scenario::build_sharded_with`].
    pub fn build_with<M, N>(&self, make: impl FnMut(NodeId, usize) -> N) -> Simulation<M>
    where
        M: Clone + std::fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
    {
        self.build_sharded_with(1, make)
    }

    /// Builds the simulation for the configured algorithm.
    #[must_use]
    pub fn build(&self) -> Simulation<SyncMsg> {
        let kind = self.algorithm;
        self.build_with(|id, n| kind.build(id, n))
    }

    /// Runs custom nodes to the horizon and returns the recorded
    /// execution: [`Scenario::run_sharded_with`] at `k = 1`.
    pub fn run_with<M, N>(&self, make: impl FnMut(NodeId, usize) -> N) -> Execution<M>
    where
        M: Clone + std::fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
    {
        self.run_sharded_with(1, make)
    }

    /// As [`Scenario::build_with`], with `k` shards (see
    /// [`gcs_sim::SimulationBuilder::shards`]). The produced execution is
    /// bit-identical for every `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if the topology's neighbor relation is disconnected (a
    /// disconnected communication graph can never synchronize, which
    /// silently breaks skew oracles — `random_geometric` with a small
    /// radius is the usual culprit) — unless this is a churn scenario,
    /// where partitions are legitimate, deliberate states. Also panics
    /// when `k > 1` partitions are due and the scenario's clock source or
    /// delay policy cannot be forked across shard threads.
    pub fn build_sharded_with<M, N>(
        &self,
        k: usize,
        make: impl FnMut(NodeId, usize) -> N,
    ) -> Simulation<M>
    where
        M: Clone + std::fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
    {
        self.builder()
            .shards(k)
            .build_with(make)
            .unwrap_or_else(|e| panic!("scenario `{}` failed to build: {e}", self.name))
    }

    /// Runs custom nodes to the horizon with `k` shards and returns the
    /// recorded execution — bit-identical for every `k ≥ 1`.
    pub fn run_sharded_with<M, N>(
        &self,
        k: usize,
        make: impl FnMut(NodeId, usize) -> N,
    ) -> Execution<M>
    where
        M: Clone + std::fmt::Debug + Send + 'static,
        N: Node<M> + Send + 'static,
    {
        self.build_sharded_with(k, make)
            .try_execute_until(self.horizon)
            .unwrap_or_else(|e| panic!("scenario `{}` failed to run: {e}", self.name))
    }

    /// Runs the configured algorithm to the horizon with `k` shards —
    /// bit-identical to [`Scenario::run`] for every `k ≥ 1`.
    #[must_use]
    pub fn run_sharded(&self, k: usize) -> Execution<SyncMsg> {
        let kind = self.algorithm;
        self.run_sharded_with(k, |id, n| kind.build(id, n))
    }

    /// Runs the configured algorithm to the horizon and returns the
    /// recorded execution.
    #[must_use]
    pub fn run(&self) -> Execution<SyncMsg> {
        let kind = self.algorithm;
        self.run_with(|id, n| kind.build(id, n))
    }

    /// Runs the configured algorithm to the horizon, streaming every
    /// event and every probe (at cadence `every`, starting at `from`)
    /// through `observers`, and returns the final execution. Combine with
    /// [`Scenario::record_events`]`(false)` for O(1)-memory metric runs.
    pub fn run_observed(
        &self,
        from: f64,
        every: f64,
        observers: &mut [&mut dyn gcs_sim::Observer],
    ) -> Execution<SyncMsg> {
        let mut sim = self.build();
        sim.set_probe_schedule(from, every);
        sim.try_run_until_observed(self.horizon, observers)
            .unwrap_or_else(|e| panic!("scenario `{}` failed to run: {e}", self.name));
        sim.into_execution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_scenario_defaults_run() {
        let exec = Scenario::line(4).horizon(20.0).run();
        assert_eq!(exec.node_count(), 4);
        assert!((exec.horizon() - 20.0).abs() < 1e-12);
        assert!(!exec.events().is_empty());
    }

    #[test]
    fn every_shape_builds_and_runs() {
        let scenarios = [
            Scenario::line(4),
            Scenario::ring(5),
            Scenario::grid(2, 3),
            Scenario::star(4),
            Scenario::complete(4, 2.0),
            Scenario::random_geometric(6, 5.0, 2.5, 12),
        ];
        for s in scenarios {
            let n = s.topology().len();
            let exec = s.horizon(15.0).run();
            assert_eq!(exec.node_count(), n);
        }
    }

    #[test]
    fn drift_specs_produce_admissible_schedules() {
        let rho = 0.05;
        let bound = DriftBound::new(rho).unwrap();
        for s in [
            Scenario::line(5).spread_rates(rho),
            Scenario::line(5).drift_walk(rho, 10.0, 0.01).horizon(60.0),
        ] {
            for sched in s.schedules() {
                assert!(bound.admits(&sched), "{:?}", s);
            }
        }
    }

    #[test]
    fn constant_rates_length_is_checked() {
        let result = std::panic::catch_unwind(|| {
            let _ = Scenario::line(3).constant_rates(&[1.0, 1.0]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn message_loss_drops_messages() {
        use gcs_sim::MessageStatus;
        let exec = Scenario::line(5)
            .algorithm(AlgorithmKind::Max { period: 0.5 })
            .message_loss(0.5)
            .seed(9)
            .horizon(60.0)
            .run();
        let drops = exec
            .messages()
            .iter()
            .filter(|m| m.status == MessageStatus::Dropped)
            .count();
        assert!(drops > 0, "50% loss should drop something");
    }

    #[test]
    fn churn_scenario_runs_and_records_topology_changes() {
        use gcs_sim::EventKind;
        let exec = Scenario::ring(6)
            .algorithm(AlgorithmKind::DynamicGradient {
                period: 1.0,
                kappa_strong: 0.5,
                kappa_weak: 4.0,
                window: 10.0,
            })
            .churn(ChurnSchedule::periodic_flap(0, 1, 10.0, 50.0))
            .horizon(60.0)
            .run();
        let changes = exec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TopologyChange { .. }))
            .count();
        assert_eq!(changes, 8); // 4 flaps × 2 endpoints
    }

    #[test]
    fn churn_scenarios_are_bit_deterministic() {
        let s = Scenario::ring(6)
            .algorithm(AlgorithmKind::DynamicGradient {
                period: 1.0,
                kappa_strong: 0.5,
                kappa_weak: 4.0,
                window: 10.0,
            })
            .churn(ChurnSchedule::random_churn(
                &[(0, 1), (2, 3), (4, 5)],
                0.1,
                50.0,
                11,
            ))
            .drift_walk(0.02, 8.0, 0.005)
            .uniform_delay(0.1, 0.9)
            .seed(13)
            .horizon(50.0);
        assert_eq!(crate::fingerprint(&s.run()), crate::fingerprint(&s.run()));
    }

    #[test]
    fn disconnected_topology_is_rejected_with_a_clear_error() {
        // Radius barely above the (normalized) minimum distance: seed 7
        // scatters 12 points into several components.
        let result = std::panic::catch_unwind(|| {
            let _ = Scenario::random_geometric(12, 100.0, 1.01, 7)
                .horizon(10.0)
                .run();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("disconnected"), "unhelpful message: {msg}");
    }

    #[test]
    fn empty_churn_gets_no_connectivity_exemption() {
        // An empty schedule is effectively static: the disconnected-graph
        // rejection must still fire.
        let result = std::panic::catch_unwind(|| {
            let _ = Scenario::random_geometric(12, 100.0, 1.01, 7)
                .churn(ChurnSchedule::empty())
                .horizon(10.0)
                .run();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("disconnected"), "unhelpful message: {msg}");
    }

    #[test]
    fn churn_scenarios_may_be_disconnected_by_design() {
        // A partition cuts the ring in two; construction must not reject
        // the (connected) base just because churn will partition it — and
        // the partition itself is exactly what the scenario studies.
        let exec = Scenario::ring(4)
            .churn(ChurnSchedule::partition_and_heal(
                &[(0, 3), (1, 2)],
                5.0,
                15.0,
            ))
            .horizon(30.0)
            .run();
        assert_eq!(exec.node_count(), 4);
    }

    #[test]
    fn streaming_walk_scenarios_use_the_lazy_source() {
        use gcs_sim::GlobalSkewObserver;
        let scenario = Scenario::ring(8)
            .drift_walk(0.02, 2.0, 0.005)
            .seed(5)
            .horizon(2000.0)
            .record_events(false);
        assert!(scenario.lazy_walk_source().is_some());
        let mut sim = scenario.build();
        sim.set_probe_schedule(0.0, 10.0);
        let mut global = GlobalSkewObserver::new();
        let mut peak = 0;
        for k in 1..=20 {
            sim.try_run_until_observed(2000.0 * f64::from(k) / 20.0, &mut [&mut global])
                .unwrap();
            peak = peak.max(sim.stats().live_schedule_segments);
        }
        // 1000 walk steps per node if held eagerly; the lazy window
        // stays a few windows per node.
        let eager_total: usize = scenario
            .schedules()
            .iter()
            .map(|s| s.segments().len())
            .sum();
        assert!(
            peak * 4 < eager_total,
            "lazy window did not stay flat: peak {peak} vs eager {eager_total}"
        );

        // And the metrics are bit-equal to the same streaming run driven
        // from the eager schedules (the lazy source is invisible).
        let mut eager_sim = gcs_sim::SimulationBuilder::new(scenario.topology().clone())
            .record_events(false)
            .schedules(scenario.schedules())
            .delay_policy(scenario.delay_policy())
            .build_with(|id, n| scenario.algorithm_kind().build(id, n))
            .unwrap();
        eager_sim.set_probe_schedule(0.0, 10.0);
        let mut eager_global = GlobalSkewObserver::new();
        eager_sim
            .try_run_until_observed(2000.0, &mut [&mut eager_global])
            .unwrap();
        assert_eq!(global.worst().to_bits(), eager_global.worst().to_bits());
        assert_eq!(
            global.worst_at().to_bits(),
            eager_global.worst_at().to_bits()
        );
    }

    #[test]
    fn non_walk_scenarios_have_no_lazy_source() {
        assert!(Scenario::line(4).lazy_walk_source().is_none());
        assert!(Scenario::line(4)
            .spread_rates(0.02)
            .lazy_walk_source()
            .is_none());
    }

    #[test]
    fn same_scenario_is_bit_deterministic() {
        let s = Scenario::ring(5)
            .drift_walk(0.03, 8.0, 0.01)
            .uniform_delay(0.1, 0.9)
            .seed(41)
            .horizon(50.0);
        let (a, b) = (s.run(), s.run());
        assert_eq!(crate::fingerprint(&a), crate::fingerprint(&b));
    }
}
