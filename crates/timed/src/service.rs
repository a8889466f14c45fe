//! The time service: a simulation co-driven behind a snapshot-sealing
//! epoch pipeline.
//!
//! [`TimeService`] owns a [`Simulation`] and advances it on demand
//! ([`TimeService::advance_to`]) through the engine's non-consuming
//! stepping core. Every probe tick (cadence [`TimedParams::seal_every`])
//! it samples each node's logical clock, budgets a drift/delay-derived
//! uncertainty radius per sample, and seals an immutable [`Snapshot`] —
//! the Marzullo intersection at quorum, watermarked so reads never go
//! backward. All queries between two probes are answered from the
//! current sealed snapshot without touching the simulation.
//!
//! The service also audits itself: because it *is* the simulation
//! driver, it knows true simulation time at every seal and counts
//! containment violations (sealed interval excluding true time). For
//! algorithms whose logical clocks stay inside the hardware drift
//! envelope that counter must stay zero — the invariant the vopr oracle
//! stage and the loopback example assert.

use std::sync::Arc;

use gcs_algorithms::SyncMsg;
use gcs_sim::{Node, NodeId, Observer, Probe, Simulation};
use gcs_testkit::Scenario;

use crate::snapshot::{ClockSample, Snapshot};

/// A small additive floor on every uncertainty radius, absorbing
/// floating-point slop in schedule integration so nominal-drift samples
/// still contain true time exactly.
pub const RADIUS_EPS: f64 = 1e-9;

/// Sealing parameters for a [`TimeService`].
#[derive(Debug, Clone, Copy)]
pub struct TimedParams {
    /// Probe cadence in simulation time: one sealed epoch per tick.
    pub seal_every: f64,
    /// Intersection quorum; `None` means majority (`n / 2 + 1`).
    pub quorum: Option<usize>,
    /// Drift bound `rho`: per-sample radius grows as `rho * t`.
    pub rho: f64,
    /// Additive radius component for algorithms that deliberately run
    /// ahead of hardware time (delay compensation); zero otherwise.
    pub delay_slack: f64,
    /// Retain every sealed snapshot for post-hoc audit (tests, oracles).
    /// The serving daemon leaves this off and keeps O(1) state.
    pub audit: bool,
}

impl Default for TimedParams {
    fn default() -> Self {
        TimedParams {
            seal_every: 1.0,
            quorum: None,
            rho: 0.0,
            delay_slack: 0.0,
            audit: false,
        }
    }
}

/// Counters the service maintains across seals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Epochs sealed so far (excluding genesis).
    pub seals: u64,
    /// Seals where the low-watermark clamped a regressing interval.
    pub clamps: u64,
    /// Probe ticks where no point reached quorum coverage (the previous
    /// snapshot kept serving).
    pub no_quorum: u64,
    /// Seals whose interval did not contain true simulation time.
    /// Stays zero for drift-envelope algorithms; see module docs.
    pub containment_violations: u64,
    /// Width of the most recent sealed interval.
    pub last_width: f64,
    /// Maximum sealed interval width seen.
    pub max_width: f64,
}

/// A bounded-uncertainty time read served from the current snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalRead {
    /// The sealed epoch the read came from.
    pub epoch: u64,
    /// Lower bound on cluster time (monotone across epochs).
    pub lo: f64,
    /// Upper bound on cluster time.
    pub hi: f64,
    /// Monotone scalar cluster time.
    pub cluster_time: f64,
    /// Simulation time at which the epoch was sealed.
    pub sealed_at: f64,
}

/// Collects one row of logical readings per probe tick.
#[derive(Default)]
struct SampleCollector {
    rows: Vec<(f64, Vec<f64>)>,
}

impl Observer for SampleCollector {
    fn on_probe(&mut self, view: &Probe<'_>) {
        let readings = (0..view.node_count()).map(|i| view.logical(i)).collect();
        self.rows.push((view.time(), readings));
    }
}

/// Clock synchronization as a queryable service (see module docs).
///
/// Generic over the simulation's message type so oracle harnesses can
/// wrap instrumented nodes; the serving daemon uses the default
/// [`SyncMsg`].
pub struct TimeService<M = SyncMsg> {
    sim: Simulation<M>,
    params: TimedParams,
    quorum: usize,
    current: Arc<Snapshot>,
    history: Vec<Arc<Snapshot>>,
    stats: ServiceStats,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> TimeService<M> {
    /// Wraps a prebuilt simulation. The service takes over the probe
    /// schedule (`set_probe_schedule(0, seal_every)`).
    ///
    /// # Panics
    ///
    /// Panics if `seal_every` is not positive and finite.
    #[must_use]
    pub fn with_sim(mut sim: Simulation<M>, params: TimedParams) -> Self {
        assert!(
            params.seal_every.is_finite() && params.seal_every > 0.0,
            "seal_every must be positive and finite"
        );
        sim.set_probe_schedule(0.0, params.seal_every);
        let n = sim.node_count();
        let quorum = params.quorum.unwrap_or(n / 2 + 1);
        let current = Arc::new(Snapshot::genesis(n));
        let history = if params.audit {
            vec![Arc::clone(&current)]
        } else {
            Vec::new()
        };
        TimeService {
            sim,
            params,
            quorum,
            current,
            history,
            stats: ServiceStats::default(),
        }
    }

    /// Builds the service over a testkit scenario with custom nodes,
    /// defaulting `rho` to the scenario's drift bound when the caller
    /// passes `params.rho = 0` on a drifting scenario.
    #[must_use]
    pub fn from_scenario_with<N>(
        scenario: &Scenario,
        mut params: TimedParams,
        make: impl FnMut(NodeId, usize) -> N,
    ) -> Self
    where
        N: Node<M> + Send + 'static,
    {
        if params.rho == 0.0 {
            params.rho = scenario.drift_rho();
        }
        Self::with_sim(scenario.build_with(make), params)
    }

    /// Advances the simulation to time `t`, sealing one epoch per probe
    /// tick crossed. Returns the number of epochs sealed. Idempotent for
    /// a horizon already reached.
    ///
    /// # Panics
    ///
    /// Panics with the [`gcs_sim::SimError`] if the simulation cannot
    /// advance to `t` (e.g. `t` is not finite).
    pub fn advance_to(&mut self, t: f64) -> usize {
        let mut collector = SampleCollector::default();
        self.sim
            .try_run_until_observed(t, &mut [&mut collector])
            .expect("the served simulation advances");
        let mut sealed = 0;
        for (at, readings) in collector.rows {
            if self.seal_row(at, &readings) {
                sealed += 1;
            }
        }
        sealed
    }

    fn seal_row(&mut self, at: f64, readings: &[f64]) -> bool {
        let radius = self.params.rho * at + self.params.delay_slack + RADIUS_EPS;
        let samples: Vec<ClockSample> = readings
            .iter()
            .enumerate()
            .map(|(node, &reading)| ClockSample {
                node,
                reading,
                radius,
            })
            .collect();
        let epoch = self.current.epoch + 1;
        match Snapshot::seal(epoch, at, self.quorum, samples, &self.current) {
            Some(snap) => {
                self.stats.seals += 1;
                self.stats.clamps += u64::from(snap.clamped);
                self.stats.last_width = snap.interval.width();
                self.stats.max_width = self.stats.max_width.max(self.stats.last_width);
                if !snap.interval.contains(at) {
                    self.stats.containment_violations += 1;
                }
                self.current = Arc::new(snap);
                if self.params.audit {
                    self.history.push(Arc::clone(&self.current));
                }
                true
            }
            None => {
                self.stats.no_quorum += 1;
                false
            }
        }
    }

    /// The current bounded-uncertainty read (never blocks, never touches
    /// the simulation).
    #[must_use]
    pub fn read_interval(&self) -> IntervalRead {
        let s = &*self.current;
        IntervalRead {
            epoch: s.epoch,
            lo: s.interval.lo,
            hi: s.interval.hi,
            cluster_time: s.cluster_time,
            sealed_at: s.sealed_at,
        }
    }

    /// The monotone scalar cluster time.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.current.cluster_time
    }

    /// The currently sealed snapshot (cheaply cloneable handle).
    #[must_use]
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current)
    }

    /// All sealed snapshots, genesis first — empty unless
    /// [`TimedParams::audit`] was set.
    #[must_use]
    pub fn history(&self) -> &[Arc<Snapshot>] {
        &self.history
    }

    /// The service's counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The sealing parameters.
    #[must_use]
    pub fn params(&self) -> TimedParams {
        self.params
    }

    /// The effective quorum.
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Current simulation time (the upper bound on sealed epochs so far).
    #[must_use]
    pub fn sim_now(&self) -> f64 {
        self.sim.now()
    }

    /// The simulated cluster size.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.sim.node_count()
    }
}

impl TimeService<SyncMsg> {
    /// Builds the service over a testkit scenario with the scenario's
    /// configured algorithm, deriving `rho` from its drift spec when the
    /// caller leaves `params.rho` at zero.
    #[must_use]
    pub fn from_scenario(scenario: &Scenario, mut params: TimedParams) -> Self {
        if params.rho == 0.0 {
            params.rho = scenario.drift_rho();
        }
        Self::with_sim(scenario.build(), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_algorithms::AlgorithmKind;

    fn service(audit: bool) -> TimeService {
        let sc = Scenario::line(4)
            .algorithm(AlgorithmKind::Max { period: 1.0 })
            .drift_walk(0.01, 5.0, 0.002)
            .uniform_delay(0.2, 0.8)
            .record_events(false)
            .horizon(50.0);
        TimeService::from_scenario(
            &sc,
            TimedParams {
                seal_every: 1.0,
                audit,
                ..TimedParams::default()
            },
        )
    }

    #[test]
    fn seals_one_epoch_per_probe_tick() {
        let mut svc = service(false);
        let sealed = svc.advance_to(10.0);
        // Probes at 0, 1, ..., 10 inclusive.
        assert_eq!(sealed, 11);
        assert_eq!(svc.read_interval().epoch, 11);
        assert_eq!(svc.stats().seals, 11);
        // Re-advancing to the same horizon seals nothing new.
        assert_eq!(svc.advance_to(10.0), 0);
    }

    #[test]
    fn intervals_contain_true_time_and_never_regress() {
        let mut svc = service(true);
        svc.advance_to(50.0);
        assert_eq!(svc.stats().containment_violations, 0);
        let history = svc.history();
        assert!(history.len() > 10);
        for pair in history.windows(2) {
            assert!(pair[1].interval.lo >= pair[0].interval.lo);
            assert!(pair[1].cluster_time >= pair[0].cluster_time);
            assert!(pair[1].epoch == pair[0].epoch + 1);
        }
    }

    #[test]
    fn incremental_advance_equals_one_shot() {
        let mut a = service(false);
        let mut b = service(false);
        a.advance_to(30.0);
        for k in 1..=10 {
            b.advance_to(3.0 * f64::from(k));
        }
        assert_eq!(
            a.snapshot().encode(),
            b.snapshot().encode(),
            "stepwise and one-shot drives must seal identical state"
        );
    }

    #[test]
    fn majority_quorum_default() {
        let svc = service(false);
        assert_eq!(svc.quorum(), 3);
    }
}
