//! The check harness: runs one [`VoprScenario`] through the full oracle
//! stack, treating oracle violations *and* panics as failures.
//!
//! Every oracle stage runs inside `catch_unwind`, so a failure names the
//! stage that tripped and carries the panic message — the shrinker and
//! the CLI report both. The stack (gating noted per stage):
//!
//! 1. **run** — build + execute; any panic here is a failure.
//! 2. **determinism** — a second run must be fingerprint-identical.
//! 3. **validity** — logical clocks behave like clocks (skipped for
//!    jump-based `Rbs`/`TreeSync`, which violate rate validity by design).
//! 4. **gradient** — skew within a generous envelope as a function of
//!    distance (static topologies only; the envelope is a model-sanity
//!    bound, not the paper's tight bound).
//! 5. **weak-gradient / stabilization** — the two-tier dynamic bounds
//!    (churned runs only; stabilization only when a stable edge exists).
//! 6. **streaming** — live observers ≡ post-hoc replay, bit for bit, with
//!    the live run cut into seed-chosen run calls; at the horizon the live
//!    run holds exactly the messages the recorded run left unresolved.
//! 7. **retiming** — the identity re-timing reproduces the execution:
//!    fingerprint-bitwise under nominal rates, observation-
//!    indistinguishable under drift.
//! 8. **replay** — re-running against recorded deliveries reproduces
//!    every observation (lossless, non-dropping runs only).
//! 9. **timed** — an in-process `gcs-timed` service (no sockets) sealed
//!    over the same scenario: sealing byte-deterministic, cluster time
//!    and interval lows monotone, and every sealed interval contains
//!    true simulation time (drift-envelope algorithms only — jumps,
//!    boosted catch-up rates, and accumulating delay over-compensation
//!    all legitimately leave the envelope).
//!
//! Hostile scenarios invert the contract: the *expected* outcome is the
//! typed [`gcs_sim::SimError::NonFiniteDelay`] error; a panic or a clean run is
//! the failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::spec::{HostileDelay, VoprScenario};
use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_core::indist::{indistinguishable, prefix_distinctions};
use gcs_core::problem::GradientFunction;
use gcs_core::replay::{nominal_fallback, replay_execution};
use gcs_core::retiming::Retiming;
use gcs_net::{AdversarialDelay, DelayOutcome};
use gcs_sim::{EventKind, Execution, SimStats};
use gcs_telemetry::{render_trace_event, TraceRecorder};
use gcs_testkit::{
    assert_gradient_property, assert_stabilization, assert_validity_in,
    assert_weak_gradient_property, fingerprint, for_each_live_edge_sample, streamed_metrics,
    DriftSpec, StreamedMetrics,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for one check run.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Oracle sampling density (times per probe sweep).
    pub samples: usize,
    /// Test-only fault injection: when the predicate matches the
    /// scenario, the check reports a synthetic `injected-bug` failure.
    /// Exists so the shrinker itself can be tested end to end.
    pub injected_bug: Option<fn(&VoprScenario) -> bool>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self {
            samples: 16,
            injected_bug: None,
        }
    }
}

/// What one check produced.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Every applicable oracle held; lists the stages that ran.
    Pass {
        /// Names of the oracle stages that actually executed.
        checks: Vec<&'static str>,
    },
    /// An oracle tripped or a stage panicked.
    Fail(Failure),
}

impl CheckOutcome {
    /// True when the scenario passed.
    #[must_use]
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckOutcome::Pass { .. })
    }
}

/// How many trace events the black-box recorder keeps.
const TRACE_TAIL_LEN: usize = 32;

/// A failed check: which stage, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The seed whose scenario failed.
    pub seed: u64,
    /// The oracle stage that tripped (e.g. `"streaming"`, `"panic:run"`).
    pub check: String,
    /// Human-readable detail (oracle message or panic payload).
    pub message: String,
    /// Black-box recorder: the last trace events of the primary run,
    /// rendered bit-exactly ([`render_trace_event`]). Empty when tracing
    /// did not reach the failing stage (hostile scenarios, injected bugs).
    pub trace_tail: Vec<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:#018x} failed [{}]: {}",
            self.seed, self.check, self.message
        )
    }
}

/// Extracts a panic payload as text.
fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// Runs `f` under `catch_unwind`, converting a panic into a stage-named
/// [`Failure`].
fn guard<T>(seed: u64, stage: &'static str, f: impl FnOnce() -> T) -> Result<T, Failure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| Failure {
        seed,
        check: format!("panic:{stage}"),
        message: panic_message(e),
        trace_tail: Vec::new(),
    })
}

fn fail(seed: u64, check: &str, message: impl Into<String>) -> Failure {
    Failure {
        seed,
        check: check.to_string(),
        message: message.into(),
        trace_tail: Vec::new(),
    }
}

/// Checks one scenario against the full oracle stack.
#[must_use]
pub fn check(sc: &VoprScenario, opts: &CheckOptions) -> CheckOutcome {
    if let Some(bug) = opts.injected_bug {
        // Synthetic-bug mode replaces the oracle stack entirely: the
        // predicate alone decides, so shrinker tests are fast and exact.
        return if bug(sc) {
            CheckOutcome::Fail(fail(
                sc.seed,
                "injected-bug",
                "synthetic failure injected by CheckOptions::injected_bug",
            ))
        } else {
            CheckOutcome::Pass {
                checks: vec!["injected-bug"],
            }
        };
    }
    if sc.hostile.is_some() {
        return match check_hostile(sc) {
            Ok(()) => CheckOutcome::Pass {
                checks: vec!["hostile-typed-error"],
            },
            Err(f) => CheckOutcome::Fail(f),
        };
    }
    let mut trace_tail = Vec::new();
    match check_mainstream(sc, opts, &mut trace_tail) {
        Ok(checks) => CheckOutcome::Pass { checks },
        Err(mut f) => {
            // Attach the black-box tail: the last trace events of the
            // primary run, captured regardless of which stage tripped.
            f.trace_tail = trace_tail;
            CheckOutcome::Fail(f)
        }
    }
}

/// Hostile scenarios must surface the typed non-finite-delay error — not
/// a panic, and not a clean run.
fn check_hostile(sc: &VoprScenario) -> Result<(), Failure> {
    let seed = sc.seed;
    let hostile = sc.hostile.expect("hostile scenario");
    let outcome = guard(seed, "hostile", || {
        let scenario = sc.to_scenario();
        let sim = gcs_sim::SimulationBuilder::new(scenario.topology().clone())
            .schedules(scenario.schedules())
            .delay_policy(AdversarialDelay::new(move |_, _, _, _| match hostile {
                HostileDelay::Nan => DelayOutcome::Delay(f64::NAN),
                HostileDelay::Infinite => DelayOutcome::ArriveAtHw(f64::INFINITY),
            }))
            .build_with(sc.make_nodes())
            .map_err(|e| format!("build failed: {e}"))?;
        sim.try_execute_until(sc.horizon)
            .map(|_| ())
            .map_err(|e| format!("{e}"))
    })?;
    match outcome {
        Err(msg) if msg.contains("non-finite delay") => Ok(()),
        Err(msg) => Err(fail(
            seed,
            "hostile-typed-error",
            format!("expected a NonFiniteDelay error, got: {msg}"),
        )),
        Ok(()) => Err(fail(
            seed,
            "hostile-typed-error",
            "a non-finite delay adversary ran to completion without the typed error",
        )),
    }
}

/// True when the algorithm synchronizes by *jumping* its logical clock,
/// which legitimately violates the rate-validity condition.
fn jumps_clocks(kind: AlgorithmKind) -> bool {
    matches!(
        kind,
        AlgorithmKind::Rbs { .. } | AlgorithmKind::TreeSync { .. }
    )
}

/// The additive uncertainty slack a `gcs-timed` service must budget for
/// `kind`'s logical clocks to be containment-auditable, or `None` when
/// the algorithm can legitimately leave the `rho * t` drift envelope
/// (clock jumps, boosted catch-up rates), excluding it from the
/// containment check — the monotonicity and determinism checks still run.
fn timed_slack(kind: AlgorithmKind) -> Option<f64> {
    match kind {
        // Max-adoption keeps every logical clock between its own
        // hardware clock and the fastest hardware clock in the network.
        AlgorithmKind::NoSync
        | AlgorithmKind::Max { .. }
        | AlgorithmKind::Gradient { .. }
        | AlgorithmKind::DynamicGradient { .. } => Some(0.0),
        // OffsetMax is excluded because over-compensation *accumulates*:
        // whenever `compensation * d` exceeds the actual delay of a hop,
        // the adopted value gains the difference, and repeated broadcast
        // rounds compound it — the corpus seeds run ahead of true time
        // by a margin growing with the horizon, which no constant slack
        // covers. GradientRate boosts rates beyond `1 + rho`; Rbs and
        // TreeSync jump. None of the four admit a sound radius budget.
        AlgorithmKind::OffsetMax { .. }
        | AlgorithmKind::GradientRate { .. }
        | AlgorithmKind::Rbs { .. }
        | AlgorithmKind::TreeSync { .. } => None,
    }
}

fn check_mainstream(
    sc: &VoprScenario,
    opts: &CheckOptions,
    trace_tail: &mut Vec<String>,
) -> Result<Vec<&'static str>, Failure> {
    let seed = sc.seed;
    let samples = opts.samples.max(2);
    let mut ran: Vec<&'static str> = Vec::new();
    let scenario = sc.to_scenario();

    // 1. Build and run (recorded), with the black-box recorder attached:
    // a bounded ring of the latest trace events that survives the run —
    // and any panic in it — so every failure report can show what the
    // network was doing just before things went wrong.
    let recorder = TraceRecorder::streaming(TRACE_TAIL_LEN);
    let run_result = guard(seed, "run", || {
        let mut sim = scenario.build_with(sc.make_nodes());
        sim.set_tracer(Box::new(recorder.clone()));
        sim.try_run_until_observed(scenario.horizon_time(), &mut [])
            .map(|()| (sim.stats(), sim.into_execution()))
    });
    *trace_tail = recorder.events().iter().map(render_trace_event).collect();
    let (recorded, exec): (SimStats, Execution<SyncMsg>) =
        run_result?.map_err(|e| fail(seed, "run", e.to_string()))?;
    ran.push("run");

    // 2. Determinism: the whole pipeline again, bit for bit.
    let fp = fingerprint(&exec);
    let again = guard(seed, "determinism", || scenario.run_with(sc.make_nodes()))?;
    if fingerprint(&again) != fp {
        return Err(fail(
            seed,
            "determinism",
            "two runs of the same scenario produced different fingerprints",
        ));
    }
    ran.push("determinism");

    // 2b. Sharded determinism: the conservative-window parallel engine
    // must reproduce the single-heap execution bit for bit (shards=4
    // exercises cross-shard handoff on every mainstream topology).
    let sharded = guard(seed, "sharded", || {
        scenario.run_sharded_with(4, sc.make_nodes())
    })?;
    if fingerprint(&sharded) != fp {
        return Err(fail(
            seed,
            "sharded",
            "sharded run (shards=4) diverged from the single-heap fingerprint",
        ));
    }
    ran.push("sharded");

    // 3. Validity (rate-preserving algorithms only).
    if !jumps_clocks(sc.algorithm) {
        guard(seed, "validity", || {
            assert_validity_in(&exec, scenario.name());
        })?;
        ran.push("validity");
    }

    // Generous model-sanity envelope. Plain clocks live in
    // [0, (1+ρ)·horizon], but compensation (OffsetMax: ≤ 1.0 per period
    // ≥ 0.5 ⇒ ≤ 2·horizon ahead) and rate boosting (GradientRate:
    // boost ≤ 2.0 ⇒ ≤ 2·horizon) legally run clocks ahead of real time,
    // so the sanity bound is a multiple of the horizon. Violations mean
    // broken clocks (NaN, sign flips, runaway feedback), not a missed
    // paper bound.
    let envelope = GradientFunction::Linear {
        per_distance: 5.0,
        constant: 5.0 * sc.horizon + 10.0,
    };

    // 4. Gradient property over static topologies.
    if sc.churn.is_empty() && sc.node_count() >= 2 {
        guard(seed, "gradient", || {
            assert_gradient_property(&exec, &envelope, samples);
        })?;
        ran.push("gradient");
    }

    // 5. Weak gradient + stabilization over churned topologies.
    if let Some(view) = scenario.dynamic_topology() {
        let from = sc.probe_from.min(sc.horizon);
        let window = match sc.algorithm {
            AlgorithmKind::DynamicGradient { window, .. } => window * 1.5,
            _ => 5.0,
        };
        guard(seed, "weak-gradient", || {
            assert_weak_gradient_property(
                &exec, &view, &envelope, &envelope, window, from, samples,
            );
        })?;
        ran.push("weak-gradient");
        let mut stable = 0usize;
        guard(seed, "stabilization", || {
            for_each_live_edge_sample(&exec, &view, from, samples, |s| {
                if s.age >= window {
                    stable += 1;
                }
            });
        })?;
        if stable > 0 {
            guard(seed, "stabilization", || {
                assert_stabilization(&exec, &view, &envelope, window, from, samples);
            })?;
            ran.push("stabilization");
        }
    }

    // 6. Streaming ≡ post-hoc: the same observers over the same probe
    // grid, live (recording off) vs replayed from the record. The live run
    // goes to the horizon in one to four seed-chosen run calls, since each
    // call moves the queue's split between its tiers.
    let (live, streamed) = guard(seed, "streaming", || {
        let mut sim = scenario
            .clone()
            .record_events(false)
            .build_with(sc.make_nodes());
        sim.set_probe_schedule(sc.probe_from, sc.probe_every);
        let mut rng = StdRng::seed_from_u64(!seed);
        let mut calls: Vec<f64> = (0..rng.random_range(0..4u32))
            .map(|_| rng.random_range(0.0..=sc.horizon))
            .collect();
        calls.sort_by(f64::total_cmp);
        calls.push(sc.horizon);
        let (live, ran) = StreamedMetrics::collect(1.0, |observers| {
            calls
                .iter()
                .try_for_each(|&until| sim.try_run_until_observed(until, observers))
        });
        (live, ran.map(|()| sim.stats()))
    })?;
    let streamed =
        streamed.map_err(|e| fail(seed, "streaming", format!("streaming run failed: {e}")))?;
    let posthoc = guard(seed, "streaming", || {
        streamed_metrics(&exec, sc.probe_from, sc.probe_every, 1.0)
    })?;
    if live != posthoc {
        return Err(fail(
            seed,
            "streaming",
            format!("live {live:?} != post-hoc {posthoc:?}"),
        ));
    }
    // Messages the live run holds at the horizon (a broadcast's deliveries
    // share one slot, but each counts): the recorded run's sends that were
    // neither lost, delivered nor dropped on a link outage by then.
    let delivered = exec
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Deliver { .. }))
        .count();
    let settled = recorded.dropped_loss + recorded.dropped_link_down + delivered as u64;
    let unresolved = recorded.message_slots as u64 - settled;
    let occupied = (streamed.message_slots - streamed.free_message_slots) as u64;
    if occupied != unresolved {
        return Err(fail(
            seed,
            "streaming",
            format!("live run holds {occupied} messages, the record leaves {unresolved} in flight"),
        ));
    }
    ran.push("streaming");

    // 7. Identity re-timing reproduces the execution. Under nominal
    // rates hardware↔real conversions are exact, so the round trip is
    // fingerprint-bitwise; under drift the re-derived real times can
    // legally differ by an ulp (and reorder ulp-adjacent events), so the
    // guarantee is per-node observation indistinguishability instead.
    let retimed = guard(seed, "retiming", || {
        Retiming::identity(&exec).try_apply(&exec)
    })?
    .map_err(|e| fail(seed, "retiming", format!("identity retiming failed: {e}")))?;
    if matches!(sc.drift, DriftSpec::Nominal) {
        if fingerprint(&retimed) != fp {
            return Err(fail(
                seed,
                "retiming",
                "identity retiming changed the execution fingerprint",
            ));
        }
    } else if !indistinguishable(&exec, &retimed, 1e-9) {
        return Err(fail(
            seed,
            "retiming",
            "identity retiming is distinguishable from the original execution",
        ));
    }
    ran.push("retiming");

    // 8. Replay verification: only sound when every sent message was
    // delivered (loss and in-flight drops leave unpinned messages that
    // the fallback policy would deliver differently).
    if sc.loss.is_none() && (sc.churn.is_empty() || !sc.drop_in_flight) {
        let replayed = guard(seed, "replay", || {
            replay_execution(
                &exec,
                sc.horizon,
                nominal_fallback(exec.topology()),
                sc.make_nodes(),
            )
        })?
        .map_err(|e| fail(seed, "replay", format!("replay build failed: {e}")))?;
        let distinctions = prefix_distinctions(&exec, &replayed, 0.0);
        if !distinctions.is_empty() {
            return Err(fail(
                seed,
                "replay",
                format!(
                    "{} observation distinctions, first: {:?}",
                    distinctions.len(),
                    distinctions.first()
                ),
            ));
        }
        ran.push("replay");
    }

    // 9. Serving layer: an in-process gcs-timed service (no sockets)
    // sealed over the same scenario, twice. Sealing must be
    // byte-deterministic, cluster time and the interval low-watermark
    // monotone across epochs, and — for drift-envelope algorithms —
    // every sealed interval must contain true simulation time.
    {
        let slack = timed_slack(sc.algorithm);
        let params = gcs_timed::TimedParams {
            // Bound the epoch count on tiny-cadence specs; the serving
            // contract is cadence-independent.
            seal_every: sc.probe_every.max(0.5),
            rho: scenario.drift_rho(),
            delay_slack: slack.unwrap_or(0.0),
            audit: true,
            ..gcs_timed::TimedParams::default()
        };
        let streaming = scenario.clone().record_events(false);
        let drive = || {
            let mut svc =
                gcs_timed::TimeService::from_scenario_with(&streaming, params, sc.make_nodes());
            svc.advance_to(sc.horizon);
            (svc.history().to_vec(), svc.stats())
        };
        let (snapshots, stats_a) = guard(seed, "timed", drive)?;
        let (again, _) = guard(seed, "timed", drive)?;
        let encode_all = |hist: &[std::sync::Arc<gcs_timed::Snapshot>]| -> Vec<Vec<u8>> {
            hist.iter().map(|s| s.encode()).collect()
        };
        if encode_all(&snapshots) != encode_all(&again) {
            return Err(fail(
                seed,
                "timed",
                "two drives of the same scenario sealed byte-different snapshots",
            ));
        }
        for pair in snapshots.windows(2) {
            if pair[1].cluster_time < pair[0].cluster_time
                || pair[1].interval.lo < pair[0].interval.lo
            {
                return Err(fail(
                    seed,
                    "timed",
                    format!(
                        "epoch {} regressed: cluster {} -> {}, lo {} -> {}",
                        pair[1].epoch,
                        pair[0].cluster_time,
                        pair[1].cluster_time,
                        pair[0].interval.lo,
                        pair[1].interval.lo
                    ),
                ));
            }
        }
        if slack.is_some() && stats_a.containment_violations > 0 {
            return Err(fail(
                seed,
                "timed",
                format!(
                    "{} sealed interval(s) excluded true simulation time",
                    stats_a.containment_violations
                ),
            ));
        }
        ran.push("timed");
    }

    Ok(ran)
}

/// Convenience: derive the scenario from `seed` and check it.
#[must_use]
pub fn check_seed(seed: u64, opts: &CheckOptions) -> (VoprScenario, CheckOutcome) {
    let sc = VoprScenario::from_seed(seed);
    let outcome = check(&sc, opts);
    (sc, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mainstream_check_populates_the_black_box_tail() {
        // The tail is captured from the primary run whether or not a
        // later stage fails, so a passing scenario pins the plumbing.
        let sc = (0..16)
            .map(VoprScenario::from_seed)
            .find(|sc| sc.hostile.is_none())
            .expect("some low seed is non-hostile");
        let mut tail = Vec::new();
        let ran = check_mainstream(&sc, &CheckOptions::default(), &mut tail)
            .expect("the low non-hostile seeds pass the oracle stack");
        assert!(ran.contains(&"run"));
        assert!(!tail.is_empty(), "the primary run produced no trace events");
        assert!(tail.len() <= TRACE_TAIL_LEN);
        // Rendered, not raw: every line names an event kind.
        for line in &tail {
            assert!(
                ["start", "send", "deliver", "drop", "timer", "link", "probe"]
                    .iter()
                    .any(|k| line.starts_with(k)),
                "unexpected rendering: {line}"
            );
        }
    }
}
