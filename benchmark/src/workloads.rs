//! The four workloads and the run protocol they share.
//!
//! One process runs one workload. A repetition generates its inputs from
//! the seed, constructs everything from scratch (the set-up phase), runs
//! (the run phase), and is checked against the warm-up repetition's
//! fingerprint. One warm-up repetition is discarded, then repetitions are
//! measured until `--seconds` have passed (at least three), and every
//! reported number is a median over them, never one shot (but for the lower
//! bound's set-up time, which is the warm-up itself). All times are wall time.

use std::time::{Duration, Instant};

use crate::adapter::{
    self, AlgorithmSpec, BuiltSim, ChurnSpec, Client, ClockSpec, Construction, ConstructionPrint,
    Daemon, DaemonSpec, EngineSpec, Res, SimPrint, SimSpec, TopologySpec,
};
use crate::metrics::{end_to_end, Layers, Metric};
use crate::stats::{median, peak_rss_mib, process_cpu_ns, quantile, SplitMix};
use crate::trace::{Kind, Totals, TraceLog};

pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one run of one workload found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the output check failed; empty when it passed.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub trace: Option<TraceLog>,
}

/// One repetition: its two phases in seconds, its operations and its
/// fingerprint.
struct Rep<P> {
    setup_s: f64,
    run_s: f64,
    ops: u64,
    print: P,
}

/// The measured repetitions of one run.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    ops: Vec<u64>,
    /// Both phases of the discarded warm-up repetition.
    warm_s: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    /// The outcome of an untraced run: the end-to-end metrics, each a
    /// median over the repetitions.
    fn into_outcome(self) -> Outcome {
        let rates: Vec<f64> = self
            .ops
            .iter()
            .zip(&self.run_s)
            .map(|(&n, s)| n as f64 / s)
            .collect();
        println!("{} repetitions measured", self.run_s.len());
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: end_to_end([
                median(&self.setup_s),
                median(&rates),
                median(&self.run_s) * 1e6,
                peak_rss_mib(),
            ]),
            problems: self.problems,
            trace: None,
        }
    }
}

/// The shared protocol: one discarded warm-up, then repetitions for
/// `seconds` (at least `min_reps`). A repetition that errs or whose
/// fingerprint differs from the warm-up's, or from `pin` where one holds
/// for this seed, counts all its operations as failed.
fn measure<P: PartialEq + std::fmt::Debug>(
    seconds: f64,
    min_reps: usize,
    pin: Option<&P>,
    mut repetition: impl FnMut() -> Res<Rep<P>>,
) -> Res<Measured> {
    let warm = repetition().map_err(|e| format!("warm-up repetition: {e}"))?;
    let mut m = Measured {
        warm_s: warm.setup_s + warm.run_s,
        ..Measured::default()
    };
    let pinned_ok = pin.is_none_or(|pin| *pin == warm.print);
    if !pinned_ok {
        m.problems.push(format!(
            "the fingerprint is {:x?}, pinned {pin:x?}",
            warm.print
        ));
    }
    let started = Instant::now();
    while m.run_s.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        match repetition() {
            Ok(rep) => {
                m.attempted += rep.ops;
                if rep.print != warm.print {
                    m.failed += rep.ops;
                    m.problems.push(format!(
                        "repetition {} fingerprint {:x?} differs from the warm-up's {:x?}",
                        m.run_s.len(),
                        rep.print,
                        warm.print
                    ));
                } else if !pinned_ok {
                    m.failed += rep.ops;
                }
                m.setup_s.push(rep.setup_s);
                m.run_s.push(rep.run_s);
                m.ops.push(rep.ops);
            }
            Err(e) => {
                m.attempted += warm.ops;
                m.failed += warm.ops;
                m.problems
                    .push(format!("repetition {}: {e}", m.run_s.len()));
                // A repetition that cannot run will not run next time either.
                break;
            }
        }
    }
    Ok(m)
}

// ───────────────────────── simulator workloads ─────────────────────────

/// A simulator workload: the spec handed to the adapter plus how the run
/// phase drives it.
#[derive(Clone, Copy)]
struct SimWorkload {
    spec: SimSpec,
    horizon: f64,
    slices: u32,
    pin: SimPrint,
}

impl SimWorkload {
    fn slice_end(&self, k: u32) -> f64 {
        self.horizon * f64::from(k) / f64::from(self.slices)
    }

    /// One untraced repetition on `spec` (the workload's own, or a variant
    /// of it for a per-layer comparison).
    fn repetition(&self, spec: &SimSpec) -> Res<Rep<SimPrint>> {
        let start = Instant::now();
        let mut sim = BuiltSim::build(spec, false)?;
        let setup_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for k in 1..=self.slices {
            sim.run_slice(self.slice_end(k))?;
        }
        let run_s = start.elapsed().as_secs_f64();
        Ok(Rep {
            setup_s,
            run_s,
            ops: sim.dispatched(),
            print: sim.print(),
        })
    }
}

/// `ring4k_stream`: queue, dispatch, lazy clock reads and delay draws do
/// nearly all the work; node state is tiny, no threads, no churn.
fn ring_workload(cfg: &Config) -> SimWorkload {
    let n = if cfg.smoke { 256 } else { 4096 };
    SimWorkload {
        spec: SimSpec {
            topology: TopologySpec::Ring(n),
            clock: ClockSpec::LazyWalk,
            algorithm: AlgorithmSpec::Gradient,
            delay: (0.25, 0.75),
            churn: None,
            probe_every: 4.0,
            adjacent: true,
            engine: EngineSpec::SingleHeap,
            seed: cfg.seed,
        },
        horizon: 400.0,
        slices: 100,
        pin: if cfg.smoke {
            pins::RING_SMOKE
        } else {
            pins::RING_FULL
        },
    }
}

/// `rgg100k_churn`: E15's full-scale geometry under the dynamic-network
/// algorithm and 32 random edge toggles, on two shards. The sharded
/// calendar-queue core, memory traffic over 100k boxed nodes and
/// `DynamicTopology` do the work; the clock layer is constant-rate.
fn rgg_workload(cfg: &Config) -> SimWorkload {
    let (n, extent, radius, toggles) = if cfg.smoke {
        (2_000, 170.0, 550.0, 8)
    } else {
        (100_000, 1000.0, 500.0, 32)
    };
    let horizon = 200.0;
    SimWorkload {
        spec: SimSpec {
            topology: TopologySpec::Geometric { n, extent, radius },
            clock: ClockSpec::Spread(0.01),
            algorithm: AlgorithmSpec::DynamicGradient {
                period: 40.0,
                window: 50.0,
            },
            delay: (0.3, 0.9),
            churn: Some(ChurnSpec {
                toggles,
                rate: toggles as f64 / horizon,
                horizon,
            }),
            probe_every: 10.0,
            adjacent: false,
            engine: EngineSpec::Sharded(2),
            seed: cfg.seed,
        },
        horizon,
        slices: 20,
        pin: if cfg.smoke {
            pins::RGG_SMOKE
        } else {
            pins::RGG_FULL
        },
    }
}

/// Untraced repetitions that give a traced run its reference: the shared
/// protocol for a third of `--seconds` (at least one repetition).
fn reference<P: PartialEq + std::fmt::Debug>(
    cfg: &Config,
    pin: Option<&P>,
    repetition: impl FnMut() -> Res<Rep<P>>,
) -> Res<Measured> {
    measure(cfg.seconds / 3.0, 1, pin, repetition)
}

/// The `algorithms.node.*` metrics, the same wherever nodes are wrapped.
/// `busy_ns` is what the share is taken of.
fn node_layers(layers: &mut Layers, totals: &Totals, busy_ns: f64) {
    let agg = |k: Kind| totals[k as usize];
    let per_call = |k: Kind| agg(k).self_ns as f64 / agg(k).calls.max(1) as f64;
    let node_ns = agg(Kind::NodeStart).self_ns
        + agg(Kind::NodeMessage).self_ns
        + agg(Kind::NodeTimer).self_ns
        + agg(Kind::NodeTopology).self_ns;
    layers.set(
        "algorithms.node.on_start_ns",
        agg(Kind::NodeStart).self_ns as f64,
    );
    layers.set(
        "algorithms.node.on_message_ns_per_call",
        per_call(Kind::NodeMessage),
    );
    layers.set(
        "algorithms.node.on_timer_ns_per_call",
        per_call(Kind::NodeTimer),
    );
    layers.set(
        "algorithms.node.on_topology_change_calls",
        agg(Kind::NodeTopology).calls as f64,
    );
    layers.set("algorithms.node.busy_share", node_ns as f64 / busy_ns);
}

/// The two event queues in the hold model at a workload's steady depth.
fn hold_model_layers(
    t: &mut SimTrace,
    depth: usize,
    full_ops: u64,
    calendar: &'static str,
    heap: &'static str,
) {
    let ops = if t.cfg.smoke { full_ops / 20 } else { full_ops };
    let seed = t.cfg.seed;
    let (ns, _) = t.log.call(calendar, || {
        adapter::calendar_hold_ns_per_op(depth, ops, seed)
    });
    t.layers.set(calendar, ns);
    let (ns, _) = t
        .log
        .call(heap, || adapter::heap_hold_ns_per_op(depth, ops, seed));
    t.layers.set(heap, ns);
}

/// A traced simulator run: the traced repetition (the same phases with the
/// wrapper types in place, one logged slice per engine call) and what is
/// derived from it.
struct SimTrace<'a> {
    cfg: &'a Config,
    w: SimWorkload,
    log: TraceLog,
    layers: Layers,
    problems: Vec<String>,
    sim: BuiltSim,
    totals: Totals,
    wall_ns: f64,
    cpu_ns: f64,
    events: f64,
    slice_us: Vec<f64>,
}

/// Runs a simulator workload. Untraced, that is the shared protocol.
/// Traced, it is the reference, the traced repetition and the layers every
/// simulator workload reports, then `own_layers` for what only this one has.
fn run_sim(
    cfg: &Config,
    w: SimWorkload,
    own_layers: impl FnOnce(&mut SimTrace) -> Res<()>,
) -> Res<Outcome> {
    let pin = (cfg.seed == DEFAULT_SEED).then_some(&w.pin);
    if !cfg.trace {
        let m = measure(cfg.seconds, 3, pin, || w.repetition(&w.spec))?;
        return Ok(m.into_outcome());
    }
    let m = reference(cfg, pin, || w.repetition(&w.spec))?;

    let mut log = TraceLog::new();
    let (sim, _) = log.call("build", || BuiltSim::build(&w.spec, true));
    let mut sim = sim?;
    let mut live_segments_max = sim.live_segments();
    let cpu = process_cpu_ns();
    for k in 1..=w.slices {
        log.slice(|| sim.run_slice(w.slice_end(k)))?;
        live_segments_max = live_segments_max.max(sim.live_segments());
    }
    let cpu_ns = process_cpu_ns() - cpu;
    let slice_us: Vec<f64> = log.slices.iter().map(|s| s.wall_ns as f64 / 1e3).collect();
    let wall_ns = slice_us.iter().sum::<f64>() * 1e3;
    let mut t = SimTrace {
        cfg,
        w,
        totals: log.totals(),
        log,
        layers: Layers::new(),
        problems: Vec::new(),
        events: sim.dispatched() as f64,
        sim,
        wall_ns,
        cpu_ns,
        slice_us,
    };
    if pin.is_some_and(|pin| *pin != t.sim.print()) {
        t.problems
            .push("the traced repetition's fingerprint differs from the pin".into());
    }

    // Shares are of wall time on one thread and of CPU time on more.
    let sharded = matches!(w.spec.engine, EngineSpec::Sharded(_));
    let busy_ns = if sharded && cpu_ns > 0.0 {
        cpu_ns
    } else {
        wall_ns
    };
    let agg = |k: Kind| t.totals[k as usize];
    let per_call = |k: Kind| agg(k).self_ns as f64 / agg(k).calls.max(1) as f64;
    let (e, layers) = (t.events, &mut t.layers);
    layers.set(
        "sim.observer.busy_ns_per_event",
        agg(Kind::Observer).self_ns as f64 / e,
    );
    layers.set("sim.observer.probes", t.sim.print().probes as f64);
    layers.set(
        "clocks.source.calls_per_event",
        agg(Kind::Clock).calls as f64 / e,
    );
    layers.set("clocks.source.ns_per_call", per_call(Kind::Clock));
    layers.set(
        "clocks.source.busy_share",
        agg(Kind::Clock).self_ns as f64 / busy_ns,
    );
    layers.set("clocks.source.live_segments_max", live_segments_max as f64);
    layers.set(
        "net.delay.calls_per_event",
        agg(Kind::Delay).calls as f64 / e,
    );
    layers.set("net.delay.ns_per_call", per_call(Kind::Delay));
    layers.set("net.topology.build_ns", t.sim.times.topology_ns);
    node_layers(layers, &t.totals, busy_ns);
    layers.set("trace.overhead_ratio", wall_ns / 1e9 / median(&m.run_s));

    own_layers(&mut t)?;
    t.problems.extend(m.problems);
    Ok(Outcome {
        attempted: m.attempted + t.events as u64,
        failed: m.failed,
        problems: t.problems,
        metrics: t.layers.into_metrics(),
        trace: Some(t.log),
    })
}

pub fn ring4k_stream(cfg: &Config) -> Res<Outcome> {
    run_sim(cfg, ring_workload(cfg), |t| {
        let e = t.events;
        let layers = &mut t.layers;
        layers.set("sim.engine.wall_ns_per_event", t.wall_ns / e);
        layers.set(
            "sim.engine.self_ns_per_event",
            t.totals[Kind::Engine as usize].self_ns as f64 / e,
        );
        layers.set("sim.engine.build_ns", t.sim.times.engine_ns);
        layers.set(
            "sim.engine.peak_queued_events",
            t.sim.peak_queued_events() as f64,
        );
        layers.set("sim.engine.slice_p50_us", median(&t.slice_us));
        layers.set("sim.engine.slice_p99_us", quantile(&t.slice_us, 0.99));
        layers.set("sim.engine.slice_max_us", quantile(&t.slice_us, 1.0));

        // The ring through the sharded core, a quarter of the horizon: the
        // noisy two-thread figure an end-to-end metric cannot carry.
        let quarter = SimWorkload {
            horizon: t.w.horizon / 4.0,
            slices: t.w.slices / 4,
            ..t.w
        };
        for (k, name) in [
            (1, "sim.shard.ring4k_k1_wall_ns_per_event"),
            (2, "sim.shard.ring4k_k2_wall_ns_per_event"),
        ] {
            let spec = SimSpec {
                engine: EngineSpec::Sharded(k),
                ..quarter.spec
            };
            let (rep, _) = t.log.call(name, || quarter.repetition(&spec));
            let rep = rep?;
            t.layers.set(name, rep.run_s * 1e9 / rep.ops as f64);
        }
        hold_model_layers(
            t,
            12_288,
            2_000_000,
            "sim.calendar.hold_ns_per_op_12k",
            "sim.heap_ref.hold_ns_per_op_12k",
        );
        Ok(())
    })
}

pub fn rgg100k_churn(cfg: &Config) -> Res<Outcome> {
    let w = rgg_workload(cfg);
    // Resident-set growth is the structure's size only on a fresh heap, so
    // the memory of an edge change comes from a first build of its own.
    let cold = if cfg.trace {
        BuiltSim::build(&w.spec, false)?.times
    } else {
        adapter::BuildTimes::default()
    };
    run_sim(cfg, w, |t| {
        let (e, times) = (t.events, t.sim.times);
        let changes = times.edge_changes.max(1) as f64;
        let layers = &mut t.layers;
        layers.set("sim.shard.wall_ns_per_event", t.wall_ns / e);
        layers.set("sim.shard.cpu_ns_per_event", t.cpu_ns / e);
        layers.set("sim.shard.build_ns", times.engine_ns);
        layers.set("dynamic.topology.build_ns", times.dynamic_ns);
        layers.set(
            "dynamic.topology.build_ns_per_change",
            times.dynamic_ns / changes,
        );
        layers.set(
            "dynamic.topology.mib_per_change",
            cold.dynamic_mib / changes,
        );
        layers.set("dynamic.topology.edge_changes", times.edge_changes as f64);

        // The same workload on one shard: what the second thread buys.
        let spec = SimSpec {
            engine: EngineSpec::Sharded(1),
            ..t.w.spec
        };
        let name = "sim.shard.k1_wall_ns_per_event";
        let w = t.w;
        let (rep, _) = t.log.call(name, || w.repetition(&spec));
        let rep = rep?;
        if rep.print != t.sim.print() {
            t.problems
                .push("one shard and two shards disagree on the fingerprint".into());
        }
        t.layers.set(name, rep.run_s * 1e9 / rep.ops as f64);
        hold_model_layers(
            t,
            300_000,
            1_000_000,
            "sim.calendar.hold_ns_per_op_300k",
            "sim.heap_ref.hold_ns_per_op_300k",
        );
        Ok(())
    })
}

// ───────────────────────── lower-bound pipeline ─────────────────────────

/// `lowerbound_line129`: the paper's core claim, and the engine used the
/// other way round (recording on, `Execution` finalisation, `AddSkew`,
/// retiming validation, exact replay) where the streaming workloads write
/// nothing. The seed is unused: nominal rates, adversarial delays.
fn lowerbound_nodes(cfg: &Config) -> usize {
    if cfg.smoke {
        33
    } else {
        129
    }
}

/// The output check beyond the fingerprint, outside any timed phase: every
/// replayed prefix matched, and round 0 started from exactly the skew that a
/// nominal execution built independently ends with.
fn check_construction(n: usize, built: &Construction) -> Res<()> {
    if !built.prefixes_ok {
        return Err("a replayed prefix diverged from its predicted transformation".into());
    }
    let (fast, slow) = built.first_pair;
    if adapter::nominal_line(n)?.final_skew_bits(fast, slow) != built.first_skew {
        return Err("round 0 did not start from the nominal execution's final skew".into());
    }
    Ok(())
}

/// The run phase is one complete validated construction. There is no set-up
/// phase: `MainTheorem::run` builds everything it uses.
fn lowerbound_repetition(n: usize) -> Res<Rep<ConstructionPrint>> {
    let start = Instant::now();
    let built = adapter::main_theorem(n, false)?;
    let run_s = start.elapsed().as_secs_f64();
    check_construction(n, &built)?;
    Ok(Rep {
        setup_s: 0.0,
        run_s,
        ops: 1,
        print: built.print,
    })
}

pub fn lowerbound_line129(cfg: &Config) -> Res<Outcome> {
    let n = lowerbound_nodes(cfg);
    let pin = if cfg.smoke {
        pins::LOWERBOUND_SMOKE
    } else {
        pins::LOWERBOUND_FULL
    };
    // The seed is unused, so the pin holds at every seed.
    if !cfg.trace {
        let mut m = measure(cfg.seconds, 3, Some(&pin), || lowerbound_repetition(n))?;
        // What stands between the start of the process and the first
        // measured repetition is the first construction, on cold caches and
        // an empty heap: that one shot is this workload's set-up time.
        m.setup_s = vec![m.warm_s];
        return Ok(m.into_outcome());
    }

    let m = reference(cfg, Some(&pin), || lowerbound_repetition(n))?;
    let untraced_s = median(&m.run_s);
    let mut problems = m.problems;
    let mut log = TraceLog::new();
    let mut layers = Layers::new();

    // The whole construction under one engine-call span, nodes wrapped.
    let built = log.slice(|| adapter::main_theorem(n, true))?;
    check_construction(n, &built)?;
    if built.print != pin {
        problems.push("the traced construction's fingerprint differs from the pin".into());
    }
    let wall_ns = log.slices[0].wall_ns as f64;
    layers.set(
        "core.main_theorem.wall_ns_per_round",
        wall_ns / built.print.rounds as f64,
    );
    node_layers(&mut layers, &log.totals(), wall_ns);
    layers.set("trace.overhead_ratio", wall_ns / 1e9 / untraced_s);

    // The stages, called directly on the nominal execution.
    let (alpha, ns) = log.call("sim.engine.record", || adapter::nominal_line(n));
    let alpha = alpha?;
    layers.set("sim.engine.record_ns_per_event", ns / alpha.events() as f64);
    let (beta, ns) = log.call("core.add_skew.apply", || adapter::add_skew_apply(&alpha));
    let beta = beta?;
    layers.set("core.add_skew.apply_ns", ns);
    let retiming = adapter::late_speed_up(&alpha);
    let (retimed, ns) = log.call("core.retiming.apply", || {
        adapter::retiming_apply(&retiming, &alpha)
    });
    layers.set("core.retiming.apply_ns", ns);
    let (valid, ns) = log.call("core.retiming.validate", || {
        adapter::retiming_validate(&retiming, &retimed)
    });
    layers.set("core.retiming.validate_ns", ns);
    if !valid {
        problems.push("the late speed-up retiming failed validation".into());
    }
    let (replayed, ns) = log.call("core.replay", || adapter::replay_and_extend(&beta, 10.0));
    layers.set("core.replay.ns_per_event", ns / replayed?.events() as f64);

    Ok(Outcome {
        attempted: m.attempted + 1,
        failed: m.failed,
        problems,
        metrics: layers.into_metrics(),
        trace: Some(log),
    })
}

// ───────────────────────── time daemon ─────────────────────────

/// `timed_open_2k`: one connection, an open loop at a fixed rate from one
/// spin-waiting thread, latency measured from the instant each request was
/// due. It bypasses nothing of the daemon (poll loop, idle sleep, seal,
/// template patch, kernel) and nothing of the batch engine's throughput
/// path.
struct TimedWorkload {
    daemon: DaemonSpec,
    rate: f64,
    warm_reads: u32,
    setups: u32,
}

fn timed_workload(cfg: &Config) -> TimedWorkload {
    TimedWorkload {
        daemon: DaemonSpec {
            nodes: 64,
            seed: cfg.seed,
        },
        rate: if cfg.smoke { 500.0 } else { 2_000.0 },
        warm_reads: 200,
        setups: 7,
    }
}

/// The per-connection serving contract: `lo <= hi`, and neither the
/// interval low nor the cluster time ever regresses.
#[derive(Default)]
struct Contract {
    last: Option<adapter::Reading>,
}

impl Contract {
    fn holds(&mut self, r: adapter::Reading) -> bool {
        let ok = r.lo <= r.hi
            && self
                .last
                .is_none_or(|p| r.lo >= p.lo && r.cluster_time >= p.cluster_time);
        self.last = Some(r);
        ok
    }
}

struct Served {
    daemon: Daemon,
    client: Client,
    contract: Contract,
    spawned: Instant,
}

impl TimedWorkload {
    /// One set-up: spawn the daemon, connect, get the first answer, and warm
    /// the daemon with reads paced at the run's own rate. Unpaced, a closed
    /// loop either keeps the daemon busy (7 us a read) or lets it fall asleep
    /// between reads (300 us), and which one is a race that moves set-up time
    /// twentyfold. Returns the set-up time and, within it, the time to the
    /// first answer, both in seconds.
    fn set_up(&self) -> Res<(Served, f64, f64)> {
        let spawned = Instant::now();
        let daemon = Daemon::spawn(self.daemon)?;
        let mut client = Client::connect(&daemon.addr())?;
        let mut contract = Contract::default();
        let mut ok = contract.holds(client.read()?);
        let first_answer_s = spawned.elapsed().as_secs_f64();
        let paced = Instant::now();
        for k in 1..=self.warm_reads {
            let due = paced + Duration::from_secs_f64(f64::from(k) / self.rate);
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            ok &= contract.holds(client.read()?);
        }
        if !ok {
            return Err("a warm-up read broke the serving contract".into());
        }
        let served = Served {
            daemon,
            client,
            contract,
            spawned,
        };
        Ok((served, spawned.elapsed().as_secs_f64(), first_answer_s))
    }

    /// Sets up `setups` times, keeping the last daemon for the run. Every
    /// daemon shut down on the way must report a clean run. Returns the
    /// set-up times and the times to the first answer.
    fn set_up_repeatedly(&self, problems: &mut Vec<String>) -> Res<(Served, Vec<f64>, Vec<f64>)> {
        let (mut setup_s, mut first_answer_s) = (Vec::new(), Vec::new());
        let mut kept = None;
        for _ in 0..self.setups {
            if let Some(Served { daemon, client, .. }) = kept.take() {
                drop(client);
                check_report(daemon.shutdown(), problems);
            }
            let (served, setup, first_answer) = self.set_up()?;
            setup_s.push(setup);
            first_answer_s.push(first_answer);
            kept = Some(served);
        }
        Ok((kept.expect("at least one set-up"), setup_s, first_answer_s))
    }
}

fn check_report(report: adapter::DaemonReport, problems: &mut Vec<String>) {
    if report.protocol_errors > 0 {
        problems.push(format!(
            "the daemon reports {} protocol errors",
            report.protocol_errors
        ));
    }
    if report.containment_violations > 0 {
        problems.push(format!(
            "the daemon reports {} containment violations",
            report.containment_violations
        ));
    }
}

/// What an open loop measured. Times are microseconds.
struct OpenLoop {
    attempted: u64,
    failed: u64,
    /// One entry per answered request, contract kept or not.
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    elapsed_s: f64,
    /// (due, sent, done) of every completed request, nanoseconds from the
    /// loop's start.
    requests: Vec<[u64; 3]>,
}

/// Sends `rate * seconds` requests at instants drawn from `seed` as a
/// Poisson process (independent users), spin-waiting for each. A request
/// that falls due while the previous one is still out is sent late, and its
/// latency still runs from when it was due.
fn open_loop(served: &mut Served, rate: f64, seconds: f64, seed: u64) -> OpenLoop {
    let total = (rate * seconds).round().max(1.0) as u64;
    let mut rng = SplitMix::new(seed);
    let mut due_s = 0.0;
    let mut out = OpenLoop {
        attempted: total,
        failed: 0,
        latency_us: Vec::with_capacity(total as usize),
        late_us: Vec::with_capacity(total as usize),
        elapsed_s: 0.0,
        requests: Vec::with_capacity(total as usize),
    };
    let start = Instant::now();
    for k in 0..total {
        due_s -= rng.unit().ln() / rate;
        let due = start + Duration::from_secs_f64(due_s);
        let mut sent = Instant::now();
        while sent < due {
            std::hint::spin_loop();
            sent = Instant::now();
        }
        match served.client.read() {
            Ok(reading) => {
                let done = Instant::now();
                if !served.contract.holds(reading) {
                    out.failed += 1;
                }
                out.latency_us.push((done - due).as_secs_f64() * 1e6);
                out.late_us.push((sent - due).as_secs_f64() * 1e6);
                out.requests.push([
                    (due - start).as_nanos() as u64,
                    (sent - start).as_nanos() as u64,
                    (done - start).as_nanos() as u64,
                ]);
            }
            Err(_) => {
                // The connection is gone or the daemon is stuck: what was
                // still due cannot complete either.
                out.failed += total - k;
                break;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

pub fn timed_open_2k(cfg: &Config) -> Res<Outcome> {
    let w = timed_workload(cfg);
    let mut problems = Vec::new();
    let (mut served, setup_s, first_answer_s) = w.set_up_repeatedly(&mut problems)?;

    if !cfg.trace {
        let run = open_loop(&mut served, w.rate, cfg.seconds, cfg.seed);
        drop(served.client);
        check_report(served.daemon.shutdown(), &mut problems);
        return Ok(Outcome {
            attempted: run.attempted,
            failed: run.failed,
            problems,
            metrics: end_to_end([
                median(&setup_s),
                (run.attempted - run.failed) as f64 / run.elapsed_s,
                median(&run.latency_us),
                peak_rss_mib(),
            ]),
            trace: None,
        });
    }

    let mut log = TraceLog::new();
    let mut layers = Layers::new();
    let third = cfg.seconds / 3.0;
    let reference = open_loop(&mut served, w.rate, third, cfg.seed);
    let (traced, _) = log.call("timed.client.open_loop", || {
        open_loop(&mut served, w.rate, third, cfg.seed ^ 1)
    });
    layers.set("timed.client.p99_us", quantile(&traced.latency_us, 0.99));
    layers.set("timed.client.p999_us", quantile(&traced.latency_us, 0.999));
    layers.set("timed.client.max_us", quantile(&traced.latency_us, 1.0));
    layers.set("timed.client.late_p99_us", quantile(&traced.late_us, 0.99));
    layers.set(
        "trace.overhead_ratio",
        median(&traced.latency_us) / median(&reference.latency_us),
    );

    let addr = served.daemon.addr();
    drop(served.client);
    let (closed, _) = log.call("timed.server.closed_loop", || {
        adapter::closed_loop(&addr, Duration::from_secs_f64(third.min(3.0)))
    });
    layers.set("timed.server.closed_loop_req_per_s", closed.req_per_s);
    layers.set("timed.client.closed_rtt_p50_us", closed.rtt_p50_us);
    let closed_failed = closed.errors + closed.monotonicity_violations;
    if closed_failed > 0 {
        problems.push(format!("the closed loop saw {closed_failed} failures"));
    }

    let lifetime_s = served.spawned.elapsed().as_secs_f64();
    let report = served.daemon.shutdown();
    check_report(report, &mut problems);
    layers.set("timed.server.seals_per_s", report.seals as f64 / lifetime_s);
    layers.set(
        "timed.server.bytes_out_per_req",
        report.bytes_out as f64 / report.requests.max(1) as f64,
    );
    layers.set("timed.server.errors", report.protocol_errors as f64);
    layers.set(
        "timed.server.first_answer_us",
        median(&first_answer_s) * 1e6,
    );

    // The daemon's stages, called directly.
    let sim_seconds = if cfg.smoke { 40.0 } else { 400.0 };
    let (ns, _) = log.call("timed.service.advance", || {
        adapter::service_advance_ns_per_seal(w.daemon, sim_seconds)
    });
    layers.set("timed.service.advance_ns_per_seal", ns);
    let iters = if cfg.smoke { 1_000 } else { 20_000 };
    let nodes = w.daemon.nodes;
    let (ns, _) = log.call("timed.snapshot.seal", || {
        adapter::snapshot_seal_ns(nodes, iters)
    });
    layers.set("timed.snapshot.seal_ns", ns);
    let (ns, _) = log.call("timed.marzullo.intersect", || {
        adapter::marzullo_intersect_ns(nodes, iters)
    });
    layers.set("timed.marzullo.intersect_ns", ns);
    let (ns, _) = log.call("timed.wire.roundtrip", || {
        adapter::wire_roundtrip_ns_per_frame(nodes, iters * 50)
    });
    layers.set("timed.wire.roundtrip_ns_per_frame", ns);

    log.requests = traced.requests;
    Ok(Outcome {
        attempted: reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed + closed_failed,
        problems,
        metrics: layers.into_metrics(),
        trace: Some(log),
    })
}

/// The fingerprints every repetition must reproduce at the default seed,
/// at full and at smoke scale.
mod pins {
    use super::{ConstructionPrint, SimPrint};

    pub const RING_FULL: SimPrint = SimPrint {
        dispatched: 4_908_335,
        probes: 101,
        global: (0x4021_fbda_db95_e480, 0x4075_0000_0000_0000),
        adjacent: (0x3ff5_dfe0_cd5d_8100, 0x4066_0000_0000_0000),
    };
    pub const RING_SMOKE: SimPrint = SimPrint {
        dispatched: 306_517,
        probes: 101,
        global: (0x401a_bbcc_fb72_2040, 0x4077_0000_0000_0000),
        adjacent: (0x3ff5_a415_9ca8_8800, 0x4066_0000_0000_0000),
    };
    pub const RGG_FULL: SimPrint = SimPrint {
        dispatched: 1_062_565,
        probes: 21,
        global: (0x4010_0000_0000_0000, 0x4069_0000_0000_0000),
        adjacent: (0, 0),
    };
    pub const RGG_SMOKE: SimPrint = SimPrint {
        dispatched: 39_043,
        probes: 21,
        global: (0x4010_0000_0000_0000, 0x4069_0000_0000_0000),
        adjacent: (0, 0),
    };
    /// Final adjacent skew 0.8 after three rounds.
    pub const LOWERBOUND_FULL: ConstructionPrint = ConstructionPrint {
        rounds: 3,
        final_adjacent_skew: 0x3fe9_9999_9999_9c00,
        replayed_events: 367_938,
    };
    /// Final adjacent skew 0.4 after two rounds.
    pub const LOWERBOUND_SMOKE: ConstructionPrint = ConstructionPrint {
        rounds: 2,
        final_adjacent_skew: 0x3fd9_9999_9999_9b00,
        replayed_events: 15_651,
    };
}
