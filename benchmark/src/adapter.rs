//! The one file that calls into `crates/*`.
//!
//! Everything the benchmark needs from the repository (build a simulation,
//! run a slice, read counters, run the lower-bound pipeline and its stages,
//! spawn the daemon, read through a client) is a function or a small type
//! here that speaks plain data, so a rename in the engine's API is a
//! mechanical edit of this file alone. The traced run's wrapper types live
//! here too because they implement the crates' traits.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::drift::{spread_rates, DriftModel};
use gcs_clocks::{ClockSource, DriftBound, EagerSchedule, LazyDriftSource, RateSchedule};
use gcs_core::lower_bound::{AddSkew, AddSkewParams, MainTheorem, MainTheoremConfig};
use gcs_core::replay::{nominal_fallback, replay_execution};
use gcs_core::retiming::Retiming;
use gcs_dynamic::{ChurnSchedule, DynamicTopology};
use gcs_net::{DelayOutcome, DelayPolicy, FixedFractionDelay, Topology, UniformDelay};
use gcs_sim::{
    AdjacentSkewObserver, CalendarItem, CalendarQueue, Context, EventRecord, Execution,
    GlobalSkewObserver, Node, NodeId, Observer, Probe, ShardedSimulation, Simulation,
    SimulationBuilder, TimerId,
};
use gcs_timed::{
    intersect, wire, ClockSample, LoadGen, ServerConfig, ServerHandle, Snapshot, TimeInterval,
    TimeService, TimedClient, TimedParams, TimedServer,
};

use crate::stats::{rss_mib, SplitMix};
use crate::trace::{Kind, Span};

pub type Res<T> = Result<T, String>;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

// ───────────────────────── traced wrappers ─────────────────────────

struct TracedClock<C: ?Sized>(Box<C>);

impl<C: ClockSource + ?Sized> ClockSource for TracedClock<C> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn rate_at(&self, node: usize, t: f64) -> f64 {
        let _s = Span::enter(Kind::Clock);
        self.0.rate_at(node, t)
    }
    fn value_at(&self, node: usize, t: f64) -> f64 {
        let _s = Span::enter(Kind::Clock);
        self.0.value_at(node, t)
    }
    fn time_at_value(&self, node: usize, value: f64) -> f64 {
        let _s = Span::enter(Kind::Clock);
        self.0.time_at_value(node, value)
    }
    fn compact_before(&self, t: f64) {
        let _s = Span::enter(Kind::Clock);
        self.0.compact_before(t);
    }
    fn live_segments(&self) -> usize {
        self.0.live_segments()
    }
    fn materialize_prefix(&self, horizon: f64) -> Vec<RateSchedule> {
        self.0.materialize_prefix(horizon)
    }
    fn find_non_finite(&self) -> Option<usize> {
        self.0.find_non_finite()
    }
    fn fork(&self) -> Option<Box<dyn ClockSource + Send>> {
        Some(Box::new(TracedClock(self.0.fork()?)))
    }
}

struct TracedDelay<D: ?Sized>(Box<D>);

impl<D: ?Sized> std::fmt::Debug for TracedDelay<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TracedDelay")
    }
}

impl<D: DelayPolicy + ?Sized> DelayPolicy for TracedDelay<D> {
    fn decide(&mut self, from: usize, to: usize, seq: u64, send_time: f64) -> DelayOutcome {
        let _s = Span::enter(Kind::Delay);
        self.0.decide(from, to, seq, send_time)
    }
    fn bind_topology(&mut self, topology: &Topology) {
        self.0.bind_topology(topology);
    }
    fn min_delay_bound(&self) -> f64 {
        self.0.min_delay_bound()
    }
    fn fork(&self) -> Option<Box<dyn DelayPolicy + Send>> {
        Some(Box::new(TracedDelay(self.0.fork()?)))
    }
}

type BoxedNode = Box<dyn Node<SyncMsg> + Send>;

struct TracedNode(BoxedNode);

impl Node<SyncMsg> for TracedNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        let _s = Span::enter(Kind::NodeStart);
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        let _s = Span::enter(Kind::NodeMessage);
        self.0.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, timer: TimerId) {
        let _s = Span::enter(Kind::NodeTimer);
        self.0.on_timer(ctx, timer);
    }
    fn on_topology_change(&mut self, ctx: &mut Context<'_, SyncMsg>, peer: NodeId, up: bool) {
        let _s = Span::enter(Kind::NodeTopology);
        self.0.on_topology_change(ctx, peer, up);
    }
}

/// Times `on_probe` only: the wrapped observers' `on_event` is the trait's
/// empty default, and a span around it would measure the timer.
struct TracedObserver<O>(O);

impl<O: Observer> Observer for TracedObserver<O> {
    fn on_event(&mut self, view: &Probe<'_>, event: &EventRecord) {
        self.0.on_event(view, event);
    }
    fn on_probe(&mut self, view: &Probe<'_>) {
        let _s = Span::enter(Kind::Observer);
        self.0.on_probe(view);
    }
    fn finish(&mut self, at: f64) {
        self.0.finish(at);
    }
}

// ───────────────────────── simulator workloads ─────────────────────────

#[derive(Debug, Clone, Copy)]
pub enum TopologySpec {
    Ring(usize),
    /// `Topology::random_geometric(n, extent, radius, 42)`: the point set
    /// stays on seed 42 because the radius is tuned to that geometry.
    Geometric {
        n: usize,
        extent: f64,
        radius: f64,
    },
}

#[derive(Debug, Clone, Copy)]
pub enum ClockSpec {
    /// `LazyDriftSource` over the 2 % walk (re-sample 10, step 0.005).
    LazyWalk,
    /// Constant rates spread over `[1 - rho, 1 + rho]`.
    Spread(f64),
}

#[derive(Debug, Clone, Copy)]
pub enum AlgorithmSpec {
    Gradient,
    DynamicGradient { period: f64, window: f64 },
}

#[derive(Debug, Clone, Copy)]
pub enum EngineSpec {
    SingleHeap,
    Sharded(usize),
}

/// Exactly `toggles` random edge toggles at `rate` per time unit before
/// `horizon`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    pub toggles: usize,
    pub rate: f64,
    pub horizon: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub topology: TopologySpec,
    pub clock: ClockSpec,
    pub algorithm: AlgorithmSpec,
    pub delay: (f64, f64),
    pub churn: Option<ChurnSpec>,
    pub probe_every: f64,
    /// Also observe adjacent skew (radius 1.0).
    pub adjacent: bool,
    pub engine: EngineSpec,
    pub seed: u64,
}

/// Wall time and counts of one construction, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub topology_ns: f64,
    pub dynamic_ns: f64,
    pub dynamic_mib: f64,
    pub edge_changes: u64,
    pub engine_ns: f64,
    pub source_segments: u64,
}

/// What a simulator repetition must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPrint {
    pub dispatched: u64,
    pub probes: u64,
    /// Worst global skew and its instant, by `to_bits`.
    pub global: (u64, u64),
    /// Worst adjacent skew and its instant, by `to_bits` (0 when unobserved).
    pub adjacent: (u64, u64),
}

// One engine lives at a time, so the variants' sizes cost nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Heap(Simulation<SyncMsg>),
    Sharded(ShardedSimulation<SyncMsg>),
}

pub struct BuiltSim {
    engine: Engine,
    traced: bool,
    global: TracedObserver<GlobalSkewObserver>,
    adjacent: Option<TracedObserver<AdjacentSkewObserver>>,
    pub times: BuildTimes,
}

fn drift_walk() -> DriftModel {
    DriftModel::new(DriftBound::new(0.02).expect("valid rho"), 10.0, 0.005)
}

/// The crate's generator draws a Poisson number of toggles, and set-up time
/// and memory grow with every toggle, so seeds are tried from `seed` on
/// until one draws exactly the count asked for.
fn churn_with_exactly(edges: &[(usize, usize)], spec: ChurnSpec, seed: u64) -> Res<ChurnSchedule> {
    (0..100_000u64)
        .map(|k| {
            let s = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            ChurnSchedule::random_churn(edges, spec.rate, spec.horizon, s)
        })
        .find(|c| c.len() == spec.toggles)
        .ok_or_else(|| format!("no churn seed near {seed} draws {} toggles", spec.toggles))
}

impl BuiltSim {
    /// Generates the inputs from the spec's seed and constructs every
    /// object of one repetition. With `traced`, what is handed to the
    /// builder is wrapped in the span-recording types above.
    pub fn build(spec: &SimSpec, traced: bool) -> Res<BuiltSim> {
        let mut times = BuildTimes::default();

        let t = Instant::now();
        let topology = match spec.topology {
            TopologySpec::Ring(n) => Topology::ring(n),
            TopologySpec::Geometric { n, extent, radius } => {
                Topology::random_geometric(n, extent, radius, 42)
            }
        };
        times.topology_ns = ns_since(t);
        let n = topology.len();

        let mut builder = match spec.churn {
            None => SimulationBuilder::new(topology),
            Some(churn) => {
                let schedule = churn_with_exactly(&topology.neighbor_edges(), churn, spec.seed)?;
                let (t, rss) = (Instant::now(), rss_mib());
                let view = DynamicTopology::new(topology, schedule).map_err(|e| e.to_string())?;
                times.dynamic_ns = ns_since(t);
                times.dynamic_mib = (rss_mib() - rss).max(0.0);
                times.edge_changes = view.edge_changes().len() as u64;
                SimulationBuilder::new_dynamic(view)
            }
        };

        let t = Instant::now();
        let delay = UniformDelay::new(spec.delay.0, spec.delay.1, spec.seed);
        builder = if traced {
            builder.delay_policy(TracedDelay(Box::new(delay)))
        } else {
            builder.delay_policy(delay)
        };
        builder = match (spec.clock, traced) {
            (ClockSpec::LazyWalk, false) => {
                builder.drift_source(LazyDriftSource::new(drift_walk(), spec.seed, n))
            }
            (ClockSpec::LazyWalk, true) => builder.drift_source(TracedClock(Box::new(
                LazyDriftSource::new(drift_walk(), spec.seed, n),
            ))),
            (ClockSpec::Spread(rho), traced) => {
                let source =
                    EagerSchedule::new(spread_rates(DriftBound::new(rho).expect("valid rho"), n));
                times.source_segments = source.live_segments() as u64;
                if traced {
                    builder.drift_source(TracedClock(Box::new(source)))
                } else {
                    builder.drift_source(source)
                }
            }
        };
        builder = builder.record_events(false);

        let kind = match spec.algorithm {
            AlgorithmSpec::Gradient => AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            },
            AlgorithmSpec::DynamicGradient { period, window } => AlgorithmKind::DynamicGradient {
                period,
                kappa_strong: 0.5,
                kappa_weak: 6.0,
                window,
            },
        };
        let engine = match (spec.engine, traced) {
            (EngineSpec::SingleHeap, false) => builder
                .build_with(|id, n| kind.build(id, n))
                .map(Engine::Heap),
            (EngineSpec::SingleHeap, true) => builder
                .build_with(|id, n| TracedNode(kind.build(id, n)))
                .map(Engine::Heap),
            (EngineSpec::Sharded(k), false) => builder
                .shards(k)
                .build_sharded_with(|id, n| kind.build(id, n))
                .map(Engine::Sharded),
            (EngineSpec::Sharded(k), true) => builder
                .shards(k)
                .build_sharded_with(|id, n| TracedNode(kind.build(id, n)))
                .map(Engine::Sharded),
        };
        let mut engine = engine.map_err(|e| e.to_string())?;
        match &mut engine {
            Engine::Heap(s) => s.set_probe_schedule(0.0, spec.probe_every),
            Engine::Sharded(s) => s.set_probe_schedule(0.0, spec.probe_every),
        }
        times.engine_ns = ns_since(t);

        Ok(BuiltSim {
            engine,
            traced,
            global: TracedObserver(GlobalSkewObserver::new()),
            adjacent: spec
                .adjacent
                .then(|| TracedObserver(AdjacentSkewObserver::new(1.0))),
            times,
        })
    }

    /// Advances the simulation through every event and probe up to `until`.
    pub fn run_slice(&mut self, until: f64) -> Res<()> {
        let mut observers: Vec<&mut dyn Observer> = Vec::with_capacity(2);
        if self.traced {
            observers.push(&mut self.global);
            if let Some(a) = &mut self.adjacent {
                observers.push(a);
            }
        } else {
            observers.push(&mut self.global.0);
            if let Some(a) = &mut self.adjacent {
                observers.push(&mut a.0);
            }
        }
        match &mut self.engine {
            Engine::Heap(s) => s.try_run_until_observed(until, &mut observers),
            Engine::Sharded(s) => s.try_run_until_observed(until, &mut observers),
        }
        .map_err(|e| e.to_string())
    }

    pub fn dispatched(&self) -> u64 {
        match &self.engine {
            Engine::Heap(s) => s.stats().dispatched,
            Engine::Sharded(s) => s.dispatched(),
        }
    }

    /// High-water mark of queued events (the sharded engine reports none).
    pub fn peak_queued_events(&self) -> u64 {
        match &self.engine {
            Engine::Heap(s) => s.stats().peak_queued_events as u64,
            Engine::Sharded(_) => 0,
        }
    }

    /// Schedule segments the clock source holds now.
    pub fn live_segments(&self) -> u64 {
        match &self.engine {
            Engine::Heap(s) => s.stats().live_schedule_segments as u64,
            Engine::Sharded(_) => self.times.source_segments,
        }
    }

    pub fn print(&self) -> SimPrint {
        let g = &self.global.0;
        SimPrint {
            dispatched: self.dispatched(),
            probes: g.probes(),
            global: (g.worst().to_bits(), g.worst_at().to_bits()),
            adjacent: self.adjacent.as_ref().map_or((0, 0), |a| {
                (a.0.worst().to_bits(), a.0.worst_at().to_bits())
            }),
        }
    }
}

// ───────────────────────── event-queue hold model ─────────────────────────

#[derive(PartialEq)]
struct HoldItem {
    time: f64,
    tie: u64,
}

impl Eq for HoldItem {}

impl Ord for HoldItem {
    /// Earliest first, the engine's reversed order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

impl PartialOrd for HoldItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl CalendarItem for HoldItem {
    fn axis(&self) -> f64 {
        self.time
    }
}

trait HoldQueue {
    fn push_item(&mut self, item: HoldItem);
    fn pop_item(&mut self) -> Option<HoldItem>;
}

impl HoldQueue for CalendarQueue<HoldItem> {
    fn push_item(&mut self, item: HoldItem) {
        self.push(item);
    }
    fn pop_item(&mut self) -> Option<HoldItem> {
        self.pop()
    }
}

impl HoldQueue for BinaryHeap<HoldItem> {
    fn push_item(&mut self, item: HoldItem) {
        self.push(item);
    }
    fn pop_item(&mut self) -> Option<HoldItem> {
        self.pop()
    }
}

/// The hold model: at a steady `depth`, pop the earliest item and push one
/// a random increment in `(0, 1)` later, `ops` times. Returns nanoseconds
/// per pop-and-push.
fn hold(mut queue: impl HoldQueue, depth: usize, ops: u64, seed: u64) -> f64 {
    let mut rng = SplitMix::new(seed);
    for tie in 0..depth as u64 {
        queue.push_item(HoldItem {
            time: rng.unit(),
            tie,
        });
    }
    let t = Instant::now();
    let mut last = 0.0;
    for k in 0..ops {
        let item = queue.pop_item().expect("the queue holds `depth` items");
        last = item.time;
        queue.push_item(HoldItem {
            time: item.time + rng.unit(),
            tie: depth as u64 + k,
        });
    }
    let ns = ns_since(t);
    std::hint::black_box(last);
    ns / ops as f64
}

pub fn calendar_hold_ns_per_op(depth: usize, ops: u64, seed: u64) -> f64 {
    hold(CalendarQueue::new(), depth, ops, seed)
}

pub fn heap_hold_ns_per_op(depth: usize, ops: u64, seed: u64) -> f64 {
    hold(BinaryHeap::new(), depth, ops, seed)
}

// ───────────────────────── lower-bound pipeline ─────────────────────────

fn rho_half() -> DriftBound {
    DriftBound::new(0.5).expect("valid rho")
}

fn max_node(id: NodeId, n: usize) -> BoxedNode {
    AlgorithmKind::Max { period: 1.0 }.build(id, n)
}

/// A recorded execution on a line.
pub struct LineExec(Execution<SyncMsg>);

impl LineExec {
    pub fn events(&self) -> u64 {
        self.0.events().len() as u64
    }

    /// `L_i - L_j` at the execution's horizon, by `to_bits`.
    pub fn final_skew_bits(&self, i: usize, j: usize) -> u64 {
        self.0.skew(i, j, self.0.horizon()).to_bits()
    }
}

/// The construction's starting point, built the way `MainTheorem::run`
/// builds it: nominal rates, half-distance delays, recording on, run for
/// `tau * (n - 1)`.
pub fn nominal_line(n: usize) -> Res<LineExec> {
    let topology = Topology::line(n);
    let delay = FixedFractionDelay::for_topology(&topology, 0.5);
    SimulationBuilder::new(topology)
        .schedules(vec![RateSchedule::constant(1.0); n])
        .delay_policy(delay)
        .build_with(max_node)
        .map_err(|e| e.to_string())?
        .try_execute_until(rho_half().tau() * (n as f64 - 1.0))
        .map(LineExec)
        .map_err(|e| e.to_string())
}

/// What a lower-bound repetition must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructionPrint {
    pub rounds: u64,
    pub final_adjacent_skew: u64,
    pub replayed_events: u64,
}

pub struct Construction {
    pub print: ConstructionPrint,
    /// The pair round 0 targeted and its starting skew, by `to_bits`.
    pub first_pair: (usize, usize),
    pub first_skew: u64,
    /// Every replayed prefix matched its predicted transformation.
    pub prefixes_ok: bool,
}

/// One complete validated construction on a line of `n` (Theorem 8.1,
/// practical constants, fidelity checks on) against max-sync.
pub fn main_theorem(n: usize, traced: bool) -> Res<Construction> {
    let theorem = MainTheorem::new(MainTheoremConfig::practical(n, rho_half()));
    let report = if traced {
        theorem.run(|id, n| TracedNode(max_node(id, n)))
    } else {
        theorem.run(max_node)
    }
    .map_err(|e| e.to_string())?;
    let first = report
        .rounds
        .first()
        .ok_or("the construction ran no round")?;
    Ok(Construction {
        print: ConstructionPrint {
            rounds: report.rounds_completed() as u64,
            final_adjacent_skew: report.final_adjacent_skew.to_bits(),
            replayed_events: report.rounds.iter().map(|r| r.events as u64).sum(),
        },
        first_pair: first.pair,
        first_skew: first.skew_start.to_bits(),
        prefixes_ok: report.rounds.iter().all(|r| r.prefix_ok),
    })
}

/// Lemma 6.1 across the whole line.
pub fn add_skew_apply(alpha: &LineExec) -> Res<LineExec> {
    let n = alpha.0.node_count();
    AddSkew::new(rho_half())
        .apply(&alpha.0, AddSkewParams::suffix(0, n - 1))
        .map(|outcome| LineExec(outcome.transformed))
        .map_err(|e| e.to_string())
}

/// A mild late speed-up of every other node, as `gcs-bench` applies it:
/// 1 % over the last 40 time units, which moves no event by more than 0.4
/// and so keeps every unit-distance delay inside its bounds.
pub struct LineRetiming(Retiming);

pub fn late_speed_up(alpha: &LineExec) -> LineRetiming {
    let horizon = alpha.0.horizon();
    let schedules = (0..alpha.0.node_count())
        .map(|k| {
            if k % 2 == 0 {
                RateSchedule::builder(1.0)
                    .rate_from((horizon - 40.0).max(0.0), 1.01)
                    .build()
            } else {
                RateSchedule::constant(1.0)
            }
        })
        .collect();
    LineRetiming(Retiming::new(schedules, horizon))
}

pub fn retiming_apply(retiming: &LineRetiming, alpha: &LineExec) -> LineExec {
    LineExec(retiming.0.apply(&alpha.0))
}

pub fn retiming_validate(retiming: &LineRetiming, transformed: &LineExec) -> bool {
    let topology = transformed.0.topology();
    retiming
        .0
        .validate(
            &transformed.0,
            DriftBound::new(0.05).expect("valid rho"),
            |i, j| (0.0, topology.distance(i, j)),
        )
        .is_valid()
}

/// Replays `beta` exactly and extends it by `extra` under nominal delays.
pub fn replay_and_extend(beta: &LineExec, extra: f64) -> Res<LineExec> {
    replay_execution(
        &beta.0,
        beta.0.horizon() + extra,
        nominal_fallback(beta.0.topology()),
        max_node,
    )
    .map(LineExec)
    .map_err(|e| e.to_string())
}

// ───────────────────────── time daemon ─────────────────────────

#[derive(Debug, Clone, Copy)]
pub struct DaemonSpec {
    pub nodes: usize,
    pub seed: u64,
}

fn service_params() -> TimedParams {
    TimedParams {
        seal_every: 1.0,
        rho: 0.02,
        ..TimedParams::default()
    }
}

/// The daemon's cluster: a gradient ring over the lazy drift walk.
fn service(spec: DaemonSpec) -> TimeService {
    let sim = SimulationBuilder::new(Topology::ring(spec.nodes))
        .delay_policy(UniformDelay::new(0.25, 0.75, spec.seed))
        .drift_source(LazyDriftSource::new(drift_walk(), spec.seed, spec.nodes))
        .record_events(false)
        .build_with(|id, n| {
            AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            }
            .build(id, n)
        })
        .expect("the ring has one schedule and one node per entry");
    TimeService::with_sim(sim, service_params())
}

pub struct Daemon(ServerHandle);

#[derive(Debug, Clone, Copy)]
pub struct DaemonReport {
    pub protocol_errors: u64,
    pub containment_violations: u64,
    pub requests: u64,
    pub seals: u64,
    pub bytes_out: u64,
}

impl Daemon {
    /// Binds `127.0.0.1:0` and spawns the daemon thread: 200 simulated
    /// seconds per wall second, the default 200 µs idle sleep, and a
    /// horizon no run reaches.
    pub fn spawn(spec: DaemonSpec) -> Res<Daemon> {
        let config = ServerConfig {
            pace: 200.0,
            horizon: 1e7,
            ..ServerConfig::default()
        };
        TimedServer::spawn("127.0.0.1:0", config, move || service(spec))
            .map(Daemon)
            .map_err(|e| e.to_string())
    }

    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    /// Stops the daemon thread and waits until it has ended.
    pub fn shutdown(self) -> DaemonReport {
        let report = self.0.shutdown();
        DaemonReport {
            protocol_errors: report.errors,
            containment_violations: report.stats.containment_violations,
            requests: report.requests,
            seals: report.stats.seals,
            bytes_out: report.metrics.counter("server/bytes_out"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub lo: f64,
    pub hi: f64,
    pub cluster_time: f64,
}

pub struct Client(TimedClient);

impl Client {
    pub fn connect(addr: &str) -> Res<Client> {
        TimedClient::connect(addr)
            .map(Client)
            .map_err(|e| e.to_string())
    }

    /// One `read_interval` request, blocking until its response.
    pub fn read(&mut self) -> Res<Reading> {
        self.0
            .read_interval()
            .map(|r| Reading {
                lo: r.lo,
                hi: r.hi,
                cluster_time: r.cluster_time,
            })
            .map_err(|e| e.to_string())
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    pub req_per_s: f64,
    pub rtt_p50_us: f64,
    pub errors: u64,
    pub monotonicity_violations: u64,
}

/// The crate's own closed-loop generator on one connection.
pub fn closed_loop(addr: &str, duration: Duration) -> ClosedLoop {
    let report = LoadGen {
        addr: addr.to_string(),
        clients: 1,
        duration,
    }
    .run();
    ClosedLoop {
        req_per_s: report.rps,
        rtt_p50_us: report.p50_us,
        errors: report.errors,
        monotonicity_violations: report.monotonicity_violations,
    }
}

/// Drives the daemon's service in process to `horizon` simulated seconds.
/// Returns nanoseconds per sealed epoch.
pub fn service_advance_ns_per_seal(spec: DaemonSpec, horizon: f64) -> f64 {
    let mut svc = service(spec);
    let t = Instant::now();
    let seals = svc.advance_to(horizon);
    ns_since(t) / seals.max(1) as f64
}

fn samples(n: usize, epoch: u64) -> Vec<ClockSample> {
    (0..n)
        .map(|node| ClockSample {
            node,
            reading: 100.0 + epoch as f64 + node as f64 * 1e-3,
            radius: 0.05,
        })
        .collect()
}

/// `Snapshot::seal` over `n` overlapping samples; nanoseconds per seal
/// (building the sample vector excluded).
pub fn snapshot_seal_ns(n: usize, iters: u64) -> f64 {
    let mut prev = Snapshot::genesis(n);
    let mut ns = 0.0;
    for epoch in 1..=iters {
        let input = samples(n, epoch);
        let t = Instant::now();
        let sealed = Snapshot::seal(epoch, 100.0 + epoch as f64, n / 2 + 1, input, &prev);
        ns += ns_since(t);
        prev = sealed.expect("the samples overlap");
    }
    std::hint::black_box(prev.cluster_time);
    ns / iters as f64
}

/// `marzullo::intersect` over `n` overlapping intervals at majority
/// quorum; nanoseconds per call.
pub fn marzullo_intersect_ns(n: usize, iters: u64) -> f64 {
    let intervals: Vec<TimeInterval> = samples(n, 0).iter().map(ClockSample::interval).collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..iters {
        let hull = intersect(std::hint::black_box(&intervals), n / 2 + 1);
        acc += hull.expect("the intervals overlap").lo;
    }
    let ns = ns_since(t);
    std::hint::black_box(acc);
    ns / iters as f64
}

/// The daemon's per-request work without the kernel: template copy,
/// `req_id` patch, frame decode, payload decode. Nanoseconds per frame.
pub fn wire_roundtrip_ns_per_frame(n: usize, frames: u64) -> f64 {
    let genesis = Snapshot::genesis(n);
    let snap =
        Snapshot::seal(1, 101.0, n / 2 + 1, samples(n, 1), &genesis).expect("the samples overlap");
    let mut template = Vec::new();
    wire::encode_frame(
        wire::op::READ_INTERVAL,
        0,
        &wire::interval_payload(&snap),
        &mut template,
    );
    let mut buf = Vec::with_capacity(template.len());
    let mut acc = 0u64;
    let t = Instant::now();
    for req in 0..frames {
        buf.clear();
        buf.extend_from_slice(&template);
        wire::patch_req_id(&mut buf, 0, req);
        let wire::Decoded::Frame(frame) = wire::decode_frame(&buf) else {
            unreachable!("template frames always decode")
        };
        let read = wire::decode_interval(frame.payload).expect("an interval payload");
        acc = acc.wrapping_add(frame.req_id ^ read.epoch);
    }
    let ns = ns_since(t);
    std::hint::black_box(acc);
    ns / frames as f64
}
