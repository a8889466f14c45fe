//! The indistinguishability principle as an executable transformation.
//!
//! Section 3 of the paper: a node's behaviour depends only on the hardware
//! clock readings at which its events occur. Therefore, replacing the
//! hardware clock schedules and moving every event to the real time at
//! which the *new* schedule reaches the event's recorded hardware reading
//! yields an execution that is indistinguishable to every node — provided
//! the new schedules respect the drift bound and the induced message delays
//! stay within `[0, d_ij]`.
//!
//! # Churn-aware retiming
//!
//! Dynamic (churning) executions add one complication: a link change is a
//! *shared physical event*, experienced by both endpoints at a single real
//! time, so it cannot be moved through either endpoint's schedule alone.
//! Following Kuhn–Lenzen–Locher–Oshman (*Optimal Gradient Clock
//! Synchronization in Dynamic Networks*, §5), a retiming of a dynamic
//! execution therefore carries a shared monotone [`TimeWarp`] in addition
//! to the per-node schedules: node-local events map through their node's
//! schedule as before, while topology changes — and the churn timeline
//! they came from — map through the warp, keeping the network history
//! coherent. The static case degenerates to the identity warp and is
//! byte-identical to the warp-free engine.
//!
//! [`Retiming::apply`] performs exactly this: it materializes the predicted
//! transformed execution *without re-running the algorithm*. The companion
//! checkers ([`Retiming::validate`]) machine-verify the provisos: drift
//! bounds per node, delay bounds per message, and — for dynamic executions
//! — that every re-timed message's link is up over its re-timed
//! `[send, arrival]` interval and that both endpoints of each topology
//! change land at the same warped real time. The Add Skew lemma, the
//! Bounded Increase speed-up, the folklore Ω(d) shift, and the dynamic
//! fresh-link construction are all instances of this engine with specific
//! schedule (and warp) constructions.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use gcs_clocks::{DriftBound, RateSchedule, TimeWarp};
use gcs_dynamic::DynamicTopology;
use gcs_sim::{EventKind, EventRecord, Execution, MessageRecord, MessageStatus, NodeId};

/// Numeric tolerance shared by the validation checks and the lower-bound
/// constructions built on them.
pub(crate) const TOL: f64 = 1e-9;

/// A re-timing of an execution: one replacement hardware schedule per node,
/// a new horizon, and — for dynamic executions — a shared [`TimeWarp`] for
/// the physical events no single node owns.
///
/// Node-local events are mapped per node by
/// `t_new = new_schedule.time_at_value(hw)`, where `hw` is the event's
/// recorded hardware reading in the source execution; topology-change
/// events are mapped by `t_new = warp(t_old)`; events mapping beyond
/// `horizon` are truncated away (the transformed execution is a re-timed
/// prefix).
#[derive(Debug, Clone)]
pub struct Retiming {
    schedules: Vec<RateSchedule>,
    horizon: f64,
    warp: Option<TimeWarp>,
}

/// Why a retiming could not be constructed or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum RetimingError {
    /// The number of replacement schedules does not match the execution.
    ScheduleCount {
        /// Nodes in the execution.
        expected: usize,
        /// Replacement schedules provided.
        got: usize,
    },
    /// The new horizon is not finite and nonnegative.
    NonFiniteHorizon {
        /// The offending horizon.
        horizon: f64,
    },
    /// The execution is dynamic (it has topology changes or a non-static
    /// churn timeline) but the retiming has no shared time warp. Link
    /// changes are shared physical events pinned to one real time;
    /// re-timing each endpoint's copy through its own schedule would land
    /// the two halves of one change at different real times, describing a
    /// network no churn schedule can produce. Attach a warp with
    /// [`Retiming::with_warp`] (the identity warp for a pure per-node
    /// analysis of a churned run).
    DynamicExecutionWithoutWarp,
}

impl fmt::Display for RetimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetimingError::ScheduleCount { expected, got } => {
                write!(f, "expected {expected} replacement schedules, got {got}")
            }
            RetimingError::NonFiniteHorizon { horizon } => {
                write!(
                    f,
                    "retiming horizon must be finite and nonnegative, got {horizon}"
                )
            }
            RetimingError::DynamicExecutionWithoutWarp => write!(
                f,
                "cannot retime a dynamic (churn) execution without a shared time \
                 warp: link changes are shared physical events and would be \
                 re-timed differently per endpoint (attach one with \
                 Retiming::with_warp)"
            ),
        }
    }
}

impl std::error::Error for RetimingError {}

/// A delay-bound violation found by [`Retiming::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayViolation {
    /// Sender.
    pub from: usize,
    /// Receiver.
    pub to: usize,
    /// Message sequence number.
    pub seq: u64,
    /// Delay in the transformed execution.
    pub delay: f64,
    /// Allowed delay interval that was violated.
    pub allowed: (f64, f64),
}

/// A link-liveness violation found by [`Retiming::validate`]: a re-timed
/// message whose (tracked) link is not up over the whole re-timed
/// `[send, arrival]` interval — the message could not have been delivered
/// in the network the transformed execution claims to describe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLivenessViolation {
    /// Sender.
    pub from: usize,
    /// Receiver.
    pub to: usize,
    /// Message sequence number.
    pub seq: u64,
    /// Re-timed send time.
    pub send_time: f64,
    /// Re-timed arrival time (clamped to the horizon for in-flight
    /// messages — churn beyond the horizon never counts).
    pub arrival_time: f64,
}

/// A topology-change synchronization violation found by
/// [`Retiming::validate`]: the `k`-th change of one link lands at
/// different real times at its two endpoints (or is missing at one of
/// them), so the transformed execution is not the trace of any single
/// churn timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeSyncViolation {
    /// Lower endpoint of the link.
    pub a: usize,
    /// Upper endpoint of the link.
    pub b: usize,
    /// Whether the change brought the link up.
    pub up: bool,
    /// Time of the `k`-th such change at endpoint `a` (`None` if missing).
    pub time_a: Option<f64>,
    /// Time of the `k`-th such change at endpoint `b` (`None` if missing).
    pub time_b: Option<f64>,
}

/// Outcome of validating a transformed execution against the model.
#[derive(Debug, Clone)]
pub struct RetimingReport {
    /// Whether every new schedule stays within the drift bound.
    pub rates_ok: bool,
    /// Delay violations among messages *received* within the new horizon
    /// (empty means the delays are legal).
    pub delay_violations: Vec<DelayViolation>,
    /// Number of messages checked for delay bounds.
    pub messages_checked: usize,
    /// Link-liveness violations (dynamic executions only; always empty
    /// for static ones).
    pub link_violations: Vec<LinkLivenessViolation>,
    /// Number of tracked-link message intervals checked for liveness.
    pub links_checked: usize,
    /// Topology-change endpoint-synchronization violations (dynamic
    /// executions only; always empty for static ones).
    pub change_violations: Vec<ChangeSyncViolation>,
}

impl RetimingReport {
    /// True when the transformed execution satisfies the model.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.rates_ok
            && self.delay_violations.is_empty()
            && self.link_violations.is_empty()
            && self.change_violations.is_empty()
    }
}

impl fmt::Display for RetimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retiming report: rates_ok={}, {} delay violations / {} messages, \
             {} liveness violations / {} links, {} change-sync violations",
            self.rates_ok,
            self.delay_violations.len(),
            self.messages_checked,
            self.link_violations.len(),
            self.links_checked,
            self.change_violations.len()
        )
    }
}

impl Retiming {
    /// Creates a re-timing from per-node replacement schedules.
    ///
    /// # Errors
    ///
    /// Returns [`RetimingError::NonFiniteHorizon`] unless `horizon` is
    /// finite and nonnegative (a zero horizon is the identity re-timing
    /// of a zero-length execution).
    pub fn try_new(schedules: Vec<RateSchedule>, horizon: f64) -> Result<Self, RetimingError> {
        if !(horizon.is_finite() && horizon >= 0.0) {
            return Err(RetimingError::NonFiniteHorizon { horizon });
        }
        Ok(Self {
            schedules,
            horizon,
            warp: None,
        })
    }

    /// Creates a re-timing from per-node replacement schedules.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not finite and nonnegative; see
    /// [`Retiming::try_new`] for the fallible variant.
    #[must_use]
    #[track_caller]
    pub fn new(schedules: Vec<RateSchedule>, horizon: f64) -> Self {
        Self::try_new(schedules, horizon).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches the shared time warp applied to topology changes and the
    /// churn timeline. Required for dynamic executions; ignored (harmless)
    /// for static ones.
    #[must_use]
    pub fn with_warp(mut self, warp: TimeWarp) -> Self {
        self.warp = Some(warp);
        self
    }

    /// The identity re-timing of an execution: same schedules, same
    /// horizon, and — for dynamic executions — the identity warp, so a
    /// churned execution reproduces itself byte for byte. Useful as a base
    /// case and in tests.
    #[must_use]
    pub fn identity<M>(exec: &Execution<M>) -> Self {
        let mut retiming = Self::new(exec.schedules().to_vec(), exec.horizon());
        if exec.dynamic_topology().is_some() {
            retiming.warp = Some(TimeWarp::identity());
        }
        retiming
    }

    /// The replacement schedules.
    #[must_use]
    pub fn schedules(&self) -> &[RateSchedule] {
        &self.schedules
    }

    /// The new horizon.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The shared time warp, if one is attached.
    #[must_use]
    pub fn warp(&self) -> Option<&TimeWarp> {
        self.warp.as_ref()
    }

    /// Maps an event of node `i` with hardware reading `hw` to its new real
    /// time.
    #[must_use]
    pub fn map_time(&self, node: usize, hw: f64) -> f64 {
        self.schedules[node].time_at_value(hw)
    }

    /// Maps a shared physical event at old real time `t` through the warp
    /// (identity when no warp is attached).
    #[must_use]
    pub fn map_shared_time(&self, t: f64) -> f64 {
        match &self.warp {
            Some(w) => w.apply(t),
            None => t,
        }
    }

    /// Materializes the transformed execution.
    ///
    /// - every node-local event moves to `map_time(node, hw)`; topology
    ///   changes move to `warp(t)` with their hardware reading re-read
    ///   from the node's new schedule at the warped time; events mapping
    ///   beyond the new horizon are dropped (β is a re-timed prefix of α);
    /// - every message's send/arrival move with their endpoints' readings;
    ///   messages sent beyond the horizon are dropped; messages arriving
    ///   beyond it become [`MessageStatus::InFlight`];
    /// - logical trajectories are carried over unchanged — they are
    ///   functions of hardware time, which is what indistinguishability
    ///   preserves;
    /// - the churn timeline (the execution's
    ///   [`Execution::dynamic_topology`] view) is recompiled with every
    ///   churn event mapped through the warp, so the transformed execution
    ///   describes one coherent dynamic network.
    ///
    /// The global event order is rebuilt by a k-way merge over per-node
    /// runs (each run is already sorted because both maps are monotone
    /// over the per-node dispatch order), with the engine's canonical
    /// [`EventKind::tie_key`] tie-break — equivalent to, and cheaper than,
    /// re-sorting the whole log.
    ///
    /// # Errors
    ///
    /// Returns [`RetimingError::ScheduleCount`] if the schedule count does
    /// not match, or [`RetimingError::DynamicExecutionWithoutWarp`] if the
    /// execution is dynamic and no warp is attached.
    pub fn try_apply<M: Clone>(&self, exec: &Execution<M>) -> Result<Execution<M>, RetimingError> {
        if self.schedules.len() != exec.node_count() {
            return Err(RetimingError::ScheduleCount {
                expected: exec.node_count(),
                got: self.schedules.len(),
            });
        }
        let has_changes = exec.dynamic_topology().is_some_and(|v| !v.is_static())
            || exec
                .events()
                .iter()
                .any(|ev| matches!(ev.kind, EventKind::TopologyChange { .. }));
        if has_changes && self.warp.is_none() {
            return Err(RetimingError::DynamicExecutionWithoutWarp);
        }

        // Two runs per node: node-local events mapped through the node's
        // replacement schedule, shared (topology-change) events through
        // the warp. Each run stays sorted — both maps are monotone over
        // the per-node dispatch order — so a k-way merge rebuilds the
        // global order.
        let n = exec.node_count();
        let mut runs: Vec<Vec<EventRecord>> = vec![Vec::new(); 2 * n];
        for ev in exec.events() {
            if matches!(ev.kind, EventKind::TopologyChange { .. }) {
                let t = self.map_shared_time(ev.time);
                if t <= self.horizon {
                    runs[2 * ev.node + 1].push(EventRecord {
                        time: t,
                        node: ev.node,
                        // The node's reading at the warped instant, from
                        // its new schedule — the same computation the
                        // engine performs at dispatch, so identity
                        // retimings reproduce the recorded bits.
                        hw: self.schedules[ev.node].value_at(t),
                        kind: ev.kind.clone(),
                    });
                }
            } else {
                let t = self.map_time(ev.node, ev.hw);
                if t <= self.horizon {
                    runs[2 * ev.node].push(EventRecord {
                        time: t,
                        node: ev.node,
                        hw: ev.hw,
                        kind: ev.kind.clone(),
                    });
                }
            }
        }
        let events = merge_runs(runs);

        let mut messages: Vec<MessageRecord<M>> = Vec::with_capacity(exec.messages().len());
        for m in exec.messages() {
            let send_time = self.map_time(m.from, m.send_hw);
            if send_time > self.horizon {
                continue; // not sent in the transformed prefix
            }
            let (arrival_time, arrival_hw, status) = match (m.arrival_hw, m.status) {
                (_, MessageStatus::Dropped) | (None, _) => (None, None, MessageStatus::Dropped),
                (Some(h), _) => {
                    let t = self.map_time(m.to, h);
                    let status = if t <= self.horizon {
                        MessageStatus::Delivered
                    } else {
                        MessageStatus::InFlight
                    };
                    (Some(t), Some(h), status)
                }
            };
            messages.push(MessageRecord {
                from: m.from,
                to: m.to,
                seq: m.seq,
                send_time,
                send_hw: m.send_hw,
                arrival_time,
                arrival_hw,
                status,
                payload: m.payload.clone(),
            });
        }

        // The churn timeline moves through the warp with everything else.
        let dynamic = match (exec.dynamic_topology(), &self.warp) {
            (Some(view), Some(warp)) => Some(view.retimed(|t| warp.apply(t))),
            (Some(view), None) => Some(view.clone()),
            (None, _) => None,
        };

        Ok(Execution::from_parts_dynamic(
            exec.topology().clone(),
            self.schedules.clone(),
            self.horizon,
            events,
            messages,
            exec.trajectories().to_vec(),
            dynamic,
        )
        .with_drop_in_flight(exec.drops_in_flight()))
    }

    /// Materializes the transformed execution; see [`Retiming::try_apply`].
    ///
    /// # Panics
    ///
    /// Panics on any [`RetimingError`] — in particular, on a dynamic
    /// (churn) execution when no warp is attached.
    #[must_use]
    #[track_caller]
    pub fn apply<M: Clone>(&self, exec: &Execution<M>) -> Execution<M> {
        self.try_apply(exec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates a transformed execution against the model: all new
    /// schedules within `bound`; every message *received* within the
    /// horizon has delay in `delay_bounds(from, to) ⊆ [0, d_ij]`; and, for
    /// dynamic executions, every re-timed message's (tracked) link is up
    /// over its re-timed `[send, arrival]` interval and both endpoints of
    /// each topology change land at the same warped real time.
    ///
    /// Pass `|from, to| (0.0, topology.distance(from, to))` for the plain
    /// model bounds, or tighter windows to check lemma-specific claims
    /// (e.g. `[d/4, 3d/4]` for the Add Skew lemma).
    ///
    /// One coherence dimension is *not* checkable from the record and is
    /// deliberately out of scope: a message recorded `Dropped` carries no
    /// arrival, and a drop by a lossy delay policy is indistinguishable
    /// from a drop by a link outage, so the validator cannot tell whether
    /// a warp moved an outage away from a dropped message's flight window
    /// (a real run of the warped timeline would then deliver it).
    /// Constructions that need that guarantee — like the fresh-link
    /// bound, which forbids pre-formation cross traffic — must rule out
    /// link-drops by precondition, or confirm the prediction by replay
    /// ([`crate::replay::replay_execution`]).
    ///
    /// # Errors
    ///
    /// Returns [`RetimingError::ScheduleCount`] if the schedule count does
    /// not match the transformed execution.
    pub fn try_validate<M>(
        &self,
        transformed: &Execution<M>,
        bound: DriftBound,
        mut delay_bounds: impl FnMut(usize, usize) -> (f64, f64),
    ) -> Result<RetimingReport, RetimingError> {
        self.validate_per_message(transformed, bound, |m| delay_bounds(m.from, m.to))
    }

    /// [`Retiming::try_validate`] with the allowed delay interval chosen
    /// per delivered message record, for constructions whose window
    /// depends on more than the endpoints (Add Skew's depends on the
    /// arrival time).
    pub(crate) fn validate_per_message<M>(
        &self,
        transformed: &Execution<M>,
        bound: DriftBound,
        mut delay_bounds: impl FnMut(&MessageRecord<M>) -> (f64, f64),
    ) -> Result<RetimingReport, RetimingError> {
        if self.schedules.len() != transformed.node_count() {
            return Err(RetimingError::ScheduleCount {
                expected: transformed.node_count(),
                got: self.schedules.len(),
            });
        }
        let rates_ok = self.schedules.iter().all(|s| bound.admits(s));
        let mut delay_violations = Vec::new();
        let mut messages_checked = 0;
        for m in transformed.messages() {
            if m.status != MessageStatus::Delivered {
                continue;
            }
            messages_checked += 1;
            let delay = m.delay().expect("delivered message has arrival");
            let (lo, hi) = delay_bounds(m);
            if delay < lo - TOL || delay > hi + TOL {
                delay_violations.push(DelayViolation {
                    from: m.from,
                    to: m.to,
                    seq: m.seq,
                    delay,
                    allowed: (lo, hi),
                });
            }
        }

        let mut link_violations = Vec::new();
        let mut links_checked = 0;
        let mut change_violations = Vec::new();
        if let Some(view) = transformed.dynamic_topology() {
            // Liveness: a delivered message's link must be up from send to
            // arrival; an in-flight one from send to the horizon (churn
            // beyond the simulated window never counts).
            for m in transformed.messages() {
                let Some(arrival) = m.arrival_time else {
                    continue;
                };
                if m.status == MessageStatus::Dropped || !view.link_tracked(m.from, m.to) {
                    continue;
                }
                let end = match m.status {
                    MessageStatus::Delivered => arrival,
                    _ => arrival.min(transformed.horizon()),
                };
                links_checked += 1;
                if !link_up_over(view, m.from, m.to, m.send_time, end) {
                    link_violations.push(LinkLivenessViolation {
                        from: m.from,
                        to: m.to,
                        seq: m.seq,
                        send_time: m.send_time,
                        arrival_time: end,
                    });
                }
            }
            change_violations = change_sync_violations(transformed.events());
        }

        Ok(RetimingReport {
            rates_ok,
            delay_violations,
            messages_checked,
            link_violations,
            links_checked,
            change_violations,
        })
    }

    /// Validates a transformed execution; see [`Retiming::try_validate`].
    ///
    /// # Panics
    ///
    /// Panics if the schedule count does not match the transformed
    /// execution.
    #[must_use]
    #[track_caller]
    pub fn validate<M>(
        &self,
        transformed: &Execution<M>,
        bound: DriftBound,
        delay_bounds: impl FnMut(usize, usize) -> (f64, f64),
    ) -> RetimingReport {
        self.try_validate(transformed, bound, delay_bounds)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Whether the link `{from, to}` is up continuously over `[t0, t1]` — the
/// engine's delivery condition [`DynamicTopology::link_uninterrupted`],
/// with the validation tolerance on both endpoints (re-timed times are
/// computed through different float paths than the warped churn
/// timeline, so exact comparisons would flag 1-ulp phantom outages).
fn link_up_over(view: &DynamicTopology, from: usize, to: usize, t0: f64, t1: f64) -> bool {
    view.link_uninterrupted(from, to, t0 + TOL, t1)
        || view.link_uninterrupted(from, to, t0 + TOL, (t1 - TOL).max(0.0))
}

/// Key of one link-change stream: (lower endpoint, upper endpoint, up).
type ChangeKey = (usize, usize, bool);
/// The change times observed by the lower and upper endpoint, in order.
type EndpointTimes = (Vec<f64>, Vec<f64>);

/// Pairs up the two endpoint copies of every topology change and reports
/// each `k`-th change of a link whose copies land at different real times
/// (or exist at one endpoint only).
fn change_sync_violations(events: &[EventRecord]) -> Vec<ChangeSyncViolation> {
    let mut seen: HashMap<ChangeKey, EndpointTimes> = HashMap::new();
    let mut keys: Vec<ChangeKey> = Vec::new();
    for ev in events {
        let EventKind::TopologyChange { peer, up } = ev.kind else {
            continue;
        };
        let (a, b) = (ev.node.min(peer), ev.node.max(peer));
        let entry = seen.entry((a, b, up)).or_insert_with(|| {
            keys.push((a, b, up));
            (Vec::new(), Vec::new())
        });
        if ev.node == a {
            entry.0.push(ev.time);
        } else {
            entry.1.push(ev.time);
        }
    }
    let mut out = Vec::new();
    for key in keys {
        let (a, b, up) = key;
        let (times_a, times_b) = &seen[&key];
        for k in 0..times_a.len().max(times_b.len()) {
            let time_a = times_a.get(k).copied();
            let time_b = times_b.get(k).copied();
            let synced = match (time_a, time_b) {
                (Some(x), Some(y)) => (x - y).abs() <= TOL,
                _ => false,
            };
            if !synced {
                out.push(ChangeSyncViolation {
                    a,
                    b,
                    up,
                    time_a,
                    time_b,
                });
            }
        }
    }
    out
}

/// One pending head in the k-way merge; ordered by the transformed time
/// with the engine's canonical tie-break, then by run index for stability.
struct MergeHead {
    time: f64,
    key: (NodeId, u8, u64, u64),
    run: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("finite times")
            .then_with(|| self.key.cmp(&other.key))
            .then_with(|| self.run.cmp(&other.run))
    }
}

/// Merges per-node, individually-sorted event runs into one globally
/// ordered log — the same order the old full re-sort produced, at
/// O(total · log runs) instead of O(total · log total) comparisons over
/// mostly-sorted data.
fn merge_runs(runs: Vec<Vec<EventRecord>>) -> Vec<EventRecord> {
    debug_assert!(runs
        .iter()
        .all(|run| run.windows(2).all(|w| w[0].time <= w[1].time)));
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<std::iter::Peekable<std::vec::IntoIter<EventRecord>>> = runs
        .into_iter()
        .map(|run| run.into_iter().peekable())
        .collect();
    let mut heap: BinaryHeap<Reverse<MergeHead>> = BinaryHeap::with_capacity(iters.len());
    for (run, it) in iters.iter_mut().enumerate() {
        if let Some(ev) = it.peek() {
            heap.push(Reverse(MergeHead {
                time: ev.time,
                key: ev.kind.tie_key(ev.node),
                run,
            }));
        }
    }
    while let Some(Reverse(head)) = heap.pop() {
        let it = &mut iters[head.run];
        out.push(it.next().expect("peeked head exists"));
        if let Some(ev) = it.peek() {
            heap.push(Reverse(MergeHead {
                time: ev.time,
                key: ev.kind.tie_key(ev.node),
                run: head.run,
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_dynamic::{ChurnSchedule, DynamicTopology};
    use gcs_net::Topology;
    use gcs_sim::{Context, Node, NodeId, SimulationBuilder};

    /// Simple periodic broadcaster used to produce non-trivial traces.
    #[derive(Debug)]
    struct Beacon;
    impl Node<f64> for Beacon {
        fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
            ctx.set_timer(1.0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _t: u64) {
            let v = ctx.logical_now();
            ctx.send_to_neighbors(&v);
            ctx.set_timer(1.0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, f64>, _f: NodeId, m: &f64) {
            if *m > ctx.logical_now() {
                ctx.set_logical(*m);
            }
        }
    }

    fn base_run(n: usize, horizon: f64) -> Execution<f64> {
        SimulationBuilder::new(Topology::line(n))
            .schedules(vec![RateSchedule::constant(1.0); n])
            .build_with(|_, _| Beacon)
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    fn flap_run(horizon: f64) -> Execution<f64> {
        let view = DynamicTopology::new(
            Topology::line(2),
            ChurnSchedule::periodic_flap(0, 1, 5.0, horizon),
        )
        .unwrap();
        SimulationBuilder::new_dynamic(view)
            .schedules(vec![RateSchedule::constant(1.0); 2])
            .build_with(|_, _| Beacon)
            .unwrap()
            .try_execute_until(horizon)
            .unwrap()
    }

    #[test]
    #[should_panic(expected = "cannot retime a dynamic")]
    fn churn_executions_are_rejected_without_a_warp() {
        let exec = flap_run(20.0);
        let _ = Retiming::new(
            vec![RateSchedule::constant(2.0), RateSchedule::constant(1.0)],
            10.0,
        )
        .apply(&exec);
    }

    #[test]
    fn try_apply_reports_typed_errors() {
        let exec = flap_run(20.0);
        let err = Retiming::new(vec![RateSchedule::constant(1.0); 2], 10.0)
            .try_apply(&exec)
            .unwrap_err();
        assert_eq!(err, RetimingError::DynamicExecutionWithoutWarp);

        let static_exec = base_run(3, 10.0);
        let err = Retiming::new(vec![RateSchedule::constant(1.0); 2], 10.0)
            .try_apply(&static_exec)
            .unwrap_err();
        assert_eq!(
            err,
            RetimingError::ScheduleCount {
                expected: 3,
                got: 2
            }
        );

        assert_eq!(
            Retiming::try_new(vec![], f64::INFINITY).unwrap_err(),
            RetimingError::NonFiniteHorizon {
                horizon: f64::INFINITY
            }
        );
        assert_eq!(
            Retiming::try_new(vec![], -1.0).unwrap_err(),
            RetimingError::NonFiniteHorizon { horizon: -1.0 }
        );
    }

    #[test]
    fn identity_retiming_preserves_everything() {
        let exec = base_run(3, 10.0);
        let retimed = Retiming::identity(&exec).apply(&exec);
        assert_eq!(exec.events().len(), retimed.events().len());
        for (a, b) in exec.events().iter().zip(retimed.events()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "bit-exact identity");
            assert_eq!(a.kind, b.kind);
        }
        assert_eq!(exec.messages().len(), retimed.messages().len());
    }

    #[test]
    fn identity_retiming_of_churned_execution_is_bitwise() {
        let exec = flap_run(23.0);
        assert!(exec
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::TopologyChange { .. })));
        let retimed = Retiming::identity(&exec).apply(&exec);
        assert_eq!(exec.events().len(), retimed.events().len());
        for (a, b) in exec.events().iter().zip(retimed.events()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.hw.to_bits(), b.hw.to_bits());
            assert_eq!(a.kind, b.kind);
        }
        assert_eq!(exec.messages(), retimed.messages());
        // The carried churn timeline is reproduced too.
        let view = retimed.dynamic_topology().expect("dynamic carried");
        assert_eq!(
            view.edge_changes(),
            exec.dynamic_topology().unwrap().edge_changes()
        );
        // And it validates: liveness, delays, change-sync all clean.
        let report =
            Retiming::identity(&exec)
                .validate(&retimed, DriftBound::new(0.5).unwrap(), |_, _| (0.0, 1.0));
        assert!(report.is_valid(), "{report}");
        assert!(report.links_checked > 0);
    }

    #[test]
    fn uniform_dynamic_speedup_is_consistent_and_valid() {
        // Speeding every node by γ while compressing the churn timeline by
        // 1/γ is the dynamic generalization of the classic uniform
        // speed-up: everything — events, messages, link changes — lands at
        // t/γ, readings preserved.
        let exec = flap_run(20.0);
        let gamma = 2.0;
        let retiming = Retiming::new(vec![RateSchedule::constant(gamma); 2], 10.0)
            .with_warp(TimeWarp::uniform(1.0 / gamma));
        let retimed = retiming.apply(&exec);
        assert_eq!(exec.events().len(), retimed.events().len());
        for (a, b) in exec.events().iter().zip(retimed.events()) {
            assert!((b.time - a.time / gamma).abs() < 1e-12);
            assert!((b.hw - a.hw).abs() < 1e-12, "readings preserved");
            assert_eq!(a.kind, b.kind);
        }
        let report = retiming.validate(&retimed, DriftBound::new(0.5).unwrap(), |_, _| (0.0, 1.0));
        // γ = 2 breaks the drift bound, but the *dynamic* provisos hold:
        // every message's link is up over its compressed interval and both
        // endpoints of each change coincide.
        assert!(report.link_violations.is_empty(), "{report}");
        assert!(report.change_violations.is_empty(), "{report}");
        assert!(report.delay_violations.is_empty(), "{report}");
        assert!(!report.rates_ok);
    }

    #[test]
    fn warping_churn_away_from_messages_flags_liveness() {
        // Keep node schedules (and hence messages) fixed but compress the
        // churn timeline: deliveries that happened while the link was up
        // now fall into the warped outage.
        let exec = flap_run(20.0);
        let retiming = Retiming::new(vec![RateSchedule::constant(1.0); 2], 20.0)
            .with_warp(TimeWarp::uniform(0.5));
        let retimed = retiming.apply(&exec);
        let report = retiming.validate(&retimed, DriftBound::new(0.5).unwrap(), |_, _| (0.0, 1.0));
        assert!(
            !report.link_violations.is_empty(),
            "messages delivered inside the warped outage must be flagged: {report}"
        );
        assert!(!report.is_valid());
        // The warp itself stays coherent: endpoints still agree.
        assert!(report.change_violations.is_empty());
    }

    #[test]
    fn desynchronized_change_endpoints_are_flagged() {
        let exec = flap_run(20.0);
        let retiming = Retiming::identity(&exec);
        let retimed = retiming.apply(&exec);
        // Hand-perturb one endpoint's copy of the first change.
        let mut events = retimed.events().to_vec();
        let idx = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::TopologyChange { .. }))
            .expect("has changes");
        events[idx].time += 0.25;
        let broken = Execution::from_parts_dynamic(
            retimed.topology().clone(),
            retimed.schedules().to_vec(),
            retimed.horizon(),
            events,
            retimed.messages().to_vec(),
            retimed.trajectories().to_vec(),
            retimed.dynamic_topology().cloned(),
        );
        let report = retiming.validate(&broken, DriftBound::new(0.5).unwrap(), |_, _| (0.0, 1.0));
        assert!(!report.change_violations.is_empty());
        assert!(!report.is_valid());
        let v = report.change_violations[0];
        assert_eq!((v.a, v.b), (0, 1));
    }

    #[test]
    fn merge_matches_legacy_full_sort() {
        // Pin the k-way merge against the order the old implementation
        // produced: map every event, then re-sort the whole log by
        // (time, tie_key).
        let exec = flap_run(23.0);
        let retiming = Retiming::new(
            vec![
                RateSchedule::builder(1.0).rate_from(6.0, 1.25).build(),
                RateSchedule::builder(1.0).rate_from(3.0, 1.1).build(),
            ],
            20.0,
        )
        .with_warp(TimeWarp::from_schedule(
            RateSchedule::builder(1.0).rate_from(10.0, 0.75).build(),
        ));
        let retimed = retiming.apply(&exec);

        let mut legacy: Vec<EventRecord> = Vec::new();
        for ev in exec.events() {
            let t = if matches!(ev.kind, EventKind::TopologyChange { .. }) {
                retiming.map_shared_time(ev.time)
            } else {
                retiming.map_time(ev.node, ev.hw)
            };
            if t <= retiming.horizon() {
                let hw = if matches!(ev.kind, EventKind::TopologyChange { .. }) {
                    retiming.schedules()[ev.node].value_at(t)
                } else {
                    ev.hw
                };
                legacy.push(EventRecord {
                    time: t,
                    node: ev.node,
                    hw,
                    kind: ev.kind.clone(),
                });
            }
        }
        legacy.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .expect("finite times")
                .then_with(|| a.kind.tie_key(a.node).cmp(&b.kind.tie_key(b.node)))
        });
        assert_eq!(retimed.events(), legacy.as_slice());
    }

    #[test]
    fn speeding_all_nodes_compresses_time() {
        let exec = base_run(2, 10.0);
        // Both nodes run at rate 2 from t=0 in the new execution; all
        // events land at half their original real times.
        let fast = vec![RateSchedule::constant(2.0); 2];
        let retimed = Retiming::new(fast, 5.0).apply(&exec);
        assert_eq!(retimed.events().len(), exec.events().len());
        for (a, b) in exec.events().iter().zip(retimed.events()) {
            assert!((b.time - a.time / 2.0).abs() < 1e-12);
            assert_eq!(a.hw, b.hw, "hardware readings preserved");
        }
    }

    #[test]
    fn horizon_truncates_late_events() {
        let exec = base_run(2, 10.0);
        let retimed = Retiming::new(vec![RateSchedule::constant(1.0); 2], 5.0).apply(&exec);
        assert!(retimed.events().iter().all(|e| e.time <= 5.0 + 1e-12));
        assert!(retimed.events().len() < exec.events().len());
        // Messages arriving past 5.0 are in flight.
        assert!(retimed
            .messages()
            .iter()
            .any(|m| m.status == MessageStatus::InFlight));
    }

    #[test]
    fn logical_values_follow_hardware_readings() {
        let exec = base_run(2, 10.0);
        let retimed = Retiming::new(vec![RateSchedule::constant(2.0); 2], 5.0).apply(&exec);
        // Logical value at new time t equals original value at 2t, because
        // the hardware reading coincides.
        for t in [0.5, 1.25, 3.0, 5.0] {
            assert!(
                (retimed.logical_at(0, t) - exec.logical_at(0, 2.0 * t)).abs() < 1e-9,
                "t = {t}"
            );
        }
    }

    #[test]
    fn validate_accepts_legal_transform() {
        let exec = base_run(3, 12.0);
        let bound = DriftBound::new(0.5).unwrap();
        // Slightly speed up node 0 late in the run; delays shift by less
        // than d/2 so they stay within [0, d].
        let schedules = vec![
            RateSchedule::builder(1.0).rate_from(10.0, 1.2).build(),
            RateSchedule::constant(1.0),
            RateSchedule::constant(1.0),
        ];
        let retiming = Retiming::new(schedules, 12.0);
        let transformed = retiming.apply(&exec);
        let topo = exec.topology().clone();
        let report = retiming.validate(&transformed, bound, |i, j| (0.0, topo.distance(i, j)));
        assert!(report.rates_ok);
        assert!(report.is_valid(), "{report}");
        assert!(report.messages_checked > 0);
        // Static executions have no dynamic provisos to check.
        assert_eq!(report.links_checked, 0);
    }

    #[test]
    fn validate_flags_drift_violation() {
        let exec = base_run(2, 4.0);
        let bound = DriftBound::new(0.1).unwrap();
        let retiming = Retiming::new(vec![RateSchedule::constant(2.0); 2], 2.0);
        let transformed = retiming.apply(&exec);
        let report = retiming.validate(&transformed, bound, |_, _| (0.0, 1.0));
        assert!(!report.rates_ok);
        assert!(!report.is_valid());
    }

    #[test]
    fn validate_flags_delay_violation() {
        let exec = base_run(2, 10.0);
        // Speeding only the receiver early pulls arrivals before sends.
        let schedules = vec![RateSchedule::constant(1.0), RateSchedule::constant(4.0)];
        let retiming = Retiming::new(schedules, 10.0);
        let transformed = retiming.apply(&exec);
        let report = retiming.validate(&transformed, DriftBound::new(0.5).unwrap(), |_, _| {
            (0.0, 1.0)
        });
        assert!(
            !report.delay_violations.is_empty(),
            "extreme receiver speed-up must break delay bounds"
        );
    }

    #[test]
    fn retimed_events_are_sorted() {
        let exec = base_run(4, 12.0);
        let schedules = vec![
            RateSchedule::builder(1.0).rate_from(6.0, 1.1).build(),
            RateSchedule::constant(1.0),
            RateSchedule::builder(1.0).rate_from(3.0, 1.05).build(),
            RateSchedule::constant(1.0),
        ];
        let retimed = Retiming::new(schedules, 12.0).apply(&exec);
        for w in retimed.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn report_display_is_informative() {
        let exec = base_run(2, 4.0);
        let retiming = Retiming::identity(&exec);
        let transformed = retiming.apply(&exec);
        let report = retiming.validate(&transformed, DriftBound::new(0.5).unwrap(), |_, _| {
            (0.0, 1.0)
        });
        assert!(format!("{report}").contains("delay violations"));
        assert!(format!("{report}").contains("liveness"));
    }
}
