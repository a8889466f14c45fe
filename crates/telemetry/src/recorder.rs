//! Trace recorders: full and ring-buffer sinks for engine trace
//! events, plus bit-exact trace fingerprints and post-hoc trace
//! reconstruction from recorded executions.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use gcs_sim::{DropReason, EventKind, Execution, MessageStatus, TraceEvent, Tracer};

#[derive(Debug)]
struct TraceBuf {
    events: VecDeque<TraceEvent>,
    /// `None`: keep everything (recorded mode); `Some(k)`: ring buffer
    /// holding the last `k` events (streaming mode).
    capacity: Option<usize>,
    /// Total events ever recorded (≥ `events.len()` once a ring wraps).
    total: u64,
}

/// A [`Tracer`] that collects the event stream.
///
/// The engine owns its tracer for the duration of a run, so the
/// recorder is a cheap clonable *handle* onto shared storage: keep one
/// clone, hand the other to [`gcs_sim::Simulation::set_tracer`], and
/// read the events back through your copy after (or during) the run.
///
/// ```
/// use gcs_net::Topology;
/// use gcs_sim::{Context, Node, NodeId, SimulationBuilder};
/// use gcs_telemetry::TraceRecorder;
///
/// #[derive(Debug)]
/// struct Quiet;
/// impl Node<()> for Quiet {
///     fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
///     fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: &()) {}
/// }
///
/// let recorder = TraceRecorder::recorded();
/// let mut sim = SimulationBuilder::new(Topology::line(3))
///     .build_with(|_, _| Quiet)
///     .unwrap();
/// sim.set_tracer(Box::new(recorder.clone()));
/// let _exec = sim.try_execute_until(1.0).unwrap();
/// assert_eq!(recorder.total_recorded(), 3); // three start events
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    buf: Rc<RefCell<TraceBuf>>,
}

impl TraceRecorder {
    /// A recorder that keeps the complete trace (recorded mode).
    #[must_use]
    pub fn recorded() -> Self {
        Self {
            buf: Rc::new(RefCell::new(TraceBuf {
                events: VecDeque::new(),
                capacity: None,
                total: 0,
            })),
        }
    }

    /// A bounded ring buffer keeping only the most recent `capacity`
    /// events — the streaming-mode "black box" whose contents equal the
    /// tail of the full trace.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn streaming(capacity: usize) -> Self {
        assert!(capacity > 0, "ring-buffer capacity must be positive");
        Self {
            buf: Rc::new(RefCell::new(TraceBuf {
                events: VecDeque::with_capacity(capacity),
                capacity: Some(capacity),
                total: 0,
            })),
        }
    }

    /// The retained events, oldest first (the whole trace in recorded
    /// mode, the last `capacity` events in streaming mode).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.borrow().events.iter().cloned().collect()
    }

    /// Total events ever recorded, including those a ring evicted.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.buf.borrow().total
    }

    /// The ring capacity (`None` for a full recorder).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.buf.borrow().capacity
    }
}

impl Tracer for TraceRecorder {
    fn record(&mut self, event: &TraceEvent) {
        let mut buf = self.buf.borrow_mut();
        if let Some(cap) = buf.capacity {
            if buf.events.len() == cap {
                buf.events.pop_front();
            }
        }
        buf.events.push_back(event.clone());
        buf.total += 1;
    }
}

fn push_f64(out: &mut String, label: &str, v: f64) {
    let _ = write!(out, " {label}={v:?}#{:016x}", v.to_bits());
}

/// Renders one trace event as a single stable line with every float in
/// bit-exact form — the unit of [`trace_fingerprint`] and of the vopr
/// black-box tail.
#[must_use]
pub fn render_trace_event(ev: &TraceEvent) -> String {
    let mut out = String::new();
    match *ev {
        TraceEvent::NodeStarted {
            time,
            node,
            hw,
            logical,
        } => {
            let _ = write!(out, "start node={node}");
            push_f64(&mut out, "t", time);
            push_f64(&mut out, "hw", hw);
            push_f64(&mut out, "logical", logical);
        }
        TraceEvent::Send {
            time,
            from,
            to,
            seq,
            hw,
            arrival,
        } => {
            let _ = write!(out, "send {from}->{to} seq={seq}");
            push_f64(&mut out, "t", time);
            push_f64(&mut out, "hw", hw);
            match arrival {
                Some(a) => push_f64(&mut out, "arrival", a),
                None => out.push_str(" arrival=none"),
            }
        }
        TraceEvent::Deliver {
            time,
            from,
            to,
            seq,
            send_time,
            hw,
            logical,
        } => {
            let _ = write!(out, "deliver {from}->{to} seq={seq}");
            push_f64(&mut out, "t", time);
            push_f64(&mut out, "sent", send_time);
            push_f64(&mut out, "hw", hw);
            push_f64(&mut out, "logical", logical);
        }
        TraceEvent::Drop {
            time,
            from,
            to,
            seq,
            send_time,
            reason,
        } => {
            let _ = write!(out, "drop {from}->{to} seq={seq} reason={reason}");
            push_f64(&mut out, "t", time);
            push_f64(&mut out, "sent", send_time);
        }
        TraceEvent::TimerFired {
            time,
            node,
            id,
            hw,
            logical,
        } => {
            let _ = write!(out, "timer node={node} id={id}");
            push_f64(&mut out, "t", time);
            push_f64(&mut out, "hw", hw);
            push_f64(&mut out, "logical", logical);
        }
        TraceEvent::LinkChanged {
            time,
            node,
            peer,
            up,
            hw,
        } => {
            let _ = write!(out, "link node={node} peer={peer} up={up}");
            push_f64(&mut out, "t", time);
            push_f64(&mut out, "hw", hw);
        }
        TraceEvent::ProbeFired { time, index } => {
            let _ = write!(out, "probe index={index}");
            push_f64(&mut out, "t", time);
        }
    }
    out
}

/// Renders a whole trace as a line-oriented, bit-exact fingerprint.
///
/// Two traces have equal fingerprints **iff** every event is
/// bit-identical — the property the golden trace snapshots and the
/// thread-count-invariance tests pin, mirroring
/// `gcs_testkit::fingerprint` for executions.
#[must_use]
pub fn trace_fingerprint(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace events={}", events.len());
    for (k, ev) in events.iter().enumerate() {
        let _ = writeln!(out, "{k} {}", render_trace_event(ev));
    }
    out
}

/// Reconstructs the engine's trace-event stream from a recorded
/// [`Execution`] — the post-hoc twin of a live [`TraceRecorder`].
///
/// Used by the replay oracle: a live trace of a run, the reconstruction
/// from its record, and the reconstruction from a
/// `replay_execution` of that record must all be bit-identical.
///
/// Two documented deviations from the live stream:
///
/// - No [`TraceEvent::ProbeFired`] events (the record does not know the
///   probe grid); filter them from the live side before comparing.
/// - Every dropped message is rendered as a loss drop at send time. A
///   recorded [`gcs_sim::MessageRecord`] does not say *when* a link-down
///   drop resolved, so reconstruction is exact only for runs without
///   in-flight link drops — which is also the precondition of the
///   replay oracle itself.
///
/// The post-callback `logical` readings are re-derived from the final
/// trajectories at each event's hardware reading; they match the live
/// values whenever a node's dispatch readings are distinct (two
/// callbacks of one node at the *same* reading would collapse to the
/// last value).
#[must_use]
pub fn trace_from_execution<M>(exec: &Execution<M>) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let messages = exec.messages();
    // Messages are logged in global send order, and sends only happen
    // during dispatches, so a single cursor replays each dispatch's
    // sends right after its event.
    let mut next_msg = 0usize;
    for ev in exec.events() {
        let logical = exec.trajectory(ev.node).value_at(ev.hw);
        out.push(match ev.kind {
            EventKind::Start => TraceEvent::NodeStarted {
                time: ev.time,
                node: ev.node,
                hw: ev.hw,
                logical,
            },
            EventKind::Deliver { from, seq } => {
                let m = messages
                    .iter()
                    .find(|m| m.from == from && m.to == ev.node && m.seq == seq)
                    .expect("delivered message is in the log");
                TraceEvent::Deliver {
                    time: ev.time,
                    from,
                    to: ev.node,
                    seq,
                    send_time: m.send_time,
                    hw: ev.hw,
                    logical,
                }
            }
            EventKind::Timer { id } => TraceEvent::TimerFired {
                time: ev.time,
                node: ev.node,
                id,
                hw: ev.hw,
                logical,
            },
            EventKind::TopologyChange { peer, up } => TraceEvent::LinkChanged {
                time: ev.time,
                node: ev.node,
                peer,
                up,
                hw: ev.hw,
            },
        });
        while next_msg < messages.len() {
            let m = &messages[next_msg];
            if m.from != ev.node || m.send_time != ev.time || m.send_hw != ev.hw {
                break;
            }
            out.push(TraceEvent::Send {
                time: m.send_time,
                from: m.from,
                to: m.to,
                seq: m.seq,
                hw: m.send_hw,
                arrival: m.arrival_time,
            });
            if m.status == MessageStatus::Dropped && m.arrival_time.is_none() {
                out.push(TraceEvent::Drop {
                    time: m.send_time,
                    from: m.from,
                    to: m.to,
                    seq: m.seq,
                    send_time: m.send_time,
                    reason: DropReason::Loss,
                });
            }
            next_msg += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::ProbeFired {
            time: i as f64,
            index: i,
        }
    }

    #[test]
    fn full_recorder_keeps_everything_in_order() {
        let mut rec = TraceRecorder::recorded();
        for i in 0..5 {
            rec.record(&ev(i));
        }
        let got = rec.events();
        assert_eq!(got.len(), 5);
        assert_eq!(rec.total_recorded(), 5);
        assert_eq!(got[0], ev(0));
        assert_eq!(got[4], ev(4));
    }

    #[test]
    fn ring_keeps_exactly_the_tail() {
        let mut rec = TraceRecorder::streaming(3);
        for i in 0..10 {
            rec.record(&ev(i));
        }
        assert_eq!(rec.events(), vec![ev(7), ev(8), ev(9)]);
        assert_eq!(rec.total_recorded(), 10);
        assert_eq!(rec.capacity(), Some(3));
    }

    #[test]
    fn handles_share_storage() {
        let rec = TraceRecorder::recorded();
        let mut handle = rec.clone();
        handle.record(&ev(1));
        assert_eq!(rec.events().len(), 1);
    }

    #[test]
    fn fingerprint_is_bit_exact() {
        let a = TraceEvent::ProbeFired {
            time: 0.1 + 0.2,
            index: 0,
        };
        let b = TraceEvent::ProbeFired {
            time: 0.3,
            index: 0,
        };
        // 0.1 + 0.2 != 0.3 bitwise; the fingerprint must see that.
        assert_ne!(
            trace_fingerprint(&[a]),
            trace_fingerprint(&[b]),
            "fingerprint collapsed distinct bit patterns"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_rejected() {
        let _ = TraceRecorder::streaming(0);
    }
}
