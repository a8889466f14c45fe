//! The traced run's span stack and its in-memory span log.
//!
//! The wrapper types in `adapter.rs` open a [`Span`] around every call the
//! engine makes into a clock source, a delay policy, a node or an observer,
//! and around every call the benchmark makes into the engine. Spans nest on
//! a thread-local stack, so a layer's **self time** is its span's duration
//! minus the part its child spans cover, and the self times of one slice sum
//! to the slice's wall time by construction.
//!
//! Single spans are not kept (a repetition has tens of millions): they are
//! aggregated per [`Kind`] into one [`SliceSpans`] per engine call, kept in
//! memory, and written out once by `main.rs` when the benchmark ends.
//! Threads the sharded engine spawns have their own stacks; their totals
//! reach the shared sink when the thread ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span is around. `Engine` is the benchmark's call into the engine;
/// everything else is a call the engine makes back out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Engine = 0,
    NodeStart = 1,
    NodeMessage = 2,
    NodeTimer = 3,
    NodeTopology = 4,
    Clock = 5,
    Delay = 6,
    Observer = 7,
}

pub const KINDS: usize = 8;

/// The layer name each kind is reported under (the crates' modules).
pub const KIND_NAMES: [&str; KINDS] = [
    "sim.engine",
    "algorithms.node.on_start",
    "algorithms.node.on_message",
    "algorithms.node.on_timer",
    "algorithms.node.on_topology_change",
    "clocks.source",
    "net.delay",
    "sim.observer",
];

/// Calls and self time of one kind of span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
}

pub type Totals = [Agg; KINDS];

fn add_into(into: &mut Totals, from: &Totals) {
    for (a, b) in into.iter_mut().zip(from) {
        a.calls += b.calls;
        a.self_ns += b.self_ns;
    }
}

struct Frame {
    kind: Kind,
    start: Instant,
    child_ns: u64,
}

struct Local {
    stack: Vec<Frame>,
    totals: Totals,
    /// Counted in [`UNFLUSHED`].
    counted: bool,
}

/// Totals of threads that have ended (the sharded engine's workers).
static SINK: Mutex<Totals> = Mutex::new(
    [Agg {
        calls: 0,
        self_ns: 0,
    }; KINDS],
);

/// Threads that have recorded a span and not yet reached the sink. A scope
/// can return before its threads' thread-local destructors have run, so
/// [`take_totals`] waits on this count and not on the scope.
static UNFLUSHED: AtomicUsize = AtomicUsize::new(0);

impl Drop for Local {
    fn drop(&mut self) {
        // A worker that panicked while holding the sink leaves totals that
        // are still valid sums, so the poisoned guard is usable.
        add_into(
            &mut SINK.lock().unwrap_or_else(|e| e.into_inner()),
            &self.totals,
        );
        if self.counted {
            UNFLUSHED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stack: Vec::new(),
            totals: [Agg { calls: 0, self_ns: 0 }; KINDS],
            counted: false,
        })
    };
}

/// An open span; closes when dropped.
pub struct Span(());

impl Span {
    #[inline]
    pub fn enter(kind: Kind) -> Span {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if !l.counted {
                l.counted = true;
                UNFLUSHED.fetch_add(1, Ordering::SeqCst);
            }
            l.stack.push(Frame {
                kind,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        Span(())
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let frame = l.stack.pop().expect("span stack underflow");
            let dur = frame.start.elapsed().as_nanos() as u64;
            let agg = &mut l.totals[frame.kind as usize];
            agg.calls += 1;
            agg.self_ns += dur.saturating_sub(frame.child_ns);
            if let Some(parent) = l.stack.last_mut() {
                parent.child_ns += dur;
            }
        });
    }
}

/// Takes everything recorded since the last call: this thread's totals plus
/// those of every other thread that recorded a span, waiting until each has
/// ended. Call it between engine calls, when no span is open and the only
/// other threads that record spans are the engine's short-lived workers.
pub fn take_totals() -> Totals {
    let (mut out, own) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        (std::mem::take(&mut l.totals), usize::from(l.counted))
    });
    while UNFLUSHED.load(Ordering::SeqCst) > own {
        std::thread::yield_now();
    }
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    add_into(&mut out, &std::mem::take(&mut *sink));
    out
}

/// The aggregated spans of one engine call (one slice of a repetition).
#[derive(Debug, Clone)]
pub struct SliceSpans {
    /// Nanoseconds from the start of the traced phase to the engine call.
    pub start_ns: u64,
    /// Wall time of the engine call.
    pub wall_ns: u64,
    pub totals: Totals,
}

/// A direct timed call into one public function.
#[derive(Debug, Clone)]
pub struct CallSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The in-memory span log of one traced run.
pub struct TraceLog {
    epoch: Instant,
    pub slices: Vec<SliceSpans>,
    pub calls: Vec<CallSpan>,
    /// (due, sent, done) of every request of a traced open loop, in
    /// nanoseconds from the loop's start.
    pub requests: Vec<[u64; 3]>,
}

impl TraceLog {
    pub fn new() -> Self {
        TraceLog {
            epoch: Instant::now(),
            slices: Vec::new(),
            calls: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Runs one engine call under an `Engine` span and logs its slice.
    pub fn slice<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let _ = take_totals();
        let start = Instant::now();
        let out = {
            let _span = Span::enter(Kind::Engine);
            call()
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.slices.push(SliceSpans {
            start_ns: (start - self.epoch).as_nanos() as u64,
            wall_ns,
            totals: take_totals(),
        });
        out
    }

    /// Times one direct call and logs it. Returns the result and the
    /// duration in nanoseconds.
    pub fn call<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(call());
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.calls.push(CallSpan {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns,
        });
        (out, dur_ns as f64)
    }

    /// Sum of the slices' totals.
    pub fn totals(&self) -> Totals {
        let mut out = Totals::default();
        for s in &self.slices {
            add_into(&mut out, &s.totals);
        }
        out
    }

    /// The span log as JSON: one parent span per slice with one child per
    /// layer that ran in it, then the direct calls.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
        };
        for (id, s) in self.slices.iter().enumerate() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"slice\",\"id\":{id},\"parent\":null,\"start_ns\":{},\"dur_ns\":{}}}",
                s.start_ns, s.wall_ns
            ));
            for (kind, agg) in s.totals.iter().enumerate().filter(|(_, a)| a.calls > 0) {
                sep(&mut out);
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"parent\":{id},\"start_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                    KIND_NAMES[kind], s.start_ns, agg.self_ns, agg.calls
                ));
            }
        }
        for c in &self.calls {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":null,\"start_ns\":{},\"dur_ns\":{}}}",
                c.name, c.start_ns, c.dur_ns
            ));
        }
        for (id, [due, sent, done]) in self.requests.iter().enumerate() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"request\",\"id\":{id},\"due_ns\":{due},\"sent_ns\":{sent},\"done_ns\":{done}}}"
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, because `take_totals` waits for every other thread that
    /// has recorded a span, and the test harness keeps its threads alive.
    #[test]
    fn self_times_exclude_children_and_workers_reach_the_sink() {
        let mut log = TraceLog::new();
        log.slice(|| {
            let _node = Span::enter(Kind::NodeMessage);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _clock = Span::enter(Kind::Clock);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let s = &log.slices[0];
        let sum: u64 = s.totals.iter().map(|a| a.self_ns).sum();
        assert!(sum <= s.wall_ns && s.wall_ns - sum < 200_000, "{s:?}");
        assert!(s.totals[Kind::NodeMessage as usize].self_ns >= 2_000_000);
        assert!(s.totals[Kind::Clock as usize].self_ns >= 2_000_000);
        assert!(s.totals[Kind::NodeMessage as usize].self_ns < 3_900_000);

        log.slice(|| {
            std::thread::scope(|s| {
                s.spawn(|| drop(Span::enter(Kind::Delay)));
            });
        });
        assert_eq!(log.slices[1].totals[Kind::Delay as usize].calls, 1);
        assert!(log
            .to_json("w", 1)
            .contains("\"name\":\"net.delay\",\"parent\":1"));
    }
}
