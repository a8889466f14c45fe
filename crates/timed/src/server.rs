//! The serving daemon: one thread, readiness-driven, over `std::net`.
//!
//! One thread owns everything — the listener, every connection, and the
//! [`TimeService`] — so the read path needs no lock (no tokio; the build
//! stays hermetic). The thread **blocks in one `poll(2)` call** per
//! iteration (the private `poll` module, the crate's one foreign call)
//! and does work only for what that call reported:
//!
//! 1. **Seal.** The simulation follows wall-clock pace
//!    ([`ServerConfig::pace`] sim-seconds per wall-second). When
//!    `sim_now + seal_every` has fallen due the loop advances the
//!    service, which seals one epoch per probe tick crossed, and
//!    re-encodes the response templates.
//! 2. **Wait.** The poll set is a waker, the listener and every
//!    connection: `POLLIN`, plus `POLLOUT` only while the connection has
//!    unsent bytes. The timeout is the wall time until the next seal is
//!    due, and there is none once [`ServerConfig::horizon`] is reached:
//!    an idle daemon past its horizon makes no wake-ups at all.
//! 3. **Serve what is ready.** [`ServerHandle::shutdown`] writes a byte
//!    to the waker (a `UnixStream` pair), so stopping never waits for a
//!    timeout. A ready listener is accepted from until `WouldBlock`. A
//!    ready connection gets **one** read into its receive buffer, every
//!    complete frame in that buffer is answered, and one write is tried;
//!    what the socket did not take stays for `POLLOUT`. One buffer of
//!    requests is the most a pipelining peer gets before its neighbours
//!    and the seal deadline have their turn.
//!
//! **Back-pressure.** A connection whose unsent bytes exceed
//! `WBUF_CAP` (64 KiB) is no longer polled for `POLLIN` and its
//! buffered requests are no longer answered until the peer has read. A
//! peer that pipelines and never reads fills the kernel's buffers and
//! then blocks itself; the daemon holds at most the cap plus one
//! response for it.
//!
//! **There is no idle knob.** The loop used to sleep 200 µs whenever an
//! iteration found nothing to do, and that sleep, not the work, set the
//! median latency of a read (about 250 µs against 7 µs busy). Blocking
//! until a descriptor is ready or a seal is due makes the setting, and
//! any spin-before-block variant of it, pointless: there is one code
//! path and it has nothing to tune.
//!
//! Queries are answered from the pre-encoded template of the current
//! sealed [`Snapshot`](crate::snapshot::Snapshot) — a memcpy plus an
//! 8-byte `req_id` patch — and between two probes the snapshot is
//! immutable by construction. The loop counts in plain integers and
//! writes them to the [`MetricsRegistry`] once, when it exits; its only
//! registry call per iteration is one `server/seal_late_us` observation
//! when it seals.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcs_telemetry::MetricsRegistry;

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::service::{ServiceStats, TimeService};
use crate::wire::{self, op, Decoded, RecvBuf};

/// Unsent bytes beyond which a connection's requests wait (see the
/// module docs, back-pressure).
const WBUF_CAP: usize = 64 * 1024;

/// Accepts per pass, so a connection flood yields to sealing and to the
/// established connections; the listener stays readable for the rest.
const ACCEPTS_PER_PASS: usize = 64;

/// How long the listener stays out of the poll set after `accept`
/// failed (`EMFILE`, `ENFILE`, `ENOMEM`): the pending connection keeps
/// it readable, so polling it at once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Bucket edges of the `server/seal_late_us` histogram, microseconds.
const SEAL_LATE_EDGES_US: [f64; 12] = [
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 1e5, 1e6,
];

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Simulation seconds advanced per wall-clock second.
    pub pace: f64,
    /// Simulation horizon: the service stops advancing here but keeps
    /// serving the final sealed snapshot.
    pub horizon: f64,
    /// Connection cap; accepts beyond it are dropped immediately.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pace: 50.0,
            horizon: 1_000.0,
            max_conns: 256,
        }
    }
}

/// What the daemon thread reports when it exits.
#[derive(Debug)]
pub struct ServerReport {
    /// Final service counters.
    pub stats: ServiceStats,
    /// Requests answered, by any op.
    pub requests: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Protocol errors (unknown ops, malformed frames).
    pub errors: u64,
    /// The server's metrics registry, written once at exit (exportable
    /// via [`MetricsRegistry::to_json`]). Counters, all `server/…`:
    /// `requests_<op>`, `bad_op`, `malformed_frames`, `bytes_in`,
    /// `bytes_out`, `seals`, `accepted`, `rejected_conns`, `closed`,
    /// `accept_errors`, `backpressured` (times a connection's reads were
    /// suspended at the write cap), and `wakeups` with its split by
    /// cause: `wake_ready`, `wake_deadline`, `wake_waker`. Gauges:
    /// `epoch`, `sim_now`, `wbuf_peak_bytes`. Histogram: `seal_late_us`.
    pub metrics: MetricsRegistry,
}

impl ServerReport {
    /// How far past due the loop took its seals, in microseconds: the
    /// mean, and the upper edge of the `server/seal_late_us` bucket that
    /// holds the 99th percentile (infinite for the overflow bucket).
    /// `None` before the first seal.
    #[must_use]
    pub fn seal_lateness_us(&self) -> Option<(f64, f64)> {
        let h = self.metrics.histogram("server/seal_late_us")?;
        if h.count() == 0 {
            return None;
        }
        let rank = (h.count() * 99).div_ceil(100);
        let mut seen = 0;
        let bucket = h.counts().iter().position(|&c| {
            seen += c;
            seen >= rank
        })?;
        let p99 = h.edges().get(bucket).copied().unwrap_or(f64::INFINITY);
        Some((h.sum() / h.count() as f64, p99))
    }
}

/// Handle to a spawned daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    waker: UnixStream,
    join: JoinHandle<ServerReport>,
}

impl ServerHandle {
    /// The bound address (use `"127.0.0.1:0"` to let the OS pick a port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wakes the loop with a stop byte and joins it. Dropping the handle
    /// instead leaves the daemon serving.
    ///
    /// # Panics
    ///
    /// Panics if the daemon thread itself panicked.
    #[must_use]
    pub fn shutdown(self) -> ServerReport {
        // A failed write means the loop has ended already (a `SHUTDOWN`
        // request) and closed its end.
        let _ = (&self.waker).write(&[1]);
        self.join.join().expect("daemon thread panicked")
    }
}

/// The daemon entry points.
pub struct TimedServer;

impl TimedServer {
    /// Binds `addr`, then spawns the daemon thread. `make` constructs
    /// the [`TimeService`] *inside* the thread (simulations hold
    /// unsendable trait objects, so the service cannot cross threads —
    /// its recipe can).
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or creating the
    /// waker's socket pair.
    pub fn spawn<M, F>(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        make: F,
    ) -> io::Result<ServerHandle>
    where
        M: Clone + std::fmt::Debug + 'static,
        F: FnOnce() -> TimeService<M> + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let (waker, woken) = UnixStream::pair()?;
        woken.set_nonblocking(true)?;
        let join = std::thread::Builder::new()
            .name("gcs-timed".into())
            .spawn(move || run_loop(&listener, &woken, make(), config))
            .expect("spawn daemon thread");
        Ok(ServerHandle {
            addr: bound,
            waker,
            join,
        })
    }
}

/// Whether a nonblocking `read` or `write` failed only for now: the
/// descriptor stays in the poll set and the next wait, being
/// level-triggered, reports it again when there is something to do.
fn retry_after_wait(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

/// The loop's counters, plain integers written to the registry at exit.
#[derive(Debug, Default)]
struct Counters {
    requests_read_interval: u64,
    requests_now: u64,
    requests_stats: u64,
    requests_ping: u64,
    requests_shutdown: u64,
    bad_op: u64,
    malformed_frames: u64,
    bytes_in: u64,
    bytes_out: u64,
    seals: u64,
    accepted: u64,
    rejected_conns: u64,
    closed: u64,
    accept_errors: u64,
    backpressured: u64,
    wake_ready: u64,
    wake_deadline: u64,
    wake_waker: u64,
    wbuf_peak_bytes: usize,
}

impl Counters {
    fn requests(&self) -> u64 {
        self.requests_read_interval
            + self.requests_now
            + self.requests_stats
            + self.requests_ping
            + self.requests_shutdown
            + self.bad_op
    }

    fn publish(&self, metrics: &mut MetricsRegistry) {
        for (name, value) in [
            ("server/requests_read_interval", self.requests_read_interval),
            ("server/requests_now", self.requests_now),
            ("server/requests_stats", self.requests_stats),
            ("server/requests_ping", self.requests_ping),
            ("server/requests_shutdown", self.requests_shutdown),
            ("server/bad_op", self.bad_op),
            ("server/malformed_frames", self.malformed_frames),
            ("server/bytes_in", self.bytes_in),
            ("server/bytes_out", self.bytes_out),
            ("server/seals", self.seals),
            ("server/accepted", self.accepted),
            ("server/rejected_conns", self.rejected_conns),
            ("server/closed", self.closed),
            ("server/accept_errors", self.accept_errors),
            ("server/backpressured", self.backpressured),
            ("server/wake_ready", self.wake_ready),
            ("server/wake_deadline", self.wake_deadline),
            ("server/wake_waker", self.wake_waker),
            (
                "server/wakeups",
                self.wake_ready + self.wake_deadline + self.wake_waker,
            ),
        ] {
            metrics.add(name, value);
        }
        metrics.set_gauge("server/wbuf_peak_bytes", self.wbuf_peak_bytes as f64);
    }
}

/// Response templates and the `STATS` answer, refreshed once per seal.
struct Templates {
    interval: Vec<u8>,
    now: Vec<u8>,
    epoch: u64,
    stats: ServiceStats,
}

impl Templates {
    fn new<M: Clone + std::fmt::Debug + 'static>(service: &TimeService<M>) -> Self {
        let mut templates = Templates {
            interval: Vec::new(),
            now: Vec::new(),
            epoch: 0,
            stats: ServiceStats::default(),
        };
        templates.refresh(service);
        templates
    }

    fn refresh<M: Clone + std::fmt::Debug + 'static>(&mut self, service: &TimeService<M>) {
        let snap = service.snapshot();
        self.interval.clear();
        wire::encode_frame(
            op::READ_INTERVAL,
            0,
            &wire::interval_payload(&snap),
            &mut self.interval,
        );
        self.now.clear();
        wire::encode_frame(op::NOW, 0, &wire::now_payload(&snap), &mut self.now);
        self.epoch = snap.epoch;
        self.stats = service.stats();
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: RecvBuf,
    wbuf: Vec<u8>,
    /// False once the peer closed, broke the protocol or the socket
    /// failed: no more reads, and the connection goes when `wbuf` has.
    open: bool,
    /// Inside a back-pressure episode (counted once on entry).
    backpressured: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: RecvBuf::new(),
            wbuf: Vec::new(),
            open: true,
            backpressured: false,
        }
    }

    fn wants_read(&self) -> bool {
        self.open && self.wbuf.len() <= WBUF_CAP
    }

    fn poll_fd(&self) -> PollFd {
        let mut events = 0;
        if self.wants_read() {
            events |= POLLIN;
        }
        if !self.wbuf.is_empty() {
            events |= POLLOUT;
        }
        PollFd::new(self.stream.as_raw_fd(), events)
    }

    /// One pass over a ready connection: at most one read, answers to
    /// every complete buffered frame the write cap admits, and writes
    /// for as long as they free room for stalled answers. Returns
    /// whether a `SHUTDOWN` request was among the frames.
    fn pump(&mut self, readable: bool, templates: &Templates, counters: &mut Counters) -> bool {
        if readable && self.wants_read() {
            match self.rbuf.fill(&mut self.stream) {
                Ok(0) => self.open = false,
                Ok(n) => counters.bytes_in += n as u64,
                Err(e) if retry_after_wait(&e) => {}
                Err(_) => self.open = false,
            }
        }
        let mut shutdown_requested = false;
        loop {
            let stalled = self.answer(templates, counters, &mut shutdown_requested);
            let wrote = self.flush(counters);
            if !stalled || wrote == 0 {
                break;
            }
        }
        shutdown_requested
    }

    /// Answers buffered frames into `wbuf` until the buffer runs out of
    /// complete frames (returns false) or `wbuf` is over its cap
    /// (returns true).
    fn answer(
        &mut self,
        templates: &Templates,
        counters: &mut Counters,
        shutdown_requested: &mut bool,
    ) -> bool {
        let mut stalled = false;
        while self.open {
            if self.wbuf.len() > WBUF_CAP {
                if !self.backpressured {
                    self.backpressured = true;
                    counters.backpressured += 1;
                }
                stalled = true;
                break;
            }
            match wire::decode_frame(self.rbuf.pending()) {
                Decoded::Frame(frame) => {
                    let at = self.wbuf.len();
                    match frame.op {
                        op::READ_INTERVAL => {
                            self.wbuf.extend_from_slice(&templates.interval);
                            wire::patch_req_id(&mut self.wbuf, at, frame.req_id);
                            counters.requests_read_interval += 1;
                        }
                        op::NOW => {
                            self.wbuf.extend_from_slice(&templates.now);
                            wire::patch_req_id(&mut self.wbuf, at, frame.req_id);
                            counters.requests_now += 1;
                        }
                        op::STATS => {
                            let payload = wire::stats_payload(&templates.stats, templates.epoch);
                            wire::encode_frame(op::STATS, frame.req_id, &payload, &mut self.wbuf);
                            counters.requests_stats += 1;
                        }
                        op::PING => {
                            wire::encode_frame(op::PING, frame.req_id, &[], &mut self.wbuf);
                            counters.requests_ping += 1;
                        }
                        op::SHUTDOWN => {
                            wire::encode_frame(op::SHUTDOWN, frame.req_id, &[], &mut self.wbuf);
                            counters.requests_shutdown += 1;
                            *shutdown_requested = true;
                        }
                        _ => {
                            wire::encode_frame(op::ERROR, frame.req_id, &[], &mut self.wbuf);
                            counters.bad_op += 1;
                        }
                    }
                    let consumed = frame.consumed;
                    self.rbuf.consume(consumed);
                }
                Decoded::Incomplete => break,
                Decoded::Malformed => {
                    counters.malformed_frames += 1;
                    self.open = false;
                }
            }
        }
        counters.wbuf_peak_bytes = counters.wbuf_peak_bytes.max(self.wbuf.len());
        stalled
    }

    /// One `write` of the unsent bytes; returns how many the socket took.
    /// What it did not take keeps `POLLOUT` in the poll set.
    fn flush(&mut self, counters: &mut Counters) -> usize {
        if self.wbuf.is_empty() {
            return 0;
        }
        match self.stream.write(&self.wbuf) {
            Ok(n) if n > 0 => {
                counters.bytes_out += n as u64;
                if n == self.wbuf.len() {
                    self.wbuf.clear();
                } else {
                    self.wbuf.drain(..n);
                }
                self.backpressured &= self.wbuf.len() > WBUF_CAP;
                n
            }
            Err(e) if retry_after_wait(&e) => 0,
            Ok(_) | Err(_) => {
                // Fatal: the pending bytes can never be delivered.
                self.open = false;
                self.wbuf.clear();
                0
            }
        }
    }
}

/// The connections and everything the accept path decides.
struct Conns {
    list: Vec<Conn>,
    max_conns: usize,
    /// Set by a failed `accept`; the next wait leaves the listener out
    /// and lasts at most [`ACCEPT_BACKOFF`].
    listener_backoff: bool,
}

impl Conns {
    /// Takes pending connections from `accept` until it would block, up
    /// to [`ACCEPTS_PER_PASS`].
    fn accept_pending(
        &mut self,
        mut accept: impl FnMut() -> io::Result<TcpStream>,
        counters: &mut Counters,
    ) {
        for _ in 0..ACCEPTS_PER_PASS {
            match accept() {
                Ok(stream) => {
                    if self.list.len() >= self.max_conns {
                        counters.rejected_conns += 1;
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    counters.accepted += 1;
                    self.list.push(Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    counters.accept_errors += 1;
                    self.listener_backoff = true;
                    break;
                }
            }
        }
    }
}

/// When seals fall due on the wall clock.
struct Pacer {
    started: Instant,
    pace: f64,
    horizon: f64,
    seal_every: f64,
}

impl Pacer {
    /// The simulation time of the next seal after `sim_now` and the wall
    /// time since `started` at which it is due; `None` when it lies
    /// beyond the horizon (or `pace` never gets there).
    fn next_seal(&self, sim_now: f64) -> Option<(f64, Duration)> {
        let due_sim = sim_now + self.seal_every;
        if due_sim > self.horizon {
            return None;
        }
        let due = Duration::try_from_secs_f64(due_sim / self.pace).ok()?;
        Some((due_sim, due))
    }
}

fn run_loop<M: Clone + std::fmt::Debug + 'static>(
    listener: &TcpListener,
    mut woken: &UnixStream,
    mut service: TimeService<M>,
    config: ServerConfig,
) -> ServerReport {
    let mut metrics = MetricsRegistry::new();
    metrics.register_histogram("server/seal_late_us", &SEAL_LATE_EDGES_US);
    let mut counters = Counters::default();
    let mut templates = Templates::new(&service);
    let mut conns = Conns {
        list: Vec::new(),
        max_conns: config.max_conns,
        listener_backoff: false,
    };
    let mut fds: Vec<PollFd> = Vec::new();
    let mut waker_open = true;
    let pacer = Pacer {
        started: Instant::now(),
        pace: config.pace,
        horizon: config.horizon,
        seal_every: service.params().seal_every,
    };

    loop {
        // 1. Co-drive the simulation along wall-clock pace.
        let mut next_seal = pacer.next_seal(service.sim_now());
        if let Some((due_sim, due)) = next_seal {
            let now = pacer.started.elapsed();
            if now >= due {
                let target = (now.as_secs_f64() * pacer.pace)
                    .min(pacer.horizon)
                    .max(due_sim);
                counters.seals += service.advance_to(target) as u64;
                templates.refresh(&service);
                let late_us = (now - due).as_secs_f64() * 1e6;
                metrics.observe("server/seal_late_us", &SEAL_LATE_EDGES_US, late_us);
                next_seal = pacer.next_seal(service.sim_now());
            }
        }

        // 2. Block until a descriptor is ready or the next seal is due.
        let mut timeout = next_seal.map(|(_, due)| due.saturating_sub(pacer.started.elapsed()));
        fds.clear();
        fds.push(if waker_open {
            PollFd::new(woken.as_raw_fd(), POLLIN)
        } else {
            PollFd::skipped()
        });
        if std::mem::take(&mut conns.listener_backoff) {
            fds.push(PollFd::skipped());
            timeout = Some(timeout.map_or(ACCEPT_BACKOFF, |t| t.min(ACCEPT_BACKOFF)));
        } else {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        fds.extend(conns.list.iter().map(Conn::poll_fd));
        let Ok(ready) = poll::wait(&mut fds, timeout) else {
            // Without a working wait the loop would spin: stop serving.
            metrics.inc("server/wait_errors");
            break;
        };
        let (waker_fd, listener_fd, conn_fds) = (fds[0], fds[1], &fds[2..]);
        if ready == 0 {
            counters.wake_deadline += 1;
        } else if waker_fd.ready() {
            counters.wake_waker += 1;
        } else {
            counters.wake_ready += 1;
        }

        // 3. Serve what is ready.
        if waker_fd.ready() {
            match woken.read(&mut [0u8; 8]) {
                // The stop byte from `ServerHandle::shutdown`.
                Ok(n) if n > 0 => break,
                Err(e) if retry_after_wait(&e) => {}
                // The handle was dropped: serve on, without the waker.
                Ok(_) | Err(_) => waker_open = false,
            }
        }
        let mut shutdown_requested = false;
        for (conn, fd) in conns.list.iter_mut().zip(conn_fds) {
            if fd.ready() {
                shutdown_requested |= conn.pump(fd.readable(), &templates, &mut counters);
            }
        }
        if listener_fd.ready() {
            conns.accept_pending(|| listener.accept().map(|(s, _)| s), &mut counters);
        }
        let before = conns.list.len();
        conns.list.retain(|c| c.open || !c.wbuf.is_empty());
        counters.closed += (before - conns.list.len()) as u64;
        if shutdown_requested {
            break;
        }
    }

    // Best-effort final flush so in-flight responses (e.g. the shutdown
    // ack) reach their clients.
    for conn in &mut conns.list {
        conn.flush(&mut counters);
    }

    counters.publish(&mut metrics);
    metrics.set_gauge("server/epoch", templates.epoch as f64);
    metrics.set_gauge("server/sim_now", service.sim_now());
    ServerReport {
        stats: service.stats(),
        requests: counters.requests(),
        connections: counters.accepted,
        errors: counters.bad_op + counters.malformed_frames,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_accept_error_is_counted_and_backs_the_listener_off() {
        let mut conns = Conns {
            list: Vec::new(),
            max_conns: 4,
            listener_backoff: false,
        };
        let mut counters = Counters::default();
        let mut calls = 0;
        conns.accept_pending(
            || {
                calls += 1;
                // EMFILE: the pending connection stays queued and the
                // listener stays readable.
                Err(io::Error::from_raw_os_error(24))
            },
            &mut counters,
        );
        assert_eq!(calls, 1, "one failure ends the pass: no retry loop");
        assert_eq!(counters.accept_errors, 1);
        assert!(
            conns.listener_backoff,
            "the next wait must skip the listener"
        );
        assert!(conns.list.is_empty());

        // WouldBlock and Interrupted are not errors and do not back off.
        conns.listener_backoff = false;
        let mut script = vec![io::ErrorKind::WouldBlock, io::ErrorKind::Interrupted];
        conns.accept_pending(
            || Err(script.pop().expect("the pass ends at WouldBlock").into()),
            &mut counters,
        );
        assert_eq!(counters.accept_errors, 1);
        assert!(!conns.listener_backoff);
    }

    #[test]
    fn a_never_ending_accept_queue_yields_after_a_bounded_pass() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conns = Conns {
            list: Vec::new(),
            max_conns: 2,
            listener_backoff: false,
        };
        let mut counters = Counters::default();
        let mut calls = 0;
        conns.accept_pending(
            || {
                calls += 1;
                let _peer = TcpStream::connect(addr)?;
                listener.accept().map(|(s, _)| s)
            },
            &mut counters,
        );
        assert_eq!(calls, ACCEPTS_PER_PASS);
        assert_eq!(counters.accepted, 2);
        assert_eq!(counters.rejected_conns, ACCEPTS_PER_PASS as u64 - 2);
    }

    #[test]
    fn the_pacer_has_no_deadline_past_the_horizon() {
        let pacer = Pacer {
            started: Instant::now(),
            pace: 100.0,
            horizon: 10.5,
            seal_every: 1.0,
        };
        assert_eq!(pacer.next_seal(3.0), Some((4.0, Duration::from_millis(40))));
        assert_eq!(
            pacer.next_seal(9.5),
            Some((10.5, Duration::from_millis(105)))
        );
        assert_eq!(pacer.next_seal(9.6), None, "10.6 lies beyond the horizon");
        let stopped = Pacer { pace: 0.0, ..pacer };
        assert_eq!(stopped.next_seal(0.0), None, "pace 0 never gets there");
    }
}
