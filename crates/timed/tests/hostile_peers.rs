//! Hostile peers and liveness: whatever one connection does, a
//! well-behaved client next to it keeps getting answers, the daemon keeps
//! sealing at cadence, and an idle daemon neither spins nor delays its
//! own shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gcs_algorithms::AlgorithmKind;
use gcs_testkit::Scenario;
use gcs_timed::{
    wire, ServerConfig, ServerHandle, ServerReport, TimeService, TimedClient, TimedParams,
    TimedServer,
};

/// Simulated seconds per wall second; with `seal_every = 1` also the
/// seals per wall second.
const PACE: f64 = 200.0;

fn spawn(config: ServerConfig) -> ServerHandle {
    let horizon = config.horizon;
    TimedServer::spawn("127.0.0.1:0", config, move || {
        let sc = Scenario::ring(6)
            .algorithm(AlgorithmKind::Gradient {
                period: 1.0,
                kappa: 0.5,
            })
            .seed(11)
            .drift_walk(0.01, 5.0, 0.002)
            .uniform_delay(0.2, 0.8)
            .record_events(false)
            .horizon(horizon);
        TimeService::from_scenario(&sc, TimedParams::default())
    })
    .expect("bind loopback")
}

fn serving() -> ServerHandle {
    spawn(ServerConfig {
        pace: PACE,
        horizon: 1e6,
        ..ServerConfig::default()
    })
}

fn raw(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
}

fn request(op: u8, req_id: u64) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_request(op, req_id, &mut frame);
    frame
}

/// Sixty paced reads over at least 60 ms: every one answered within the
/// contract, and the daemon's seal count advancing at its cadence
/// meanwhile (half of it is demanded, so a busy host passes and a
/// stalled loop does not).
fn assert_served_at_cadence(client: &mut TimedClient) {
    let before = client.server_stats().expect("stats").seals;
    let started = Instant::now();
    let mut last_lo = f64::NEG_INFINITY;
    for _ in 0..60 {
        let read = client.read_interval().expect("a well-behaved read");
        assert!(read.lo <= read.hi);
        assert!(read.lo >= last_lo, "interval low regressed");
        last_lo = read.lo;
        std::thread::sleep(Duration::from_millis(1));
    }
    let expected = started.elapsed().as_secs_f64() * PACE;
    let sealed = client.server_stats().expect("stats").seals - before;
    assert!(
        sealed as f64 >= expected / 2.0,
        "{sealed} seals where the cadence gives {expected:.0}"
    );
}

fn clean(report: &ServerReport) {
    assert_eq!(report.stats.containment_violations, 0);
    assert_eq!(report.metrics.counter("server/accept_errors"), 0);
}

#[test]
fn a_slow_loris_holds_a_partial_frame_and_starves_nobody() {
    let handle = serving();
    let mut good = TimedClient::connect(handle.addr()).expect("connect");
    let frame = request(wire::op::PING, 77);
    let mut loris = raw(handle.addr());
    loris.write_all(&frame[..6]).expect("half a frame");

    assert_served_at_cadence(&mut good);

    // The daemon still holds the half frame: the rest completes it.
    loris.write_all(&frame[6..]).expect("the other half");
    let mut response = [0u8; 13];
    loris.read_exact(&mut response).expect("the ping's ack");
    assert_eq!(response[4], wire::op::PING);
    assert_eq!(response[5..13], 77u64.to_le_bytes());

    let report = handle.shutdown();
    clean(&report);
    assert_eq!(report.errors, 0);
}

#[test]
fn an_oversize_length_prefix_closes_only_its_own_connection() {
    let handle = serving();
    let mut good = TimedClient::connect(handle.addr()).expect("connect");
    let mut bad = raw(handle.addr());
    let oversize = u32::try_from(wire::MAX_FRAME + 1).expect("fits");
    bad.write_all(&oversize.to_le_bytes()).expect("write");
    assert_eq!(bad.read(&mut [0u8; 16]).unwrap_or(0), 0, "expected EOF");

    assert_served_at_cadence(&mut good);

    let report = handle.shutdown();
    clean(&report);
    assert_eq!(report.metrics.counter("server/malformed_frames"), 1);
    assert_eq!(report.errors, 1);
}

#[test]
fn a_mid_frame_disconnect_is_closed_and_forgotten() {
    let handle = serving();
    let mut good = TimedClient::connect(handle.addr()).expect("connect");
    for _ in 0..20 {
        let mut peer = raw(handle.addr());
        peer.write_all(&request(wire::op::READ_INTERVAL, 1)[..9])
            .expect("most of a frame");
        drop(peer);
    }

    assert_served_at_cadence(&mut good);

    drop(good);
    let report = handle.shutdown();
    clean(&report);
    assert_eq!(report.errors, 0, "a cut-off frame is not a protocol error");
    assert_eq!(report.connections, 21);
    assert!(
        report.metrics.counter("server/closed") >= 20,
        "every abandoned connection was reaped while the daemon ran"
    );
}

#[test]
fn a_flood_past_max_conns_is_turned_away_at_the_door() {
    let handle = spawn(ServerConfig {
        pace: PACE,
        horizon: 1e6,
        max_conns: 8,
    });
    let mut good = TimedClient::connect(handle.addr()).expect("connect");
    good.ping()
        .expect("the good client holds one of the eight slots");

    // Seven idle squatters take the other slots; forty more are dropped.
    let squatters: Vec<TcpStream> = (0..7).map(|_| raw(handle.addr())).collect();
    good.ping().expect("still served");
    for _ in 0..40 {
        let mut extra = raw(handle.addr());
        assert_eq!(extra.read(&mut [0u8; 16]).unwrap_or(0), 0, "expected EOF");
    }

    assert_served_at_cadence(&mut good);

    // A freed slot is a usable slot.
    drop(squatters);
    let give_up = Instant::now() + Duration::from_secs(5);
    while TimedClient::connect(handle.addr())
        .and_then(|mut c| c.ping())
        .is_err()
    {
        assert!(Instant::now() < give_up, "no slot was ever freed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = handle.shutdown();
    clean(&report);
    assert!(report.metrics.counter("server/rejected_conns") >= 40);
    assert_eq!(report.connections, 9);
}

#[test]
fn a_pipeliner_that_never_reads_hits_the_write_cap_not_the_heap() {
    let handle = serving();
    let mut good = TimedClient::connect(handle.addr()).expect("connect");

    // One write's worth of back-to-back requests, sent again and again
    // without ever reading a response, until the daemon has stopped
    // taking them and every kernel buffer on the way is full: the socket
    // refuses more for 100 ms on end.
    let mut batch = Vec::new();
    for id in 0..4096 {
        wire::encode_request(wire::op::READ_INTERVAL, id, &mut batch);
    }
    let mut pipeliner = raw(handle.addr());
    pipeliner.set_nonblocking(true).expect("nonblocking");
    let mut sent = 0usize;
    let mut refused_since: Option<Instant> = None;
    let give_up = Instant::now() + Duration::from_secs(20);
    loop {
        match pipeliner.write(&batch[sent % batch.len()..]) {
            Ok(n) => {
                sent += n;
                refused_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *refused_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_millis(100) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("the daemon dropped the pipeliner: {e}"),
        }
        assert!(Instant::now() < give_up, "the daemon never pushed back");
    }

    assert_served_at_cadence(&mut good);

    let report = handle.shutdown();
    clean(&report);
    assert_eq!(report.errors, 0);
    assert!(report.metrics.counter("server/backpressured") >= 1);
    let answered = report.metrics.counter("server/requests_read_interval");
    assert!(
        answered < (sent / 13) as u64,
        "all {answered} requests answered: nothing was held back"
    );
    let peak = report
        .metrics
        .gauge("server/wbuf_peak_bytes")
        .expect("gauge");
    assert!(
        peak <= (64 * 1024 + 64) as f64,
        "a write buffer grew to {peak} bytes"
    );
}

#[test]
fn an_idle_daemon_past_its_horizon_sleeps_and_still_stops_at_once() {
    // The horizon falls 1 ms after the start: one seal deadline, then
    // nothing to wait for but descriptors.
    let handle = spawn(ServerConfig {
        pace: 1000.0,
        horizon: 1.0,
        ..ServerConfig::default()
    });
    std::thread::sleep(Duration::from_millis(150));

    let asked = Instant::now();
    let report = handle.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown took {took:?}");

    clean(&report);
    assert_eq!(report.stats.seals, 2, "the probes at 0 and 1");
    assert_eq!(report.metrics.counter("server/wake_waker"), 1);
    let wakeups = report.metrics.counter("server/wakeups");
    assert!(
        wakeups < 10,
        "{wakeups} wake-ups over 150 idle milliseconds: something polls"
    );
    assert_eq!(
        wakeups,
        report.metrics.counter("server/wake_ready")
            + report.metrics.counter("server/wake_deadline")
            + report.metrics.counter("server/wake_waker")
    );
}

#[test]
fn seals_are_taken_close_to_when_they_fall_due() {
    let handle = serving();
    std::thread::sleep(Duration::from_millis(200));
    let report = handle.shutdown();
    clean(&report);
    let late = report
        .metrics
        .histogram("server/seal_late_us")
        .expect("registered");
    assert!(late.count() >= 10, "{} advances in 200 ms", late.count());
    assert_eq!(
        report.metrics.counter("server/wake_deadline"),
        late.count(),
        "an idle daemon wakes once per seal and for nothing else"
    );
    let (mean_us, p99_us) = report.seal_lateness_us().expect("sealed");
    assert!(mean_us >= 0.0 && p99_us >= 10.0, "{mean_us} {p99_us}");
}

#[test]
fn a_dropped_handle_leaves_the_daemon_serving() {
    let handle = serving();
    let addr = handle.addr();
    let mut client = TimedClient::connect(addr).expect("connect");
    // The loop sees its waker's other end close; that is not a stop.
    drop(handle);
    assert_served_at_cadence(&mut client);
    client.shutdown_server().expect("stopped over the wire");
}
