//! The compact length-prefixed wire format the daemon speaks.
//!
//! Everything is little-endian. A frame (both directions) is:
//!
//! ```text
//! u32 len        body length (op + req_id + payload = 9 + payload)
//! u8  op         operation code (see [`op`])
//! u64 req_id     client-chosen, echoed verbatim in the response
//! ..  payload    op-specific (empty for requests)
//! ```
//!
//! Response payloads:
//!
//! - `READ_INTERVAL`: `u64 epoch`, then `f64` bits for `lo`, `hi`,
//!   `cluster_time`, `sealed_at` (40 bytes).
//! - `NOW`: `u64 epoch`, `f64` bits `cluster_time` (16 bytes).
//! - `STATS`: `u64` each of `seals`, `clamps`, `no_quorum`,
//!   `containment_violations`, `epoch`, then `f64` bits `last_width`
//!   (48 bytes).
//! - `PING`, `SHUTDOWN`: empty (pure acks).
//! - `ERROR`: empty; sent with the offending request's id when the op
//!   was unknown.
//!
//! The format is fixed-size per op and carries no strings, so the server
//! can pre-encode its `READ_INTERVAL`/`NOW` frames once per sealed epoch
//! and answer each request by copying the template and patching 8 bytes
//! of `req_id`.

use std::io::{self, Read};

use crate::service::{IntervalRead, ServiceStats};
use crate::snapshot::Snapshot;

/// Operation codes.
pub mod op {
    /// Scalar cluster-time read.
    pub const NOW: u8 = 1;
    /// Bounded-uncertainty interval read.
    pub const READ_INTERVAL: u8 = 2;
    /// Server counters.
    pub const STATS: u8 = 3;
    /// Liveness check.
    pub const PING: u8 = 4;
    /// Ask the daemon to stop serving and exit its loop.
    pub const SHUTDOWN: u8 = 5;
    /// Response to an unknown request op.
    pub const ERROR: u8 = 0xFF;
}

/// Frame header size on the wire: the `u32` length prefix.
pub const LEN_PREFIX: usize = 4;
/// Fixed body prefix: op byte plus request id.
pub const BODY_HEADER: usize = 9;
/// Upper bound on accepted frame bodies; anything larger is a protocol
/// error and the connection is dropped.
pub const MAX_FRAME: usize = 64 * 1024;

/// Offset of the `req_id` field within an encoded frame, for template
/// patching.
pub const REQ_ID_OFFSET: usize = LEN_PREFIX + 1;

/// Appends a frame with the given op, request id, and payload.
pub fn encode_frame(op: u8, req_id: u64, payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(BODY_HEADER + payload.len()).expect("frame fits u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.push(op);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends a request frame (empty payload).
pub fn encode_request(op: u8, req_id: u64, out: &mut Vec<u8>) {
    encode_frame(op, req_id, &[], out);
}

/// A decoded frame borrowed from a receive buffer.
#[derive(Debug, PartialEq)]
pub struct Frame<'a> {
    /// Operation code.
    pub op: u8,
    /// Request id (echoed on responses).
    pub req_id: u64,
    /// Op-specific payload.
    pub payload: &'a [u8],
    /// Total encoded size, for advancing the buffer.
    pub consumed: usize,
}

/// Decoding outcome: a frame, not-enough-bytes-yet, or a protocol error.
#[derive(Debug, PartialEq)]
pub enum Decoded<'a> {
    /// A complete frame.
    Frame(Frame<'a>),
    /// The buffer holds only a prefix; read more bytes.
    Incomplete,
    /// The frame is malformed (oversized or truncated header); drop the
    /// connection.
    Malformed,
}

/// Tries to decode one frame from the front of `buf`.
#[must_use]
pub fn decode_frame(buf: &[u8]) -> Decoded<'_> {
    if buf.len() < LEN_PREFIX {
        return Decoded::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if !(BODY_HEADER..=MAX_FRAME).contains(&len) {
        return Decoded::Malformed;
    }
    if buf.len() < LEN_PREFIX + len {
        return Decoded::Incomplete;
    }
    let body = &buf[LEN_PREFIX..LEN_PREFIX + len];
    let op = body[0];
    let req_id = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
    Decoded::Frame(Frame {
        op,
        req_id,
        payload: &body[BODY_HEADER..],
        consumed: LEN_PREFIX + len,
    })
}

/// Initial size of a [`RecvBuf`]: hundreds of request frames, one page.
const RECV_CHUNK: usize = 4096;

/// A reassembly buffer between a socket and [`decode_frame`]: bytes are
/// read straight into its free tail and consumed from its front by
/// moving a cursor, so a frame is never copied between buffers and the
/// unread bytes move only when the tail is used up.
///
/// It holds one page and doubles, up to the largest legal frame, only
/// while a single frame does not fit.
pub(crate) struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    pub(crate) fn new() -> Self {
        RecvBuf {
            buf: vec![0; RECV_CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// The bytes read and not yet consumed.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Consumes the first `n` pending bytes and returns them; they stay
    /// in place until the next [`RecvBuf::fill`].
    pub(crate) fn consume(&mut self, n: usize) -> &[u8] {
        let at = self.start;
        self.start += n;
        assert!(self.start <= self.end, "consumed more than was pending");
        &self.buf[at..self.start]
    }

    /// One `read` from `src` into the free tail; returns its count (0 is
    /// end of stream).
    ///
    /// # Errors
    ///
    /// Returns `src`'s error, or `OutOfMemory` when the pending bytes
    /// already fill the largest buffer a legal frame needs, which means
    /// the caller did not consume a complete frame.
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let largest = LEN_PREFIX + MAX_FRAME;
            if self.buf.len() >= largest {
                return Err(io::Error::new(
                    io::ErrorKind::OutOfMemory,
                    "receive buffer full",
                ));
            }
            self.buf.resize((self.buf.len() * 2).min(largest), 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// Overwrites the `req_id` of an already-encoded frame starting at
/// `at` in `buf` (template patching on the serving hot path).
pub fn patch_req_id(buf: &mut [u8], at: usize, req_id: u64) {
    buf[at + REQ_ID_OFFSET..at + REQ_ID_OFFSET + 8].copy_from_slice(&req_id.to_le_bytes());
}

/// Encodes the `READ_INTERVAL` response payload from a sealed snapshot.
#[must_use]
pub fn interval_payload(snap: &Snapshot) -> Vec<u8> {
    let mut p = Vec::with_capacity(40);
    p.extend_from_slice(&snap.epoch.to_le_bytes());
    for v in [
        snap.interval.lo,
        snap.interval.hi,
        snap.cluster_time,
        snap.sealed_at,
    ] {
        p.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    p
}

/// Decodes a `READ_INTERVAL` response payload.
#[must_use]
pub fn decode_interval(payload: &[u8]) -> Option<IntervalRead> {
    if payload.len() != 40 {
        return None;
    }
    let u = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().expect("8 bytes"));
    Some(IntervalRead {
        epoch: u(0),
        lo: f64::from_bits(u(8)),
        hi: f64::from_bits(u(16)),
        cluster_time: f64::from_bits(u(24)),
        sealed_at: f64::from_bits(u(32)),
    })
}

/// Encodes the `NOW` response payload.
#[must_use]
pub fn now_payload(snap: &Snapshot) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&snap.epoch.to_le_bytes());
    p.extend_from_slice(&snap.cluster_time.to_bits().to_le_bytes());
    p
}

/// Decodes a `NOW` response payload into `(epoch, cluster_time)`.
#[must_use]
pub fn decode_now(payload: &[u8]) -> Option<(u64, f64)> {
    if payload.len() != 16 {
        return None;
    }
    let epoch = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let t = f64::from_bits(u64::from_le_bytes(
        payload[8..16].try_into().expect("8 bytes"),
    ));
    Some((epoch, t))
}

/// Encodes the `STATS` response payload.
#[must_use]
pub fn stats_payload(stats: &ServiceStats, epoch: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(48);
    for v in [
        stats.seals,
        stats.clamps,
        stats.no_quorum,
        stats.containment_violations,
        epoch,
    ] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    p.extend_from_slice(&stats.last_width.to_bits().to_le_bytes());
    p
}

/// Server counters as decoded by the client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireStats {
    /// Epochs sealed.
    pub seals: u64,
    /// Watermark clamps.
    pub clamps: u64,
    /// Probe ticks with no quorum region.
    pub no_quorum: u64,
    /// Seals whose interval missed true simulation time.
    pub containment_violations: u64,
    /// Currently served epoch.
    pub epoch: u64,
    /// Width of the currently served interval.
    pub last_width: f64,
}

/// Decodes a `STATS` response payload.
#[must_use]
pub fn decode_stats(payload: &[u8]) -> Option<WireStats> {
    if payload.len() != 48 {
        return None;
    }
    let u = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().expect("8 bytes"));
    Some(WireStats {
        seals: u(0),
        clamps: u(8),
        no_quorum: u(16),
        containment_violations: u(24),
        epoch: u(32),
        last_width: f64::from_bits(u(40)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        encode_frame(op::READ_INTERVAL, 42, &[7, 8, 9], &mut buf);
        let Decoded::Frame(f) = decode_frame(&buf) else {
            panic!("expected frame")
        };
        assert_eq!(f.op, op::READ_INTERVAL);
        assert_eq!(f.req_id, 42);
        assert_eq!(f.payload, &[7, 8, 9]);
        assert_eq!(f.consumed, buf.len());
    }

    #[test]
    fn partial_frames_are_incomplete() {
        let mut buf = Vec::new();
        encode_request(op::PING, 1, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_frame(&buf[..cut]), Decoded::Incomplete);
        }
    }

    #[test]
    fn oversized_and_undersized_frames_are_malformed() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes());
        assert_eq!(decode_frame(&huge), Decoded::Malformed);
        let mut tiny = Vec::new();
        tiny.extend_from_slice(&3u32.to_le_bytes());
        tiny.extend_from_slice(&[0, 0, 0]);
        assert_eq!(decode_frame(&tiny), Decoded::Malformed);
    }

    /// A reader that hands out its bytes at most `step` per call.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(self.1).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn recv_buf_reassembles_frames_across_reads_and_compactions() {
        // 1000 frames through a one-page buffer in 7-byte reads: the
        // tail is used up and compacted many times over.
        let mut stream = Vec::new();
        for id in 0..1000 {
            encode_frame(op::PING, id, &[id as u8; 3], &mut stream);
        }
        let mut src = Trickle(&stream, 7);
        let mut buf = RecvBuf::new();
        let mut next = 0;
        while buf.fill(&mut src).unwrap() > 0 {
            while let Decoded::Frame(f) = decode_frame(buf.pending()) {
                assert_eq!((f.req_id, f.payload), (next, &[next as u8; 3][..]));
                let n = f.consumed;
                assert_eq!(buf.consume(n).len(), n);
                next += 1;
            }
        }
        assert_eq!(next, 1000);
        assert_eq!(buf.buf.len(), RECV_CHUNK, "small frames never grow it");
    }

    #[test]
    fn recv_buf_grows_for_one_large_frame_and_no_further() {
        let mut stream = Vec::new();
        encode_frame(op::PING, 5, &vec![9; MAX_FRAME - BODY_HEADER], &mut stream);
        stream.extend_from_slice(&[0; 64]);
        let mut src = Trickle(&stream, usize::MAX);
        let mut buf = RecvBuf::new();
        while decode_frame(buf.pending()) == Decoded::Incomplete {
            assert!(buf.fill(&mut src).unwrap() > 0);
        }
        assert_eq!(buf.buf.len(), LEN_PREFIX + MAX_FRAME);
        // Pending bytes nobody consumes: a refusal, not unbounded growth
        // and not a 0 that would read as end of stream.
        let err = buf.fill(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
    }

    #[test]
    fn req_id_patching_matches_fresh_encoding() {
        let snap = Snapshot::genesis(3);
        let payload = interval_payload(&snap);
        let mut template = Vec::new();
        encode_frame(op::READ_INTERVAL, 0, &payload, &mut template);
        let mut patched = template.clone();
        patch_req_id(&mut patched, 0, 0xDEAD_BEEF);
        let mut fresh = Vec::new();
        encode_frame(op::READ_INTERVAL, 0xDEAD_BEEF, &payload, &mut fresh);
        assert_eq!(patched, fresh);
    }

    #[test]
    fn interval_payload_roundtrip() {
        let snap = Snapshot::genesis(4);
        let read = decode_interval(&interval_payload(&snap)).unwrap();
        assert_eq!(read.epoch, 0);
        assert_eq!(read.lo, 0.0);
        assert_eq!(read.hi, 0.0);
        let (epoch, t) = decode_now(&now_payload(&snap)).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn stats_payload_roundtrip() {
        let stats = ServiceStats {
            seals: 10,
            clamps: 1,
            no_quorum: 2,
            containment_violations: 0,
            last_width: 0.5,
            max_width: 0.7,
        };
        let got = decode_stats(&stats_payload(&stats, 10)).unwrap();
        assert_eq!(got.seals, 10);
        assert_eq!(got.clamps, 1);
        assert_eq!(got.no_quorum, 2);
        assert_eq!(got.epoch, 10);
        assert_eq!(got.last_width, 0.5);
    }
}
