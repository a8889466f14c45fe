//! A tiny blocking client for the daemon's wire protocol.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::service::IntervalRead;
use crate::wire::{self, op, Decoded, RecvBuf, WireStats};

/// One TCP connection speaking the length-prefixed protocol, blocking,
/// one request in flight at a time.
///
/// The request frame and the response bytes live in two buffers the
/// client owns, so a call allocates nothing, and a response that arrives
/// whole (the usual case: at most 61 bytes) costs one `read`.
pub struct TimedClient {
    stream: TcpStream,
    next_req: u64,
    request: Vec<u8>,
    response: RecvBuf,
}

impl TimedClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns any connect/socket-option error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck daemon should fail reads, not hang the client forever.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(TimedClient {
            stream,
            next_req: 1,
            request: Vec::with_capacity(wire::LEN_PREFIX + wire::BODY_HEADER),
            response: RecvBuf::new(),
        })
    }

    /// Sends one request and returns the payload of its response,
    /// borrowed from the response buffer.
    fn call(&mut self, request_op: u8) -> io::Result<&[u8]> {
        let req_id = self.next_req;
        self.next_req += 1;
        self.request.clear();
        wire::encode_request(request_op, req_id, &mut self.request);
        self.stream.write_all(&self.request)?;

        let (response_op, got_id, consumed) = loop {
            match wire::decode_frame(self.response.pending()) {
                Decoded::Frame(f) => break (f.op, f.req_id, f.consumed),
                Decoded::Incomplete => match self.response.fill(&mut self.stream) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                },
                Decoded::Malformed => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "bad response length",
                    ));
                }
            }
        };
        let frame = self.response.consume(consumed);
        if got_id != req_id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {got_id} != request id {req_id}"),
            ));
        }
        if response_op == op::ERROR {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server rejected the request",
            ));
        }
        if response_op != request_op {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response op {response_op} != request op {request_op}"),
            ));
        }
        Ok(&frame[wire::LEN_PREFIX + wire::BODY_HEADER..])
    }

    /// A bounded-uncertainty interval read.
    ///
    /// # Errors
    ///
    /// Returns IO errors and protocol violations as `InvalidData`.
    pub fn read_interval(&mut self) -> io::Result<IntervalRead> {
        let payload = self.call(op::READ_INTERVAL)?;
        wire::decode_interval(payload)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad interval payload"))
    }

    /// A scalar cluster-time read: `(epoch, cluster_time)`.
    ///
    /// # Errors
    ///
    /// Returns IO errors and protocol violations as `InvalidData`.
    pub fn now(&mut self) -> io::Result<(u64, f64)> {
        let payload = self.call(op::NOW)?;
        wire::decode_now(payload)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad now payload"))
    }

    /// The server's counters.
    ///
    /// # Errors
    ///
    /// Returns IO errors and protocol violations as `InvalidData`.
    pub fn server_stats(&mut self) -> io::Result<WireStats> {
        let payload = self.call(op::STATS)?;
        wire::decode_stats(payload)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stats payload"))
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Returns IO errors and protocol violations as `InvalidData`.
    pub fn ping(&mut self) -> io::Result<()> {
        self.call(op::PING).map(|_| ())
    }

    /// Asks the daemon to stop serving (acked before it exits).
    ///
    /// # Errors
    ///
    /// Returns IO errors and protocol violations as `InvalidData`.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.call(op::SHUTDOWN).map(|_| ())
    }
}
