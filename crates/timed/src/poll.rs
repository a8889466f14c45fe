//! The daemon's one blocking call: `poll(2)` over a set of descriptors
//! with a timeout, declared here and nowhere else.
//!
//! This is the only module in the crate (and the workspace) that
//! contains `unsafe`: one foreign call behind the safe [`wait`]. The
//! standard library has no readiness wait and the build takes no new
//! dependency, so the C function is declared privately. On 64-bit Linux
//! it is `ppoll`, whose `timespec` timeout has nanosecond resolution, so
//! a seal deadline is met to within the kernel's timer slack; elsewhere
//! on unix it is `poll`, whose timeout is whole milliseconds, rounded up
//! so the loop never spins ahead of a deadline.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Data other than high-priority data can be read without blocking.
pub const POLLIN: c_short = 0x001;
/// Data can be written without blocking.
pub const POLLOUT: c_short = 0x004;

/// One entry of the poll set, laid out as C's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// An entry asking for `events` on `fd`. `POLLERR`, `POLLHUP` and
    /// `POLLNVAL` are always reported.
    #[must_use]
    pub fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// An entry the kernel skips (a negative descriptor), keeping the
    /// positions of the entries after it.
    #[must_use]
    pub fn skipped() -> Self {
        PollFd::new(-1, 0)
    }

    /// Whether the last [`wait`] reported anything for this entry: a
    /// requested event, an error, a hang-up or an invalid descriptor.
    /// The caller finds out which by doing the I/O.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    /// Whether it reported anything besides `POLLOUT`: input, or a
    /// condition a read will return.
    #[must_use]
    pub fn readable(&self) -> bool {
        self.revents & !POLLOUT != 0
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use super::{c_int, PollFd};
    use std::ffi::{c_long, c_ulong, c_void};
    use std::time::Duration;

    /// C's `struct timespec` where `time_t` is `long` (every 64-bit
    /// Linux libc).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    pub fn poll_once(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
        let ts = timeout.map(|t| Timespec {
            tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(t.subsec_nanos()),
        });
        let ts_ptr = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
        // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
        // `PollFd`s, which are `repr(C)` with `struct pollfd`'s three
        // fields, and the kernel writes only their `revents`. `ts_ptr`
        // is null (wait without limit) or points at `ts`, which outlives
        // the call and holds `tv_nsec < 1e9`. A null `sigmask` makes
        // `ppoll` leave the signal mask alone. Descriptors in the set
        // need not be open: the kernel answers `POLLNVAL` for those.
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                ts_ptr,
                std::ptr::null(),
            )
        }
    }
}

#[cfg(all(unix, not(all(target_os = "linux", target_pointer_width = "64"))))]
mod sys {
    use super::{c_int, PollFd};
    use std::time::Duration;

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    pub fn poll_once(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
        // Whole milliseconds, rounded up; negative waits without limit.
        let ms = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        });
        // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
        // `PollFd`s, which are `repr(C)` with `struct pollfd`'s three
        // fields, and the kernel writes only their `revents`. Descriptors
        // in the set need not be open: the kernel answers `POLLNVAL`.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) }
    }
}

/// Blocks until an entry of `fds` is ready or `timeout` has passed
/// (`None`: no limit), and returns how many entries are ready; 0 means
/// the timeout passed or a signal interrupted the wait.
///
/// # Errors
///
/// Returns the OS error for anything but an interrupted wait (`EINVAL`
/// when the set exceeds `RLIMIT_NOFILE`, `ENOMEM`).
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let n = sys::poll_once(fds, timeout);
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        for fd in fds {
            fd.revents = 0;
        }
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn times_out_with_sub_millisecond_resolution() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        // Best of several, so a busy host does not fail the test.
        let best = (0..20)
            .map(|_| {
                let t = Instant::now();
                assert_eq!(wait(&mut fds, Some(Duration::from_micros(200))).unwrap(), 0);
                t.elapsed()
            })
            .min()
            .unwrap();
        assert!(best >= Duration::from_micros(200), "woke early: {best:?}");
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(best < Duration::from_micros(900), "ms-rounded: {best:?}");
        }
        assert!(!fds[0].ready());
    }

    #[test]
    fn reports_readable_writable_and_skipped_entries() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut fds = [
            PollFd::new(a.as_raw_fd(), POLLIN),
            PollFd::skipped(),
            PollFd::new(b.as_raw_fd(), POLLOUT),
        ];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(!fds[0].ready() && !fds[1].ready());
        assert!(fds[2].ready() && !fds[2].readable());
        b.write_all(&[1]).unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 2);
        assert!(fds[0].readable() && !fds[1].ready());
    }

    #[test]
    fn a_closed_peer_wakes_an_entry_that_asked_for_nothing() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), 0)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
    }
}
