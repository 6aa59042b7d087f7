//! `poll(2)` — the wait a TCP reactor blocks in (DESIGN.md §13.2), and
//! the only foreign call (and the only `unsafe` block) in the workspace.
//! The standard library can make a socket non-blocking but cannot wait on
//! a *set* of them, and no readiness crate is vendored, so the one libc
//! function that does is declared here directly.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::os::raw::c_uint;

/// Readable (or, for a listener, acceptable).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error, hang-up or invalid descriptor: reported whatever was asked for.
pub(crate) const POLLGONE: i16 = 0x008 | 0x010 | 0x020;

/// One entry of a poll set, laid out as C's `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events`; `None` is a placeholder the kernel
    /// skips (a negative descriptor), keeping set indices stable.
    pub(crate) fn new(fd: Option<RawFd>, events: i16) -> Self {
        PollFd {
            fd: fd.unwrap_or(-1),
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] reported for this entry.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely) and returns how many entries are ready. The
/// timeout is rounded **up** to whole milliseconds, so waiting for a
/// deadline never returns just short of it. A signal counts as a wait
/// that found nothing.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed slice of initialised
    // `#[repr(C)]` entries with `struct pollfd`'s layout, and its true
    // length is passed with it; the kernel reads `fd`/`events` and writes
    // `revents` of exactly those entries and keeps no pointer past the
    // call. Descriptor validity is not a memory-safety requirement (a
    // closed one is reported as POLLNVAL).
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
    if let Ok(ready) = usize::try_from(ready) {
        return Ok(ready);
    }
    let err = io::Error::last_os_error();
    if err.kind() != io::ErrorKind::Interrupted {
        return Err(err);
    }
    for fd in fds {
        fd.revents = 0;
    }
    Ok(0)
}
