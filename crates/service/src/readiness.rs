//! Readiness: block until a socket can move a byte or somebody asks for
//! attention — never tick.
//!
//! `std` has no way to sleep on several sockets at once and the offline
//! build has no `libc`/`mio`, so `poll(2)` is declared by hand, the way
//! [`crate::signals`] declares `signal(2)`: one `#[repr(C)]` struct
//! ([`PollFd`]), one `extern "C" fn`, one `unsafe` call inside the safe
//! [`wait`], registered as the second entry of lint R2's registry.
//! Everything else is `std`: a [`Waker`] is a non-blocking
//! [`std::os::unix::net::UnixStream::pair`] whose read end sits in the
//! wait set like any other socket.
//!
//! `poll` is level-triggered: an entry comes back ready for as long as its
//! condition holds, so a caller must ask only for what it will act on
//! (`server.rs` asks for readability only while its session takes bytes
//! and for writability only while reply bytes are queued) — interest in
//! something the caller will not consume turns the wait into a spin.
//!
//! The protocol with a [`Waker`]: *publish, then wake* on the signalling
//! side (store the flag / send on the channel, then [`Waker::wake`]);
//! *drain, then look* on the waiting side ([`Waker::drain`], then re-read
//! the flag / channel). A state change published after the look wakes the
//! next [`wait`], so none is lost and no wait needs a timeout.

#[cfg_attr(not(unix), allow(unused_imports))]
use std::io::{self, Read, Write};
use std::time::Instant;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// One entry of a wait set: a descriptor, what the caller wants to hear
/// about it, and what [`wait`] found. Layout is `struct pollfd`'s.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry for `source` with no interest yet (it still reports
    /// errors and hang-ups, which `poll` never lets a caller mask).
    pub(crate) fn new<S: imp::Source>(source: &S) -> PollFd {
        PollFd {
            fd: imp::fd_of(source),
            events: 0,
            revents: 0,
        }
    }

    /// Replaces the interest set and forgets the last result.
    pub(crate) fn set_interest(&mut self, readable: bool, writable: bool) {
        self.events = if readable { POLLIN } else { 0 } | if writable { POLLOUT } else { 0 };
        self.revents = 0;
    }

    /// Whether the last [`wait`] reported anything at all — including an
    /// error or hang-up, which the next read or write will surface.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }

    /// Whether a read is worth trying: bytes, EOF, or an error to collect.
    pub(crate) fn readable(&self) -> bool {
        self.revents & !POLLOUT != 0
    }

    /// Whether a write is worth trying: room, or an error to collect.
    pub(crate) fn writable(&self) -> bool {
        self.revents & !POLLIN != 0
    }
}

/// Blocks until at least one entry of `set` is ready or `deadline` passes
/// (`None`: no deadline), fills every entry's result and returns how many
/// are ready (0 = the deadline passed). Interrupted waits are retried.
///
/// Where there is no `poll` (a non-Unix target), or the kernel refuses one
/// (`ENOMEM`), this is the tick it replaced: sleep 500 µs and call every
/// entry ready for what it asked, so the callers' one loop degrades to
/// non-blocking polling instead of growing a second loop.
pub(crate) fn wait(set: &mut [PollFd], deadline: Option<Instant>) -> usize {
    imp::poll_set(set, deadline).unwrap_or_else(|_| {
        std::thread::sleep(std::time::Duration::from_micros(500));
        set.iter_mut().for_each(|e| e.revents = e.events);
        set.len()
    })
}

/// Wakes a thread blocked in [`wait`] from any other thread. Shared by
/// reference (`&UnixStream` reads and writes), so one lives in an `Arc`
/// next to the state it announces.
pub(crate) struct Waker {
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        imp::new_waker()
    }

    /// The wait-set entry that becomes ready on [`Waker::wake`].
    pub(crate) fn entry(&self) -> PollFd {
        #[cfg(unix)]
        let mut entry = PollFd::new(&self.rx);
        #[cfg(not(unix))]
        let mut entry = PollFd::new(self);
        entry.set_interest(true, false);
        entry
    }

    /// Makes the entry ready. Call it *after* publishing what it
    /// announces. A full pipe means a wake-up is already pending.
    pub(crate) fn wake(&self) {
        #[cfg(unix)]
        let _ = (&self.tx).write(&[1]);
    }

    /// Takes every pending wake-up. Call it *before* re-reading the
    /// announced state: whatever is published later wakes the next wait.
    pub(crate) fn drain(&self) {
        #[cfg(unix)]
        {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
    }
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::{io, Instant, PollFd, Waker};
    use std::ffi::c_int;
    use std::os::unix::net::UnixStream;

    pub(crate) use std::os::unix::io::AsRawFd as Source;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    pub(crate) fn fd_of(source: &impl Source) -> i32 {
        source.as_raw_fd()
    }

    pub(crate) fn new_waker() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    pub(crate) fn poll_set(set: &mut [PollFd], deadline: Option<Instant>) -> io::Result<usize> {
        let nfds = NfdsT::try_from(set.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "wait set too large"))?;
        loop {
            // Milliseconds left, rounded up so a wait never returns early
            // with nothing ready; -1 is poll's "no timeout".
            let timeout = deadline.map_or(-1, |d| {
                let left = d.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            });
            // SAFETY: `poll` is the POSIX entry point; `PollFd` is
            // `#[repr(C)]` with `struct pollfd`'s three fields; the pointer
            // and `nfds` describe exactly the exclusively borrowed slice,
            // which outlives the call; the kernel writes only `revents`
            // and keeps no reference. A descriptor that was closed
            // meanwhile is reported (`POLLNVAL`), not dereferenced.
            let ready = unsafe { poll(set.as_mut_ptr(), nfds, timeout) };
            if let Ok(ready) = usize::try_from(ready) {
                return Ok(ready);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

/// No `poll` to declare and nothing to wake: [`wait`] falls back to its tick.
#[cfg(not(unix))]
mod imp {
    use super::{io, Instant, PollFd, Waker};
    pub(crate) trait Source {}
    impl<T> Source for T {}
    pub(crate) fn fd_of<S>(_: &S) -> i32 {
        0
    }
    pub(crate) fn new_waker() -> io::Result<Waker> {
        Ok(Waker {})
    }
    pub(crate) fn poll_set(_: &mut [PollFd], _: Option<Instant>) -> io::Result<usize> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_wake_makes_the_entry_ready_until_it_is_drained() {
        let waker = Waker::new().expect("socket pair");
        let mut set = [waker.entry()];
        let soon = || Some(Instant::now() + Duration::from_millis(20));
        assert_eq!(wait(&mut set, soon()), 0);
        assert!(!set[0].ready());
        waker.wake();
        waker.wake();
        // Level-triggered: ready for as long as a byte is unread.
        for _ in 0..2 {
            assert_eq!(wait(&mut set, None), 1);
            assert!(set[0].readable() && !set[0].writable());
        }
        waker.drain();
        assert_eq!(wait(&mut set, soon()), 0);
    }

    #[test]
    fn a_deadline_is_never_returned_from_early() {
        let waker = Waker::new().expect("socket pair");
        let mut set = [waker.entry()];
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_micros(2_500);
        assert_eq!(wait(&mut set, Some(deadline)), 0);
        assert!(Instant::now() >= deadline);
        // One that already passed does not block at all.
        assert_eq!(wait(&mut set, Some(t0)), 0);
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_wait_with_no_deadline() {
        let waker = std::sync::Arc::new(Waker::new().expect("socket pair"));
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            remote.wake();
        });
        let mut set = [waker.entry()];
        assert_eq!(wait(&mut set, None), 1);
        t.join().expect("waker thread");
    }

    #[test]
    fn interest_is_only_what_was_asked_for() {
        use std::os::unix::net::UnixStream;
        let (a, b) = UnixStream::pair().expect("socket pair");
        let mut set = [PollFd::new(&a)];
        // An empty socket with room to write: writable, not readable.
        set[0].set_interest(true, true);
        assert_eq!(wait(&mut set, None), 1);
        assert!(set[0].writable() && !set[0].readable());
        // Not asking for writability: nothing to report.
        set[0].set_interest(true, false);
        let soon = Some(Instant::now() + Duration::from_millis(5));
        assert_eq!(wait(&mut set, soon), 0);
        // A hang-up is reported whatever was asked for.
        drop(b);
        set[0].set_interest(false, false);
        assert_eq!(wait(&mut set, None), 1);
        assert!(set[0].readable());
    }
}
