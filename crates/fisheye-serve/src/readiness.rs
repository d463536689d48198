//! Socket readiness waits for the shard and acceptor threads.
//!
//! A [`Poller`] blocks its thread in POSIX `poll(2)` until a socket it
//! watches is ready or its [`Waker`] is written, so an idle thread
//! burns no CPU and a frame is read the moment it arrives. The watch
//! set is rebuilt before every wait in one reused buffer, so an idle
//! wait allocates nothing.
//!
//! The wake channel is a nonblocking `UnixStream` pair, always entry 0
//! of the set. Whoever hands the thread a command sends it first and
//! wakes second; the thread drains the wake bytes before it reads its
//! commands. A command therefore either is seen by that read or leaves
//! a byte that ends the next wait.
//!
//! Off unix there is no `poll` and no wake socket: a wait is a
//! bounded 500 µs sleep, and the caller's next pass sees whatever
//! arrived meanwhile.

// Same bar as the shard loop that calls it, plus: the one `unsafe`
// block below keeps its `// SAFETY:` comment.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(unix)]
pub(crate) use self::unix::{Poller, Waker};

#[cfg(not(unix))]
pub(crate) use self::fallback::{Poller, Waker};

#[cfg(unix)]
mod unix {
    use std::ffi::{c_int, c_short};
    use std::io::{self, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    /// `nfds_t`: `unsigned long` on Linux and Solarish, `unsigned int`
    /// on Apple and the BSDs.
    #[cfg(any(
        target_os = "linux",
        target_os = "android",
        target_os = "solaris",
        target_os = "illumos"
    ))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(
        target_os = "linux",
        target_os = "android",
        target_os = "solaris",
        target_os = "illumos"
    )))]
    type Nfds = std::ffi::c_uint;

    /// C's `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// How long a thread backs off after `poll` itself fails with
    /// something other than `EINTR`, so a persistent failure cannot
    /// spin a core.
    const ERROR_BACKOFF: Duration = Duration::from_millis(1);

    /// The waiting half: a reusable `poll` set whose entry 0 is the
    /// wake socket.
    pub(crate) struct Poller {
        wake: UnixStream,
        fds: Vec<PollFd>,
    }

    /// The waking half, shared by every thread that hands the poller's
    /// thread work.
    #[derive(Clone)]
    pub(crate) struct Waker(Arc<UnixStream>);

    impl Poller {
        /// A poller and the waker that ends its waits.
        pub(crate) fn new() -> io::Result<(Poller, Waker)> {
            let (wake, tx) = UnixStream::pair()?;
            wake.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            let poller = Poller {
                fds: vec![PollFd {
                    fd: wake.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                }],
                wake,
            };
            Ok((poller, Waker(Arc::new(tx))))
        }

        /// Consume every pending wake. Call before reading commands.
        pub(crate) fn drain_wakes(&mut self) {
            let mut sink = [0u8; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        }

        /// Start a new watch set holding only the wake socket.
        pub(crate) fn clear(&mut self) {
            self.fds.truncate(1);
        }

        /// Add `sock` to the watch set; a no-op without interest.
        pub(crate) fn watch(&mut self, sock: &impl AsRawFd, readable: bool, writable: bool) {
            let events = if readable { POLLIN } else { 0 } | if writable { POLLOUT } else { 0 };
            if events != 0 {
                self.fds.push(PollFd {
                    fd: sock.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
        }

        /// Block until a watched socket or the wake socket is ready,
        /// or `timeout` (`None`: no limit) passes. The caller re-runs
        /// its pass afterwards whatever happened, so an `EINTR` simply
        /// returns and any other failure returns after a short backoff.
        pub(crate) fn wait(&mut self, timeout: Option<Duration>) {
            let ms = timeout.map_or(-1, |t| {
                let ms = t.as_nanos().div_ceil(1_000_000);
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            });
            let Ok(nfds) = Nfds::try_from(self.fds.len()) else {
                std::thread::sleep(ERROR_BACKOFF);
                return;
            };
            // SAFETY: the pointer and `nfds` describe exactly the
            // initialised `PollFd`s of `self.fds`, which `&mut self`
            // keeps alive and unresized for the whole call; `PollFd`
            // is `#[repr(C)]` with `struct pollfd`'s fields, and
            // `poll` writes only their `revents`.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), nfds, ms) };
            if rc < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                std::thread::sleep(ERROR_BACKOFF);
            }
        }
    }

    impl Waker {
        /// End the poller's current or next wait. A full wake socket
        /// (`WouldBlock`) already guarantees that, so the write's
        /// result is ignored.
        pub(crate) fn wake(&self) {
            let _ = (&*self.0).write(&[1]);
        }
    }
}

#[cfg(not(unix))]
mod fallback {
    use std::io;
    use std::time::Duration;

    /// The bounded sleep a wait becomes.
    const FALLBACK_WAIT: Duration = Duration::from_micros(500);

    /// A wait without readiness: a bounded sleep.
    pub(crate) struct Poller;

    /// Nothing to wake: a sleeping poller returns on its own.
    #[derive(Clone)]
    pub(crate) struct Waker;

    impl Poller {
        pub(crate) fn new() -> io::Result<(Poller, Waker)> {
            Ok((Poller, Waker))
        }

        pub(crate) fn drain_wakes(&mut self) {}

        pub(crate) fn clear(&mut self) {}

        pub(crate) fn watch<S>(&mut self, _sock: &S, _readable: bool, _writable: bool) {}

        pub(crate) fn wait(&mut self, timeout: Option<Duration>) {
            std::thread::sleep(timeout.map_or(FALLBACK_WAIT, |t| t.min(FALLBACK_WAIT)));
        }
    }

    impl Waker {
        pub(crate) fn wake(&self) {}
    }
}

#[cfg(all(test, unix))]
#[allow(clippy::expect_used)]
mod tests {
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    use super::Poller;

    #[test]
    fn a_wake_ends_a_wait_and_drains() {
        let (mut poller, waker) = Poller::new().expect("poller");
        // before or during the wait, the wake must end it
        let t = std::thread::spawn(move || {
            waker.wake();
            waker
        });
        let started = Instant::now();
        poller.wait(Some(Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the wake was lost"
        );
        let _waker = t.join().expect("waker thread");
        poller.drain_wakes();
        let started = Instant::now();
        poller.wait(Some(Duration::from_millis(30)));
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "a drained wake socket must not end the next wait"
        );
    }

    #[test]
    fn waits_on_readable_and_writable_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (mut poller, _waker) = Poller::new().expect("poller");
        let dial = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        poller.watch(&listener, true, false);
        let started = Instant::now();
        poller.wait(Some(Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "pending accept is readable"
        );

        let (served, _) = listener.accept().expect("accept");
        poller.clear();
        poller.watch(&served, true, false);
        let started = Instant::now();
        poller.wait(Some(Duration::from_millis(30)));
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "nothing sent yet"
        );

        poller.clear();
        poller.watch(&dial, false, true);
        let started = Instant::now();
        poller.wait(Some(Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "an empty send buffer is writable"
        );
    }
}
