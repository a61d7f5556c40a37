//! A minimal, dependency-free SIGINT/SIGTERM latch.
//!
//! Long-lived `sraps` processes (an interrupted `sraps sweep`, the
//! resident `sraps serve` daemon) need to observe termination requests
//! so they can release claim leases and drain gracefully instead of
//! vanishing mid-protocol. The standard library exposes no signal API
//! and the build environment has no registry access for a `signal-hook`
//! style crate, so this module declares the libc entry points it needs
//! (`signal`, `write`, `poll`, `_exit`) directly — libc is already
//! linked into every binary on the supported platforms.
//!
//! Semantics:
//!
//! * [`arm`] installs one handler for SIGINT and SIGTERM (idempotent).
//! * The **first** signal sets a process-global latch ([`requested`]
//!   flips to `true`), wakes every thread blocked in [`wait`] or
//!   [`wait_readable`], and returns — the application performs its own
//!   orderly shutdown.
//! * A **second** signal bypasses the latch and `_exit(130)`s
//!   immediately, so a wedged drain can always be cut short from the
//!   keyboard.
//!
//! The wake-up is a self-pipe (a close-on-exec socket pair made by
//! [`arm`]): the first request writes one byte that is never read, so
//! its read end stays readable for every waiter, now and later, and a
//! waiting thread sleeps in `poll` without a timeout instead of polling
//! the latch. The handler body is async-signal-safe: one atomic swap,
//! then one `write` or, on the escalation path, one `_exit`. On non-unix
//! targets [`arm`] is a no-op, [`requested`] stays `false`, and the
//! waits fall back to sleeping between checks of the latch.

use std::sync::atomic::{AtomicBool, Ordering};

/// Latched by the first SIGINT/SIGTERM after [`arm`].
static REQUESTED: AtomicBool = AtomicBool::new(false);
static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been received since [`arm`].
#[inline]
pub fn requested() -> bool {
    REQUESTED.load(Ordering::Relaxed)
}

/// Install the latching handler for SIGINT and SIGTERM, and the wake-up
/// pipe. Idempotent; a no-op on platforms without unix signals.
pub fn arm() {
    if ARMED.swap(true, Ordering::SeqCst) {
        return;
    }
    imp::install();
}

/// Test/drain helper: mark a shutdown as requested without a signal
/// (lets in-process tests drive the same code path a SIGTERM would).
/// Wakes every waiter, like the first signal.
pub fn request() {
    if !REQUESTED.swap(true, Ordering::SeqCst) {
        imp::wake();
    }
}

/// Block until a shutdown is requested.
pub fn wait() {
    while !requested() {
        imp::block(None);
    }
}

/// Block until `fd` is readable (`true`) or a shutdown is requested
/// (`false`). A `true` may be spurious — an accept can still find
/// nothing to take — so callers keep `fd` non-blocking.
#[cfg(unix)]
pub fn wait_readable(fd: &impl std::os::fd::AsRawFd) -> bool {
    let fd = fd.as_raw_fd();
    loop {
        if requested() {
            return false;
        }
        if imp::block(Some(fd)) {
            return !requested();
        }
    }
}

#[cfg(not(unix))]
pub fn wait_readable<T>(_fd: &T) -> bool {
    !requested() && imp::block(None) && !requested()
}

#[cfg(unix)]
mod imp {
    use super::REQUESTED;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const POLLIN: i16 = 1;
    const EINTR: i32 = 4;

    type Handler = extern "C" fn(i32);

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::ffi::c_uint;

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
        fn _exit(status: i32) -> !;
    }

    /// The wake-up pipe: `.0` is read (polled), `.1` written.
    static PIPE: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();
    /// `PIPE`'s write end for the signal handler, which must not touch
    /// the `OnceLock`; -1 until [`install`].
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_signal(_sig: i32) {
        // First signal: latch, wake the waiters and let the application
        // drain. Second: the drain is wedged (or the user is insistent)
        // — exit now with the conventional 128+SIGINT status.
        if REQUESTED.swap(true, Ordering::SeqCst) {
            // SAFETY: `_exit` is async-signal-safe and takes any status.
            unsafe { _exit(130) }
        }
        wake();
    }

    pub fn wake() {
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // Non-blocking, and one byte per process: a full pipe or a
            // failed write leaves the latch set either way.
            // SAFETY: `write` is async-signal-safe; `fd` is the write end
            // `PIPE` keeps open for the life of the process, and the
            // buffer is one readable byte.
            unsafe { write(fd, [1u8].as_ptr(), 1) };
        }
    }

    pub fn install() {
        if let Ok((read, write)) = UnixStream::pair() {
            if write.set_nonblocking(true).is_ok() {
                let fd = write.as_raw_fd();
                if PIPE.set((read, write)).is_ok() {
                    WAKE_FD.store(fd, Ordering::SeqCst);
                }
            }
        }
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` whose body is
        // async-signal-safe (atomics, `write`, `_exit`).
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        // A request made before the pipe existed has nothing to wake.
        if REQUESTED.load(Ordering::SeqCst) {
            wake();
        }
    }

    /// Sleep until `fd` (when given) or the wake-up pipe is readable, or
    /// a signal interrupts the wait; returns whether `fd` is readable.
    /// Without a pipe (before [`install`]) only `fd` can end the wait.
    pub fn block(fd: Option<RawFd>) -> bool {
        let wake = PIPE.get().map_or(-1, |(read, _)| read.as_raw_fd());
        // `poll` skips negative descriptors.
        let mut fds = [
            PollFd {
                fd: fd.unwrap_or(-1),
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: wake,
                events: POLLIN,
                revents: 0,
            },
        ];
        if fds[0].fd < 0 && fds[1].fd < 0 {
            // Nothing to wait on: waiting before `arm`, with no
            // descriptor of the caller's.
            std::thread::sleep(std::time::Duration::from_millis(25));
            return false;
        }
        // SAFETY: `fds` is a live array of two `pollfd`s, the count
        // passed, which `poll` may write `revents` into.
        let n = unsafe { poll(fds.as_mut_ptr(), 2, -1) };
        if n < 0 && std::io::Error::last_os_error().raw_os_error() != Some(EINTR) {
            // Not expected for valid descriptors; do not spin on it.
            std::thread::sleep(std::time::Duration::from_millis(10));
            return fd.is_some();
        }
        n > 0 && fds[0].revents != 0
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}

    pub fn wake() {}

    pub fn block(_fd: Option<i32>) -> bool {
        std::thread::sleep(std::time::Duration::from_millis(10));
        true
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    extern "C" {
        fn raise(sig: i32) -> i32;
    }

    #[test]
    fn sigterm_latches_instead_of_killing() {
        arm();
        arm(); // idempotent
        assert!(!requested());
        // A thread blocked in `wait` must wake on the signal.
        let waiter = std::thread::spawn(wait);
        // With the handler installed, a real SIGTERM must latch the
        // flag and leave the process alive. (Raised exactly once in
        // this test binary: a second signal escalates to _exit.)
        unsafe { raise(15) };
        assert!(requested(), "signal latches the shutdown flag");
        waiter.join().unwrap();
        // Latched: later waits return at once, and a readable wait
        // reports the shutdown rather than the descriptor.
        wait();
        let (a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        assert!(!wait_readable(&a));
    }
}
