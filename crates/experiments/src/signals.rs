//! SIGTERM latch and the SIGTERM-aware listener for long-lived commands
//! (`repro worker`, `repro serve`).
//!
//! The core crate forbids unsafe code, so the few libc calls (`signal`,
//! `pipe`, `fcntl`, `write`, `poll`) live here in the binary. glibc's `signal()`
//! installs BSD semantics (`SA_RESTART`), which means a SIGTERM does
//! *not* interrupt a blocking `accept`/`read`. Two ways to notice it:
//!
//! * [`Listener::accept`] blocks in `poll(2)` on the listening socket
//!   *and* on a self-pipe the handler writes one byte to, so an idle
//!   daemon sleeps until a connection or the signal arrives — no timed
//!   wait on the request path, and the drain starts at once.
//! * Work that must not be cut short polls [`term_requested`] at its
//!   natural boundaries (`serve_worker_until` between units). That is
//!   exactly the drain semantics we want: the in-flight unit always
//!   finishes.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static TERM: AtomicBool = AtomicBool::new(false);
/// The self-pipe: the handler writes to `WAKE_WRITE`, [`Listener`]
/// polls `WAKE_READ`. `-1` until [`install_term_handler`] ran (or
/// forever, if `pipe` failed — `poll` ignores negative descriptors and
/// still returns `EINTR` when the handler runs on the polling thread).
static WAKE_READ: AtomicI32 = AtomicI32::new(-1);
static WAKE_WRITE: AtomicI32 = AtomicI32::new(-1);

/// Has a SIGTERM arrived since [`install_term_handler`]?
pub fn term_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// The latch itself, for APIs that poll an `&AtomicBool` (e.g.
/// `serve_worker_until`).
pub fn term_flag() -> &'static AtomicBool {
    &TERM
}

#[cfg(unix)]
mod ffi {
    use std::ffi::{c_int, c_short, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const SIGTERM: c_int = 15;
    pub const POLLIN: c_short = 0x001;
    #[cfg(test)]
    pub const F_GETFD: c_int = 1;
    pub const F_SETFD: c_int = 2;
    pub const FD_CLOEXEC: c_int = 1;

    #[cfg(target_os = "linux")]
    pub type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = std::ffi::c_uint;

    extern "C" {
        pub fn signal(signum: c_int, handler: usize) -> usize;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
}

/// The async-signal-safe handler: set the latch, then make the
/// self-pipe readable (once — the byte is never drained, so every later
/// `poll` returns at once too).
#[cfg(unix)]
extern "C" fn on_term(_sig: i32) {
    if TERM.swap(true, Ordering::SeqCst) {
        return;
    }
    let fd = WAKE_WRITE.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: `write(2)` is async-signal-safe; `fd` is the pipe's
        // write end, never closed; `byte` outlives the call.
        unsafe {
            ffi::write(fd, std::ptr::addr_of!(byte).cast(), 1);
        }
    }
}

/// Install the SIGTERM → latch handler (idempotent; only the first
/// call does anything).
#[cfg(unix)]
pub fn install_term_handler() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let mut fds = [-1i32; 2];
        // SAFETY: `fds` is the two-int array `pipe(2)` fills in.
        if unsafe { ffi::pipe(fds.as_mut_ptr()) } == 0 {
            // Close-on-exec: the `--process-shards` children a daemon
            // spawns must not inherit the pipe.
            for fd in fds {
                // SAFETY: `fd` is an open descriptor `pipe(2)` returned.
                unsafe {
                    ffi::fcntl(fd, ffi::F_SETFD, ffi::FD_CLOEXEC);
                }
            }
            WAKE_READ.store(fds[0], Ordering::SeqCst);
            WAKE_WRITE.store(fds[1], Ordering::SeqCst);
        }
        // SAFETY: `on_term` is an `extern "C" fn(i32)` that only
        // touches atomics and calls `write(2)`.
        unsafe {
            ffi::signal(ffi::SIGTERM, on_term as *const () as usize);
        }
    });
}

/// Non-unix builds have no SIGTERM; the latch simply never flips.
#[cfg(not(unix))]
pub fn install_term_handler() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| ());
}

/// A listening socket whose [`accept`](Listener::accept) blocks until a
/// connection *or* SIGTERM arrives — the one accept loop of `repro
/// serve` and `repro worker`.
pub struct Listener {
    inner: TcpListener,
    /// Log prefix for accept failures (`serve`, `worker`).
    who: &'static str,
}

impl Listener {
    /// Wrap a bound listener and install the SIGTERM handler.
    pub fn new(inner: TcpListener, who: &'static str) -> std::io::Result<Listener> {
        install_term_handler();
        // `poll` saying "readable" does not promise `accept` will not
        // block (the peer may have reset in between), so the listening
        // socket itself never blocks; `wait_readable` does.
        #[cfg(unix)]
        inner.set_nonblocking(true)?;
        Ok(Listener { inner, who })
    }

    /// The next connection, or `None` once SIGTERM has arrived. Accept
    /// failures are logged and retried: a daemon outlives them.
    pub fn accept(&self) -> Option<(TcpStream, SocketAddr)> {
        while !term_requested() {
            let accepted = self.wait_readable().and_then(|()| self.inner.accept());
            match accepted {
                // Some platforms hand the listener's nonblocking flag
                // down to the accepted socket; request I/O must block.
                Ok((stream, peer)) => match stream.set_nonblocking(false) {
                    Ok(()) => return Some((stream, peer)),
                    Err(e) => eprintln!("[{}] set_nonblocking(false) on {peer}: {e}", self.who),
                },
                // `poll` was interrupted (the handler ran on this
                // thread), or woke for the self-pipe or a connection
                // that is already gone: look again.
                Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {}
                Err(e) => {
                    eprintln!("[{}] accept failed: {e}", self.who);
                    // Failure path only (fd exhaustion and the like):
                    // do not spin on a condition that needs time.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        None
    }

    /// Sleep until the listening socket or the self-pipe is readable.
    #[cfg(unix)]
    fn wait_readable(&self) -> std::io::Result<()> {
        use std::os::fd::AsRawFd;
        let mut fds = [
            ffi::PollFd {
                fd: self.inner.as_raw_fd(),
                events: ffi::POLLIN,
                revents: 0,
            },
            ffi::PollFd {
                fd: WAKE_READ.load(Ordering::SeqCst),
                events: ffi::POLLIN,
                revents: 0,
            },
        ];
        // SAFETY: `fds` is a live array of exactly the two `pollfd`s
        // the count names, for the whole call.
        let n = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as ffi::NfdsT, -1) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Without SIGTERM there is nothing to wake for but a connection.
    #[cfg(not(unix))]
    fn wait_readable(&self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_starts_clear_and_install_is_idempotent() {
        install_term_handler();
        install_term_handler();
        // The latch may have flipped if the test *process* was
        // SIGTERMed, but under cargo test it starts clear.
        assert!(!term_requested());
    }

    #[cfg(unix)]
    #[test]
    fn self_pipe_is_close_on_exec() {
        let inner = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _listener = Listener::new(inner, "test").expect("listener");
        for fd in [&WAKE_READ, &WAKE_WRITE].map(|fd| fd.load(Ordering::SeqCst)) {
            assert!(fd >= 0, "the self-pipe was created");
            // SAFETY: F_GETFD only reads the descriptor's flags.
            let flags = unsafe { ffi::fcntl(fd, ffi::F_GETFD) };
            assert_eq!(
                flags & ffi::FD_CLOEXEC,
                ffi::FD_CLOEXEC,
                "fd {fd} leaks across exec"
            );
        }
    }

    #[test]
    fn listener_hands_over_a_blocking_stream_without_waiting() {
        use std::io::{Read, Write};
        let inner = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = inner.local_addr().expect("local_addr");
        let listener = Listener::new(inner, "test").expect("listener");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            // Let the server's read block for a moment first.
            std::thread::sleep(Duration::from_millis(30));
            s.write_all(b"x").expect("write");
        });
        let (mut stream, _) = listener.accept().expect("no SIGTERM under test");
        let mut byte = [0u8; 1];
        // A nonblocking stream would fail here with WouldBlock.
        stream.read_exact(&mut byte).expect("blocking read");
        assert_eq!(&byte, b"x");
        client.join().expect("client thread");
    }
}
