//! Process and filesystem hygiene: scratch directories removed at
//! exit, children behind a kill-and-reap guard, resource usage from
//! `wait4`, daemons that publish their address through a port file,
//! and a one-request HTTP client.

use std::cell::Cell;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads rusage through the 64-bit Linux wait4 ABI");

/// An op that has not exited after this long is killed and counted as
/// failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn send_signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes two integers and touches no memory of
    // this process. The pid is a child this process spawned and has
    // not yet reaped, so it cannot name an unrelated process.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// What a reaped child used: user + system CPU seconds (waited-for
/// descendants included) and the peak resident set of its largest
/// process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_kib: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exited with code 0 (not signalled, not timed out).
    pub success: bool,
    pub usage: Usage,
}

/// A spawned child that is killed and reaped when the guard drops, so
/// no error path or panic leaves a `repro` behind.
pub struct Guard {
    child: Option<Child>,
}

impl Guard {
    pub fn spawn(cmd: &mut Command) -> io::Result<Guard> {
        cmd.spawn().map(Guard::adopt)
    }

    /// Guard a child spawned elsewhere (one whose pipes were taken).
    pub fn adopt(child: Child) -> Guard {
        Guard { child: Some(child) }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("live until wait").id()
    }

    pub fn terminate(&self) {
        send_signal(self.pid(), SIGTERM);
    }

    /// Block until the child exits, SIGKILLing it at `timeout`.
    pub fn wait(mut self, timeout: Duration) -> io::Result<Exit> {
        let pid = self.pid();
        let (done, expired) = mpsc::channel::<()>();
        // The watchdog sleeps on the channel, so a healthy op costs it
        // no CPU. It can fire only while this thread is still inside
        // wait4, i.e. while the pid is still ours.
        let watchdog = std::thread::spawn(move || {
            let timed_out = expired.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout);
            if timed_out {
                send_signal(pid, SIGKILL);
            }
            timed_out
        });
        let mut status = 0i32;
        let mut raw = RawRusage::default();
        let reaped = loop {
            // SAFETY: `status` and `raw` are live, writable and of the
            // layout wait4(2) fills on 64-bit Linux (checked by the
            // compile_error above); the pid is our unreaped child.
            let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut raw) };
            if rc >= 0 {
                break Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                break Err(e);
            }
        };
        // Reaped (or unwaitable): the guard must not signal this pid
        // again, it may already belong to someone else.
        self.child = None;
        drop(done);
        let timed_out = watchdog.join().expect("watchdog does not panic");
        reaped?;
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Ok(Exit {
            success: !timed_out && status & 0x7f == 0 && (status >> 8) & 0xff == 0,
            usage: Usage {
                cpu_s: secs(raw.utime) + secs(raw.stime),
                maxrss_kib: raw.maxrss.max(0) as u64,
            },
        })
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// CPU seconds (user + system, all threads, children excluded) a live
/// process has used, from `/proc/<pid>/stat`. Clock-tick resolution:
/// read it around phases that last seconds, not around single ops.
pub fn cpu_of_live(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields are counted after the
    // last ')'. utime and stime are fields 14 and 15 of the line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks: Option<u64> = match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => u
            .parse::<u64>()
            .ok()
            .zip(s.parse::<u64>().ok())
            .map(|(u, s)| u + s),
        _ => None,
    };
    let ticks =
        ticks.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc stat"))?;
    // SAFETY: sysconf(3) takes an integer and returns one.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    Ok(ticks as f64 / if hz > 0 { hz as f64 } else { 100.0 })
}

/// Spin every core for a second and a half.
///
/// A core of this VM that sat idle for about ten seconds runs its next
/// second at a fraction of its speed: `repro fig3 --ases 3000
/// --threads 2` takes 2.9 s when the second core was idle and 2.4 s when
/// it was not, and 0.1 / 0.3 / 0.6 / 1.0 / 1.5 s of spinning beforehand
/// give 2.87 / 2.76 / 2.64 / 2.46 / 2.42 s. Without this, whether a
/// multi-threaded op is slow depends on what ran before it. Every timed
/// one-shot op starts from the warm state.
pub fn warm_cores() {
    if cfg!(test) {
        // The smoke tests check outputs, not speeds.
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_millis(1500) {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// A scratch tree under [`std::env::temp_dir`], removed on drop. Every
/// op gets a fresh directory inside it; nothing is written next to the
/// sources.
pub struct Scratch {
    root: PathBuf,
    next: Cell<usize>,
}

impl Scratch {
    pub fn new() -> io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let root = std::env::temp_dir().join(format!("ledger-{}-{nanos:09}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: Cell::new(0),
        })
    }

    pub fn fresh(&self, label: &str) -> io::Result<PathBuf> {
        let k = self.next.get();
        self.next.set(k + 1);
        let dir = self.root.join(format!("{k:04}-{label}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The program under test.
pub struct Repro {
    path: PathBuf,
}

/// One finished one-shot op.
pub struct Op {
    pub wall_s: f64,
    pub exit: Exit,
    pub dir: PathBuf,
}

impl Op {
    pub fn stdout(&self) -> String {
        std::fs::read_to_string(self.dir.join("stdout.log")).unwrap_or_default()
    }

    pub fn stderr(&self) -> String {
        std::fs::read_to_string(self.dir.join("stderr.log")).unwrap_or_default()
    }

    pub fn output(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.dir.join(name))
    }
}

impl Repro {
    /// `explicit`, or the `repro` that sits next to this executable.
    pub fn locate(explicit: Option<&Path>) -> Result<Repro, String> {
        let path = match explicit {
            Some(p) => p.to_path_buf(),
            None => std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|dir| dir.join("repro")))
                .ok_or("cannot resolve the ledger's own executable")?,
        };
        if path.is_file() {
            Ok(Repro { path })
        } else {
            Err(format!(
                "no repro binary at {} (build it with `cargo build --release`, or pass --repro PATH)",
                path.display()
            ))
        }
    }

    /// `repro <args>` running in `dir`, its output streams captured in
    /// `dir/stdout.log` and `dir/stderr.log` (files, so a chatty child
    /// never blocks on a full pipe while it is being timed).
    fn command(&self, args: &[String], dir: &Path) -> io::Result<Command> {
        let mut cmd = Command::new(&self.path);
        cmd.args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(File::create(dir.join("stdout.log"))?)
            .stderr(File::create(dir.join("stderr.log"))?);
        Ok(cmd)
    }

    /// Run `repro <args> --out <dir>` from exec to exit.
    pub fn run(&self, args: &[String], dir: PathBuf) -> io::Result<Op> {
        let mut args = args.to_vec();
        args.extend(["--out".to_string(), dir.display().to_string()]);
        let mut cmd = self.command(&args, &dir)?;
        let t0 = Instant::now();
        let exit = Guard::spawn(&mut cmd)?.wait(OP_TIMEOUT)?;
        Ok(Op {
            wall_s: t0.elapsed().as_secs_f64(),
            exit,
            dir,
        })
    }

    /// Start `repro <args> --port-file <dir>/port` and wait until the
    /// daemon has published the address it bound.
    pub fn listen(&self, args: &[String], dir: PathBuf) -> io::Result<Daemon> {
        let port_file = dir.join("port");
        let mut args = args.to_vec();
        args.extend(["--port-file".to_string(), port_file.display().to_string()]);
        let mut cmd = self.command(&args, &dir)?;
        let started = Instant::now();
        let guard = Guard::spawn(&mut cmd)?;
        loop {
            // The daemon publishes atomically (write-tmp, rename), so a
            // readable file holds a whole address.
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if !text.trim().is_empty() {
                    return Ok(Daemon {
                        guard,
                        addr: text.trim().to_string(),
                        started,
                        dir,
                    });
                }
            }
            if started.elapsed() > Duration::from_secs(20) {
                let stderr = std::fs::read_to_string(dir.join("stderr.log")).unwrap_or_default();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("daemon published no address within 20 s; stderr: {stderr}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A listening `repro worker` or `repro serve`.
pub struct Daemon {
    guard: Guard,
    pub addr: String,
    /// When the daemon was exec'd.
    pub started: Instant,
    pub dir: PathBuf,
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.guard.pid()
    }

    /// SIGTERM, then wait for the graceful drain to exit.
    pub fn drain(self) -> io::Result<Exit> {
        self.guard.terminate();
        self.guard.wait(OP_TIMEOUT)
    }
}

/// One HTTP/1.1 request on a fresh connection (the daemon answers
/// `connection: close`): `(status, body)`.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(OP_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: ledger\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("no status"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_reports_exit_code_and_usage() {
        let ok = Guard::spawn(Command::new("true").stdin(Stdio::null()))
            .unwrap()
            .wait(OP_TIMEOUT)
            .unwrap();
        assert!(ok.success);
        assert!(ok.usage.maxrss_kib > 0);
        let bad = Guard::spawn(Command::new("false").stdin(Stdio::null()))
            .unwrap()
            .wait(OP_TIMEOUT)
            .unwrap();
        assert!(!bad.success);
    }

    #[test]
    fn a_hung_child_is_killed_at_the_timeout_and_counts_as_failed() {
        let t0 = Instant::now();
        let exit = Guard::spawn(Command::new("sleep").arg("30").stdin(Stdio::null()))
            .unwrap()
            .wait(Duration::from_millis(50))
            .unwrap();
        assert!(!exit.success);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn dropping_a_guard_reaps_the_child() {
        let guard = Guard::spawn(Command::new("sleep").arg("30").stdin(Stdio::null())).unwrap();
        let pid = guard.pid();
        assert!(cpu_of_live(pid).is_ok());
        drop(guard);
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let scratch = Scratch::new().unwrap();
        let a = scratch.fresh("a").unwrap();
        let b = scratch.fresh("a").unwrap();
        assert_ne!(a, b);
        assert!(a.starts_with(std::env::temp_dir()));
        let root = a.parent().unwrap().to_path_buf();
        drop(scratch);
        assert!(!root.exists());
    }
}
