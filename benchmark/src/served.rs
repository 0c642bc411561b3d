//! `ddc serve` children and the line-protocol client that drives them.
//!
//! Process hygiene matters more than usual here: the box has two cores
//! and a run uses both (one client thread, one server worker), so a
//! leaked server is a third runnable thread that silently poisons every
//! later run. Children are therefore registered in one place and killed
//! on every exit path — [`Server`]'s drop, and a panic hook for the
//! paths where unwinding does not reach it.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

/// Every child this process has running.
static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Kills (SIGKILL) and reaps the children selected by `which`.
fn reap(which: impl Fn(&Child) -> bool) {
    let mut children = CHILDREN.lock().unwrap_or_else(PoisonError::into_inner);
    let mut i = 0;
    while i < children.len() {
        if which(&children[i]) {
            let mut gone = children.swap_remove(i);
            // Already dead is fine; either way `wait` reaps it.
            let _ = gone.kill();
            let _ = gone.wait();
        } else {
            i += 1;
        }
    }
}

fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            reap(|_| true);
            previous(info);
        }));
    });
}

/// The address out of the line `ddc serve` prints once it accepts
/// connections: `ddc serve: listening on HOST:PORT (…)`.
pub fn parse_listening(line: &str) -> Option<&str> {
    let rest = line.split_once("listening on ")?.1;
    let addr = rest.split_whitespace().next()?;
    let (host, port) = addr.rsplit_once(':')?;
    (!host.is_empty() && port.parse::<u16>().is_ok()).then_some(addr)
}

/// Pids of `ddc serve` processes found under `proc_dir` (a `/proc`).
pub fn stray_servers(proc_dir: &Path) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir(proc_dir) else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read(proc_dir.join(pid.to_string()).join("cmdline"))
                .is_ok_and(|cmdline| is_ddc_serve(&cmdline))
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// `true` for a NUL-separated argv of the form `…/ddc serve …`.
fn is_ddc_serve(cmdline: &[u8]) -> bool {
    let mut argv = cmdline.split(|&b| b == 0);
    let program = argv.next().unwrap_or_default();
    let name = program.rsplit(|&b| b == b'/').next().unwrap_or_default();
    name == b"ddc" && argv.next() == Some(b"serve")
}

/// Fails if a `ddc serve` is already running on this machine.
pub fn ensure_no_stray_server() -> Result<(), String> {
    match stray_servers(Path::new("/proc")).as_slice() {
        [] => Ok(()),
        pids => Err(format!(
            "a `ddc serve` is already running (pid {pids:?}); on two cores it would \
             share a core with the measured run — stop it and run again"
        )),
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// A `ddc serve` child. Dropping it kills the process (SIGKILL) and
/// waits for it.
pub struct Server {
    pid: u32,
    addr: String,
    /// Held open so the child never sees a closed stdout.
    _stdout: ChildStdout,
}

impl Server {
    /// Starts `ddc serve --addr 127.0.0.1:0 ARGS…` with `env` added, and
    /// waits for its `listening on` line.
    pub fn spawn(ddc: &Path, args: &[String], env: &[(&str, String)]) -> Result<Server, String> {
        install_panic_hook();
        let mut child = Command::new(ddc)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .envs(env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ddc.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        CHILDREN
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(child);
        // From here on the registry owns the child: an early return
        // must go through `Server`'s drop.
        let mut server = Server {
            pid,
            addr: String::new(),
            _stdout: stdout,
        };
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        // Unbuffered on purpose: the pipe stays usable and nothing past
        // the first line is swallowed.
        while server._stdout.read(&mut byte).map_err(|e| e.to_string())? == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        let line = String::from_utf8_lossy(&line).into_owned();
        server.addr = parse_listening(&line)
            .ok_or_else(|| format!("ddc serve did not start listening; it said {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// Process id of the child.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Opens a connection to the child.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let pid = self.pid;
        reap(|child| child.id() == pid);
    }
}

/// One reply line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ok` — an update was acknowledged.
    Ack,
    /// A decimal sum.
    Sum(i64),
    /// `busy …` or `err …`: the request failed.
    Refused,
}

impl Reply {
    /// Decodes one reply line (terminator already stripped).
    pub fn parse(line: &str) -> Reply {
        match line {
            "ok" => Reply::Ack,
            other => other.parse().map_or(Reply::Refused, Reply::Sum),
        }
    }
}

/// A single line-protocol connection that never sleeps: the socket is
/// non-blocking and the client spins until bytes arrive.
///
/// A blocked reader halts its virtual CPU, and on this kind of VM the
/// wake-up then costs anything from a few microseconds to milliseconds,
/// depending on what the host is doing — measured single-request round
/// trips flipped between 8 µs and 55 µs from one run to the next, and
/// pipelined throughput halved in the bad phases because the sleeping
/// client let the server run dry. A spinning client answers within a
/// microsecond whatever the host does, so the server always has the
/// next batch buffered and neither side waits on a wake-up. The price
/// is one core, which the thread budget (one client thread, one server
/// worker, two cores) already gives it.
pub struct Client {
    stream: TcpStream,
    /// Bytes received and not yet consumed: `buf[at..end]`.
    buf: Vec<u8>,
    at: usize,
    end: usize,
}

/// A server that stops answering must fail the run, not hang it.
const SILENCE_LIMIT: Duration = Duration::from_secs(60);

impl Client {
    /// Connects to `addr`, retrying refused connects for a short while
    /// (a respawned server binds before it accepts).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => return Err(format!("connect {addr}: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            buf: vec![0; 64 * 1024],
            at: 0,
            end: 0,
        })
    }

    /// Retries `io` while it would block, spinning; gives up after
    /// [`SILENCE_LIMIT`].
    fn spin<T>(mut io: impl FnMut() -> std::io::Result<T>, what: &str) -> Result<T, String> {
        let mut since: Option<Instant> = None;
        loop {
            match io() {
                Ok(v) => return Ok(v),
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    // Reading the clock on every spin would slow the spin.
                    let started = *since.get_or_insert_with(Instant::now);
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                    if started.elapsed() > SILENCE_LIMIT {
                        return Err(format!("{what}: no progress for {SILENCE_LIMIT:?}"));
                    }
                }
                Err(e) => return Err(format!("{what}: {e}")),
            }
        }
    }

    /// Sends pre-rendered request bytes.
    pub fn send(&mut self, mut wire: &[u8]) -> Result<(), String> {
        while !wire.is_empty() {
            let sent = Self::spin(|| self.stream.write(wire), "send")?;
            wire = &wire[sent..];
        }
        Ok(())
    }

    /// Receives more bytes into the buffer.
    fn fill(&mut self) -> Result<(), String> {
        if self.at == self.end {
            (self.at, self.end) = (0, 0);
        } else if self.end == self.buf.len() {
            // Out of room behind a partial message: move it to the
            // front, and if it already fills the buffer, grow.
            self.buf.copy_within(self.at..self.end, 0);
            (self.at, self.end) = (0, self.end - self.at);
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.end, 0);
            }
        }
        let (stream, room) = (&mut self.stream, &mut self.buf[self.end..]);
        match Self::spin(|| stream.read(room), "receive")? {
            0 => Err("server closed the connection".to_string()),
            n => {
                self.end += n;
                Ok(())
            }
        }
    }

    /// Reads one raw reply line, without its terminator.
    pub fn read_line(&mut self) -> Result<&str, String> {
        let newline = loop {
            match self.buf[self.at..self.end].iter().position(|&b| b == b'\n') {
                Some(i) => break self.at + i,
                None => self.fill()?,
            }
        };
        let line = &self.buf[self.at..newline];
        self.at = newline + 1;
        std::str::from_utf8(line)
            .map(|l| l.trim_end_matches('\r'))
            .map_err(|e| format!("receive: {e}"))
    }

    /// Reads and decodes one reply.
    pub fn reply(&mut self) -> Result<Reply, String> {
        self.read_line().map(Reply::parse)
    }

    /// `GET path` over HTTP on this connection; returns the body.
    pub fn http_get(&mut self, path: &str) -> Result<String, String> {
        self.send(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())?;
        let mut length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad header {line:?}"))?;
                }
            }
        }
        while self.end - self.at < length {
            self.fill()?;
        }
        let body = self.buf[self.at..self.at + length].to_vec();
        self.at += length;
        String::from_utf8(body).map_err(|e| e.to_string())
    }
}

/// A directory unique to this process, removed when dropped. Declare it
/// before the [`Server`] that uses it, so the server dies first.
pub struct ScratchDir {
    path: PathBuf,
    /// Whether the directory is on tmpfs.
    pub tmpfs: bool,
}

impl ScratchDir {
    /// Creates `/dev/shm/ddc-benchmark-PID-TAG`, or `FALLBACK/PID-TAG`
    /// where there is no usable tmpfs.
    pub fn create(fallback: &Path, tag: &str) -> Result<ScratchDir, String> {
        let pid = std::process::id();
        let shm = PathBuf::from(format!("/dev/shm/ddc-benchmark-{pid}-{tag}"));
        if std::fs::create_dir(&shm).is_ok() {
            return Ok(ScratchDir {
                path: shm,
                tmpfs: true,
            });
        }
        let path = fallback.join(format!("{pid}-{tag}"));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir { path, tmpfs: false })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_yields_the_address() {
        let line =
            "ddc serve: listening on 127.0.0.1:40123 (256x256 cube, 1 shards, 1 workers, rate 0/s)";
        assert_eq!(parse_listening(line), Some("127.0.0.1:40123"));
        assert_eq!(
            parse_listening("ddc serve: listening on [::1]:7171"),
            Some("[::1]:7171")
        );
        assert_eq!(
            parse_listening("ddc serve: cannot start server: in use"),
            None
        );
        assert_eq!(parse_listening("listening on nowhere"), None);
        assert_eq!(parse_listening("listening on host:notaport (x)"), None);
        assert_eq!(parse_listening(""), None);
    }

    #[test]
    fn replies_decode() {
        assert_eq!(Reply::parse("ok"), Reply::Ack);
        assert_eq!(Reply::parse("-42"), Reply::Sum(-42));
        assert_eq!(Reply::parse("0"), Reply::Sum(0));
        assert_eq!(Reply::parse("busy queue full"), Reply::Refused);
        assert_eq!(Reply::parse("err bad integer \"x\""), Reply::Refused);
        assert_eq!(Reply::parse(""), Reply::Refused);
    }

    #[test]
    fn only_ddc_serve_counts_as_a_stray() {
        assert!(is_ddc_serve(
            b"/x/target/release/ddc\0serve\0--side\x00256\0"
        ));
        assert!(is_ddc_serve(b"ddc\0serve\0"));
        assert!(!is_ddc_serve(b"/x/target/release/ddc\0loadgen\0"));
        assert!(!is_ddc_serve(b"/x/ddc-bench-e2e\0serve\0"));
        assert!(!is_ddc_serve(b"bash\0-c\0ddc serve\0"));
        assert!(!is_ddc_serve(b""));

        let proc_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-proc-{}", std::process::id()));
        for (pid, cmdline) in [
            ("17", &b"/bin/ddc\0serve\0"[..]),
            ("23", b"sleep\x001\0"),
            ("self", b"ddc\0serve\0"),
        ] {
            std::fs::create_dir_all(proc_dir.join(pid)).expect("mkdir");
            std::fs::write(proc_dir.join(pid).join("cmdline"), cmdline).expect("write");
        }
        assert_eq!(stray_servers(&proc_dir), [17]);
        std::fs::remove_dir_all(&proc_dir).expect("cleanup");
        assert_eq!(stray_servers(&proc_dir), []);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mib(std::process::id()).expect("VmHWM") > 0.5);
    }
}
