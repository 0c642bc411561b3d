//! The TCP front end: acceptor + worker pool over [`crate::backend`].
//!
//! Architecture (DESIGN §S42):
//!
//! * One acceptor thread owns the listening socket. Accepted
//!   connections are pushed onto a bounded hand-off queue guarded by a
//!   `Mutex`/`Condvar` pair from the `core::sync` facade; when the
//!   total of queued + in-flight connections reaches
//!   [`ServerConfig::max_connections`] the acceptor answers `503` and
//!   closes instead of queueing (load shedding at the door).
//! * [`ServerConfig::workers`] worker threads pop connections and run
//!   them to completion: read → feed [`RequestParser`] → execute each
//!   frame against the backend → batch all responses from one read
//!   into one write (pipelining never pays per-request syscalls). Each
//!   maximal run of consecutive update frames in a read goes to the
//!   backend as one [`ServeBackend::ingest`] — behind a log, one write
//!   and one sync — when the run ends: at a frame that is not an
//!   update, at a framing error, or with the read.
//! * The line-protocol path allocates nothing per request in steady
//!   state: a line frame is a slice of the parser's buffer, it decodes
//!   into fixed-width points on the stack, the run of updates is a
//!   reused `Vec` of them, and a sum is formatted straight into the
//!   reply buffer (`tests/request_allocs.rs` pins it at 0).
//! * Reads carry a short timeout so idle connections observe shutdown
//!   promptly; a fatal [`ParseError`](crate::http::ParseError) answers
//!   with its mapped status and closes (after a framing error the
//!   stream cannot be trusted).
//!
//! Load is shed at two doors, in order of checking: the connection
//! limit (503) and per-tenant admission ([`Admission`], 429 — the only
//! 429). Past them, a refused update carries its
//! [`BackendError`](crate::backend::BackendError)'s status (400, 500,
//! or 503 for a read-only pipeline). An update is acknowledged (`ok` /
//! 200) only after the backend accepted it — acked writes are never
//! lost.

use crate::admission::{Admission, AdmissionConfig};
use crate::backend::{BackendHealth, ServeBackend};
use crate::http::{write_http_response, Frame, ParserConfig, RequestParser};
use crate::protocol::{self, ServeRequest};
use ddc_array::Point;
use ddc_core::obs;
use ddc_core::sync::thread::{spawn, JoinHandle};
use ddc_core::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing connections.
    pub workers: usize,
    /// Queued + in-flight connections accepted before shedding with
    /// 503.
    pub max_connections: usize,
    /// Wire-parser bounds.
    pub parser: ParserConfig,
    /// Per-tenant rate policy.
    pub admission: AdmissionConfig,
    /// Socket read timeout; bounds how long an idle connection takes
    /// to notice shutdown.
    pub read_timeout: Duration,
    /// Close a connection that has sent no bytes for this long. `None`
    /// disables the reaper (connections live until the peer hangs up).
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_connections: 256,
            parser: ParserConfig::default(),
            admission: AdmissionConfig::default(),
            read_timeout: Duration::from_millis(50),
            idle_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Shared state between the acceptor and the workers.
struct Shared {
    backend: Arc<dyn ServeBackend>,
    config: ServerConfig,
    admission: Admission,
    /// Hand-off queue of accepted connections, their census and the
    /// shutdown flag.
    queue: Mutex<Queue>,
    /// Signals workers that the queue or the shutdown flag changed.
    wake: Condvar,
    /// Monotonic epoch for admission timestamps.
    epoch: Instant,
}

/// What [`Shared::wake`] announces. The flag lives under the queue's
/// lock so that a worker which finds the queue empty and the flag clear
/// is already waiting when shutdown sets it: one notify reaches it.
struct Queue {
    conns: VecDeque<TcpStream>,
    /// Queued + in-flight connections (the 503 limit): the acceptor
    /// counts one in as it queues it, a worker out once it has closed it.
    open: usize,
    stopping: bool,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// threads for the process lifetime — tests and the CLI always shut
/// down explicitly.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the pool, and starts accepting.
    pub fn start(backend: Arc<dyn ServeBackend>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            admission: Admission::new(config.admission),
            config,
            queue: Mutex::new(Queue {
                conns: VecDeque::new(),
                open: 0,
                stopping: false,
            }),
            wake: Condvar::new(),
            epoch: Instant::now(),
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains workers, and joins every thread.
    /// In-flight connections are closed at their next read timeout.
    pub fn shutdown(self) {
        lock(&self.shared.queue).stopping = true;
        self.shared.wake.notify_all();
        // Unblock the acceptor with one last connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> ddc_core::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let accepted = obs::counter("serve.conn.accepted");
    let shed = obs::counter("serve.conn.shed");
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let mut queue = lock(&shared.queue);
        if queue.stopping {
            break;
        }
        if queue.open >= shared.config.max_connections {
            // The 503 is written with the lock released.
            drop(queue);
            shed.inc();
            let mut out = Vec::new();
            write_http_response(&mut out, 503, "connection limit reached\n");
            let mut stream = stream;
            let _ = stream.write_all(&out);
            continue;
        }
        accepted.inc();
        queue.open += 1;
        queue.conns.push_back(stream);
        drop(queue);
        shared.wake.notify_one();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(s) = queue.conns.pop_front() {
                    break s;
                }
                if queue.stopping {
                    return;
                }
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        handle_connection(stream, shared);
        lock(&shared.queue).open -= 1;
    }
}

/// Per-connection session state: the tenant bound by the `t` command.
struct Session {
    tenant: String,
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let mut parser = RequestParser::new(shared.config.parser);
    let mut session = Session {
        tenant: "default".to_string(),
    };
    let mut buf = vec![0u8; 16 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(4 * 1024);
    // The updates of the read in hand that are parsed but not yet handed
    // to the backend: a maximal run of consecutive update frames.
    let mut run: Vec<(Point, i64)> = Vec::new();
    let mut last_activity = Instant::now();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if lock(&shared.queue).stopping {
                    return;
                }
                // Idle reaper: a connection that has gone quiet past
                // the deadline is closed so it stops pinning a worker
                // and a slot under `max_connections`.
                if let Some(idle) = shared.config.idle_timeout {
                    if last_activity.elapsed() >= idle {
                        obs::counter("serve.conn.idle_reaped").inc();
                        return;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        last_activity = Instant::now();
        parser.feed(&buf[..n]);
        out.clear();
        loop {
            match parser.poll() {
                Ok(Some(frame)) => respond(&frame, shared, &mut session, &mut run, &mut out),
                Ok(None) => break,
                Err(e) => {
                    // Fatal framing error: answer and close.
                    land_run(shared, &mut run, &mut out);
                    obs::counter("serve.parse_errors").inc();
                    write_http_response(&mut out, e.status(), &format!("{e}\n"));
                    let _ = stream.write_all(&out);
                    return;
                }
            }
        }
        land_run(shared, &mut run, &mut out);
        if !out.is_empty() && stream.write_all(&out).is_err() {
            return;
        }
        if lock(&shared.queue).stopping {
            return;
        }
    }
}

/// Per-request observability handles, cached off the registry lock.
struct ServeObs {
    requests: Arc<obs::Counter>,
}

fn serve_obs() -> &'static ServeObs {
    static OBS: OnceLock<ServeObs> = OnceLock::new();
    OBS.get_or_init(|| ServeObs {
        requests: obs::counter("serve.requests"),
    })
}

/// Hands the run of updates collected so far to the backend as one
/// ingest — on a logged backend one log write and one sync for all of
/// it — and appends their reply lines, in request order. A refused
/// update gets its own reply and the rest of the run goes in again
/// behind it.
fn land_run(shared: &Arc<Shared>, run: &mut Vec<(Point, i64)>, out: &mut Vec<u8>) {
    let mut rest = run.as_slice();
    while !rest.is_empty() {
        let outcome = shared.backend.ingest(rest);
        for _ in 0..outcome.applied {
            reply_line(out, 200, "ok");
        }
        let Some(e) = outcome.error else { break };
        reply_line(out, e.status(), e.detail());
        rest = &rest[outcome.applied + 1..];
    }
    run.clear();
}

/// Executes one frame, appending the wire response to `out` — or, for
/// an admitted update, appending it to `run`: consecutive updates are
/// answered together when the run ends ([`land_run`]), which is before
/// anything else is answered, so replies stay in request order and a
/// query reads the connection's own writes.
fn respond(
    frame: &Frame<'_>,
    shared: &Arc<Shared>,
    session: &mut Session,
    run: &mut Vec<(Point, i64)>,
    out: &mut Vec<u8>,
) {
    serve_obs().requests.inc();
    let decoded = protocol::decode(frame);
    if !matches!(decoded, Ok(ServeRequest::Update { .. })) {
        land_run(shared, run, out);
    }
    let request = match decoded {
        Ok(r) => r,
        Err(e) => {
            obs::counter("serve.bad_requests").inc();
            return reply(frame, out, e.status(), &e.detail());
        }
    };
    // Session commands and cheap probes bypass admission.
    match &request {
        ServeRequest::Tenant(name) => {
            session.tenant.clone_from(name);
            return reply(frame, out, 200, "ok");
        }
        ServeRequest::Ping => return reply(frame, out, 200, "pong"),
        // Healthy body stays exactly "ok" (smoke tests grep for it);
        // a degraded durable backend keeps answering queries but
        // advertises 503 so load balancers can drain writes.
        ServeRequest::Health => match shared.backend.health() {
            BackendHealth::Ok => return reply(frame, out, 200, "ok"),
            BackendHealth::Degraded(reason) => {
                return reply(frame, out, 503, &format!("degraded: {reason}"))
            }
        },
        ServeRequest::Metrics => {
            let mut text = obs::prometheus_text();
            text.push('\n');
            return reply(frame, out, 200, &text);
        }
        _ => {}
    }
    let tenant = match frame {
        Frame::Http(req) => req.header("x-ddc-tenant").unwrap_or(&session.tenant),
        Frame::Line(_) => &session.tenant,
    };
    // The clock is read only when there is a rate to charge against.
    let limited = shared.admission.config().rate_per_sec > 0;
    if limited && !shared.admission.admit(tenant, shared.now_ns()) {
        // A refused update ends the run it would have joined.
        land_run(shared, run, out);
        obs::counter("serve.rejected.admission").inc();
        return reply(frame, out, 429, &format!("rate-limited tenant {tenant:?}"));
    }
    let backend = &shared.backend;
    let sum = match request {
        ServeRequest::Update { point, delta } => return run.push((point, delta)),
        ServeRequest::Ingest(updates) => {
            let outcome = backend.ingest(&updates);
            return match outcome.error {
                None => reply(frame, out, 200, &format!("applied {}", outcome.applied)),
                Some(e) => reply(
                    frame,
                    out,
                    e.status(),
                    &format!(
                        "applied {} of {}: {}",
                        outcome.applied,
                        updates.len(),
                        e.detail()
                    ),
                ),
            };
        }
        ServeRequest::Query { lo, hi } => backend.query(&lo, &hi),
        ServeRequest::Prefix(point) => backend.prefix(&point),
        // Handled above.
        ServeRequest::Tenant(_)
        | ServeRequest::Ping
        | ServeRequest::Health
        | ServeRequest::Metrics => return reply(frame, out, 200, ""),
    };
    match sum {
        Ok(sum) => reply_sum(frame, out, sum),
        Err(e) => reply(frame, out, e.status(), e.detail()),
    }
}

/// Answers a sum: on a line frame its digits go straight into `out`.
fn reply_sum(frame: &Frame<'_>, out: &mut Vec<u8>, sum: i64) {
    match frame {
        Frame::Http(_) => write_http_response(out, 200, &format!("{sum}\n")),
        Frame::Line(_) => _ = writeln!(out, "{sum}"),
    }
}

/// Serializes a response in the syntax the request arrived in. Line
/// responses are one line: `ok` / value / `pong`, `busy <detail>` for
/// 429 (admission), `err <detail>` otherwise.
fn reply(frame: &Frame<'_>, out: &mut Vec<u8>, status: u16, body: &str) {
    match frame {
        Frame::Http(_) => {
            let mut body = body.to_string();
            if !body.ends_with('\n') {
                body.push('\n');
            }
            write_http_response(out, status, &body);
        }
        Frame::Line(_) => reply_line(out, status, body),
    }
}

/// [`reply`] to a line frame (an update is always one).
fn reply_line(out: &mut Vec<u8>, status: u16, body: &str) {
    match status {
        200 => {}
        429 => out.extend_from_slice(b"busy "),
        _ => out.extend_from_slice(b"err "),
    }
    out.extend_from_slice(body.as_bytes());
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ShardedBackend;
    use ddc_array::Shape;
    use ddc_core::{DdcConfig, ShardConfig, ShardedCube};
    use std::io::BufRead as _;

    fn start_default() -> Server {
        let cube = ShardedCube::<i64>::new(
            Shape::new(&[64, 64]),
            DdcConfig::default(),
            ShardConfig::with_shards(2),
        );
        Server::start(Arc::new(ShardedBackend::new(cube)), ServerConfig::default())
            .expect("bind ephemeral")
    }

    fn send(addr: SocketAddr, wire: &[u8], lines: usize) -> Vec<String> {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(wire).expect("write");
        let mut r = std::io::BufReader::new(s);
        (0..lines)
            .map(|_| {
                let mut line = String::new();
                r.read_line(&mut line).expect("read line");
                line.trim_end().to_string()
            })
            .collect()
    }

    #[test]
    fn line_protocol_round_trips_over_tcp() {
        let server = start_default();
        let addr = server.local_addr();
        let replies = send(addr, b"ping\nu 1,2 5\nu 1,3 7\np 1,2\nq 0,0 63,63\n", 5);
        assert_eq!(replies, ["pong", "ok", "ok", "5", "12"]);
        let errs = send(addr, b"q 9,9 1,1\nzap\n", 2);
        assert!(errs[0].starts_with("err "), "{errs:?}");
        assert!(errs[1].starts_with("err "), "{errs:?}");
        server.shutdown();
    }

    #[test]
    fn http_round_trip_and_metrics() {
        let server = start_default();
        let addr = server.local_addr();
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(
            b"POST /ingest HTTP/1.1\r\nContent-Length: 12\r\n\r\n1,1 4\n2,2 6\nGET /query?lo=0,0&hi=63,63 HTTP/1.1\r\n\r\n",
        )
        .expect("write");
        let mut r = std::io::BufReader::new(s);
        let mut read_response = || {
            let mut status = String::new();
            r.read_line(&mut status).expect("status");
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                r.read_line(&mut line).expect("header");
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().expect("length");
                }
            }
            let mut body = vec![0u8; len];
            r.read_exact(&mut body).expect("body");
            (
                status.trim_end().to_string(),
                String::from_utf8(body).expect("utf8"),
            )
        };
        let (s1, b1) = read_response();
        assert_eq!(s1, "HTTP/1.1 200 OK");
        assert_eq!(b1, "applied 2\n");
        let (s2, b2) = read_response();
        assert_eq!(s2, "HTTP/1.1 200 OK");
        assert_eq!(b2, "10\n");
        drop(r);

        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
            .expect("write");
        // Half-close so the server sees EOF and hangs up after replying.
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut text = String::new();
        let _ = s.read_to_string(&mut text);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("ddc_serve_requests"), "{text}");
        server.shutdown();
    }

    #[test]
    fn admission_control_answers_429() {
        let cube = ShardedCube::<i64>::new(
            Shape::new(&[8, 8]),
            DdcConfig::default(),
            ShardConfig::with_shards(1),
        );
        let server = Server::start(
            Arc::new(ShardedBackend::new(cube)),
            ServerConfig {
                admission: AdmissionConfig {
                    rate_per_sec: 1,
                    burst: 2,
                    max_tenants: 8,
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let wire = b"t heavy\nu 1,1 1\nu 1,1 1\nu 1,1 1\nu 1,1 1\nu 1,1 1\n";
        let replies = send(addr, wire, 6);
        assert_eq!(replies[0], "ok", "tenant bind is uncharged");
        let ok = replies[1..].iter().filter(|r| *r == "ok").count();
        let busy = replies[1..]
            .iter()
            .filter(|r| r.starts_with("busy "))
            .count();
        assert_eq!(ok, 3, "{replies:?}");
        assert_eq!(busy, 2, "{replies:?}");
        server.shutdown();
    }

    /// A durable backend in degraded read-only mode after ENOSPC:
    /// `/healthz` is 503 with the reason, reads serve, writes answer 503.
    #[test]
    fn healthz_maps_degraded_backend_to_503_while_queries_serve() {
        let (_disk, cube) = crate::backend::tests::on_a_disk_that_fills();
        let backend = Arc::new(crate::backend::DurableBackend::new(cube));
        backend
            .update(&[1, 1], 42)
            .expect("the one append that fits");
        backend.update(&[0, 0], 1).expect_err("ENOSPC");
        let server = Server::start(backend, ServerConfig::default()).expect("bind");
        let addr = server.local_addr();
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut text = String::new();
        let _ = s.read_to_string(&mut text);
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("degraded: out of disk space"), "{text}");

        // Reads still serve (200), mutations answer 503.
        let replies = send(addr, b"q 0,0 1,1\nu 1,1 5\n", 2);
        assert_eq!(replies[0], "42");
        assert!(replies[1].starts_with("err "), "{replies:?}");
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_after_the_deadline() {
        let cube = ShardedCube::<i64>::new(
            Shape::new(&[8, 8]),
            DdcConfig::default(),
            ShardConfig::with_shards(1),
        );
        let server = Server::start(
            Arc::new(ShardedBackend::new(cube)),
            ServerConfig {
                read_timeout: Duration::from_millis(10),
                idle_timeout: Some(Duration::from_millis(80)),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        // An active connection first, proving the reaper only fires on
        // silence: each request resets the idle clock.
        let replies = send(addr, b"ping\n", 1);
        assert_eq!(replies, ["pong"]);
        // Now connect and say nothing; the server must hang up on us.
        let start = Instant::now();
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut text = String::new();
        s.read_to_string(&mut text).expect("server closed cleanly");
        assert!(text.is_empty(), "{text:?}");
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(60),
            "reaped too early: {waited:?}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_http_closes_with_mapped_status() {
        let server = start_default();
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.write_all(b"GET /broken\r\n\r\n").expect("write");
        let mut text = String::new();
        let _ = s.read_to_string(&mut text);
        assert!(text.starts_with("HTTP/1.1 400 Bad Request"), "{text}");
        server.shutdown();
    }
}
