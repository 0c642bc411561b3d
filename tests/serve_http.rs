//! End-to-end differential suite for the serving layer (`ddc-serve`).
//!
//! A real [`Server`] is booted on an ephemeral port and driven over
//! real sockets:
//!
//! * **Differential**: N client threads own disjoint dim-0 slabs of
//!   one `ShardedCube` and drive pipelined mixed traffic, each thread
//!   checking the server's responses *byte-for-byte* against a naive
//!   dense-grid oracle maintained alongside the request stream.
//!   Disjoint slabs make every thread's expected answers deterministic
//!   even though the cube is shared.
//! * **Health**: a plain commit that fails, and a logged commit that
//!   panics, both fail their slab (a `FlakyTarget` injects the fault):
//!   the next update answers 503 with the reason `/healthz` then
//!   reports — one pipeline, one failure rule — and reads keep being
//!   served. 429 is admission control's alone.
//! * **Group commit**: a pipelined run of `u` lines to a durable server
//!   on a fault-injecting disk is one log write and one sync however
//!   long it is; a query in the middle splits it (and sees what came
//!   before it), a refused update in the middle gets its own reply
//!   between its neighbours' `ok`s, and ENOSPC under a group refuses all
//!   of it, leaves the log at its high-water mark and keeps reads
//!   served.
//! * **Connection limit**: past `max_connections` queued + in-flight
//!   connections the acceptor answers 503 and closes; a closed
//!   connection gives its slot back.
//! * **Unreachable coordinates**: the durable backend refuses a point
//!   its cube cannot grow to with a 400-class reply, logs nothing for
//!   it, keeps serving, and restarts cleanly.

use ddc_array::Shape;
use ddc_core::sync::Arc;
use ddc_core::vfs::StdVfs;
use ddc_core::wal::{self, RetryPolicy};
use ddc_core::{
    CommitTarget, DdcConfig, DurableCube, FaultKind, FaultVfs, PlannedFault, ShardConfig,
    ShardedCube, SharedDurableCube, Vfs, COMMIT_FAILED, PANICKED_AFTER_APPEND,
};
use ddc_serve::{Backend, DurableBackend, ServeBackend, Server, ServerConfig, ShardedBackend};
use ddc_tests::{Fault, Faults, FlakyTarget};
use ddc_workload::DdcRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start<T: CommitTarget<i64> + 'static>(
    backend: Backend<T>,
    workers: usize,
) -> (Server, Arc<Backend<T>>) {
    let backend = Arc::new(backend);
    let server = Server::start(
        Arc::clone(&backend) as Arc<dyn ServeBackend>,
        ServerConfig {
            workers,
            max_connections: 64,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    (server, backend)
}

/// Writes `request` and reads one `\n`-terminated response line.
fn roundtrip(stream: &mut TcpStream, request: &str) -> String {
    stream
        .write_all(request.as_bytes())
        .expect("request written");
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte).expect("response byte");
        assert_ne!(n, 0, "server closed mid-response");
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
    }
    String::from_utf8(line).expect("utf-8 response")
}

/// Writes `wire` in one write and reads `n` response lines.
fn pipelined(stream: &mut TcpStream, wire: &str, n: usize) -> Vec<String> {
    let mut replies = vec![roundtrip(stream, wire)];
    replies.extend((1..n).map(|_| roundtrip(stream, "")));
    replies
}

/// Reads exactly `want.len()` bytes and asserts byte equality.
fn expect_exact(stream: &mut TcpStream, want: &str, context: &str) {
    let mut got = vec![0u8; want.len()];
    stream.read_exact(&mut got).expect("full response read");
    assert_eq!(
        String::from_utf8_lossy(&got),
        want,
        "response stream diverged from oracle ({context})"
    );
}

const SIDE: usize = 32;
const THREADS: usize = 4;
const ROWS_PER_THREAD: usize = SIDE / THREADS;
const OPS_PER_THREAD: usize = 300;
const PIPELINE: usize = 50;

/// One client thread: seeded mixed traffic on its own dim-0 slab,
/// pipelined `PIPELINE` requests at a time, each flight compared
/// byte-for-byte against the local oracle. Returns the slab's total.
fn drive_slab(addr: String, thread: usize) -> i64 {
    let mut stream = TcpStream::connect(addr).expect("client connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut rng = DdcRng::seed_from_u64(0x5E2E ^ (thread as u64) << 8);
    let row0 = thread * ROWS_PER_THREAD;
    // The naive oracle: the slab as a dense grid, updated in lockstep
    // with the request stream.
    let mut grid = vec![0i64; ROWS_PER_THREAD * SIDE];
    let mut sent = 0usize;
    while sent < OPS_PER_THREAD {
        let flight = PIPELINE.min(OPS_PER_THREAD - sent);
        let mut wire = String::new();
        let mut want = String::new();
        for _ in 0..flight {
            let r = rng.gen_range(0..ROWS_PER_THREAD);
            let c = rng.gen_range(0..SIDE);
            if rng.gen_bool(0.5) {
                let delta = rng.gen_range(-100i64..=100);
                grid[r * SIDE + c] += delta;
                wire.push_str(&format!("u {},{c} {delta}\n", row0 + r));
                want.push_str("ok\n");
            } else {
                let r2 = r + rng.gen_range(0..ROWS_PER_THREAD - r);
                let c2 = c + rng.gen_range(0..SIDE - c);
                let g = &grid;
                let sum: i64 = (r..=r2)
                    .flat_map(|rr| (c..=c2).map(move |cc| g[rr * SIDE + cc]))
                    .sum();
                wire.push_str(&format!("q {},{c} {},{c2}\n", row0 + r, row0 + r2));
                want.push_str(&format!("{sum}\n"));
            }
        }
        stream.write_all(wire.as_bytes()).expect("flight written");
        expect_exact(&mut stream, &want, &format!("thread {thread}, op {sent}"));
        sent += flight;
    }
    grid.iter().sum()
}

#[test]
fn concurrent_clients_agree_with_naive_oracle_byte_for_byte() {
    let cube = ShardedCube::<i64>::new(
        Shape::new(&[SIDE, SIDE]),
        DdcConfig::default(),
        ShardConfig::with_shards(THREADS),
    );
    let (server, backend) = start(ShardedBackend::new(cube), THREADS);
    let addr = server.local_addr().to_string();

    let totals: Vec<i64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let addr = addr.clone();
                scope.spawn(move || drive_slab(addr, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let grand_total: i64 = totals.iter().sum();

    // The cube holds exactly the union of the slabs: one line query…
    let mut stream = TcpStream::connect(&addr).expect("audit connection");
    let last = SIDE - 1;
    assert_eq!(
        roundtrip(&mut stream, &format!("q 0,0 {last},{last}\n")),
        grand_total.to_string()
    );
    // …and the same box over HTTP, compared as exact wire bytes.
    let mut http = TcpStream::connect(&addr).expect("http connection");
    http.write_all(
        format!("GET /query?lo=0,0&hi={last},{last} HTTP/1.1\r\nHost: e2e\r\n\r\n").as_bytes(),
    )
    .expect("http request");
    http.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = Vec::new();
    http.read_to_end(&mut got).expect("http response");
    let body = format!("{grand_total}\n");
    let want = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    assert_eq!(String::from_utf8_lossy(&got), want);

    // The backend handle agrees with what the wire reported.
    assert_eq!(
        backend.query(&[0, 0], &[last as i64, last as i64]),
        Ok(grand_total)
    );
    server.shutdown();
}

/// `GET /healthz` over a fresh connection: the status line and the body.
fn healthz(addr: &str) -> (String, String) {
    let mut http = TcpStream::connect(addr).expect("health connection");
    http.write_all(b"GET /healthz HTTP/1.1\r\nHost: e2e\r\n\r\n")
        .expect("health request");
    http.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = String::new();
    http.read_to_string(&mut got).expect("health response");
    let (head, body) = got.split_once("\r\n\r\n").expect("head and body");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.trim_end().to_string())
}

/// A slab whose commit failed refuses writes with a 503 that says so,
/// the update whose commit panicked included — and `/healthz` says the
/// same thing, not `ok`. Reads keep serving what the slab acknowledged.
#[test]
fn a_failed_slab_shows_on_healthz_with_the_reason_its_503_carries() {
    let faults = Arc::new(Faults::default());
    let cube = FlakyTarget::sharded(
        Shape::new(&[8, 8]),
        DdcConfig::default(),
        ShardConfig::with_shards(1),
        &faults,
    );
    let (server, _backend) = start(Backend::over(Arc::new(cube)), 2);
    let addr = server.local_addr().to_string();
    assert_eq!(healthz(&addr), ("HTTP/1.1 200 OK".into(), "ok".into()));

    let mut stream = TcpStream::connect(&addr).expect("client connects");
    assert_eq!(roundtrip(&mut stream, "u 2,3 5\n"), "ok");
    faults.arm(Fault::Panic, 1);
    // Its commit is the one that panics: refused, not acknowledged.
    let reason = format!("shard 0 failed ({COMMIT_FAILED})");
    assert_eq!(roundtrip(&mut stream, "u 2,3 1\n"), format!("err {reason}"));
    assert_eq!(roundtrip(&mut stream, "u 2,3 1\n"), format!("err {reason}"));
    let (status, body) = healthz(&addr);
    assert!(status.starts_with("HTTP/1.1 503 "), "{status}");
    assert_eq!(body, format!("degraded: {reason}"));
    assert_eq!(roundtrip(&mut stream, "q 0,0 7,7\n"), "5");
    server.shutdown();
}

/// The durable-shaped pipeline contains a panicking commit like the
/// plain one does: the update answers 503, `/healthz` flips to
/// `degraded` with the same reason, and the worker thread that caught
/// it keeps serving reads on the same connection.
#[test]
fn a_panicking_durable_commit_answers_503_and_the_connection_keeps_serving() {
    let faults = Arc::new(Faults::default());
    let durable = DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::dynamic(), Vec::new())
        .expect("in-memory log");
    let cube = ShardedCube::unbounded(FlakyTarget::new(durable, Arc::clone(&faults)));
    let (server, backend) = start(Backend::over(Arc::new(cube)), 2);
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("client connects");
    assert_eq!(roundtrip(&mut stream, "u 3,-4 5\n"), "ok");

    faults.arm(Fault::Panic, 1);
    let reason = format!("shard 0 failed ({PANICKED_AFTER_APPEND})");
    assert_eq!(roundtrip(&mut stream, "u 1,1 7\n"), format!("err {reason}"));
    // Same connection, so the same worker thread: it did not unwind.
    assert_eq!(roundtrip(&mut stream, "q -8,-8 8,8\n"), "5");
    assert_eq!(roundtrip(&mut stream, "ping\n"), "pong");
    let (status, body) = healthz(&addr);
    assert!(status.starts_with("HTTP/1.1 503 "), "{status}");
    assert_eq!(body, format!("degraded: {reason}"));
    // Read-only from here: no retry, no second record.
    assert_eq!(roundtrip(&mut stream, "u 1,1 7\n"), format!("err {reason}"));
    let records = backend.cube().read_target(0, |t| t.inner().wal_stats().1);
    assert_eq!(records, 1, "only the acknowledged update is in the log");
    server.shutdown();
}

#[test]
fn metrics_scrape_exposes_serving_counters_after_traffic() {
    let cube = ShardedCube::<i64>::new(
        Shape::new(&[8, 8]),
        DdcConfig::default(),
        ShardConfig::with_shards(2),
    );
    let (server, _backend) = start(ShardedBackend::new(cube), 2);
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    assert_eq!(roundtrip(&mut stream, "ping\n"), "pong");
    assert_eq!(roundtrip(&mut stream, "u 1,1 7\n"), "ok");

    let mut http = TcpStream::connect(server.local_addr()).expect("metrics connection");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: e2e\r\n\r\n")
        .expect("scrape request");
    http.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = String::new();
    http.read_to_string(&mut got).expect("scrape response");
    assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got:?}");
    assert!(
        got.contains("ddc_serve_requests"),
        "scrape must carry the serve counters: {got:?}"
    );
    server.shutdown();
}

/// Connects, sends `ping` and reads one line back, whatever it is.
fn ping_once(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"ping\n")?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line)
}

/// One worker, one connection: while connection A is held open, a
/// second connection is shed with `503 connection limit reached`, and
/// once A closes its slot comes back — a new connection is served.
#[test]
fn the_connection_limit_sheds_with_503_and_frees_a_slot_on_close() {
    let cube = ShardedCube::<i64>::new(
        Shape::new(&[8, 8]),
        DdcConfig::default(),
        ShardConfig::with_shards(1),
    );
    let server = Server::start(
        Arc::new(ShardedBackend::new(cube)),
        ServerConfig {
            workers: 1,
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().to_string();

    // A pong means the worker holds A: the one slot is taken.
    let mut a = TcpStream::connect(&addr).expect("connection A");
    assert_eq!(roundtrip(&mut a, "ping\n"), "pong");

    let mut b = TcpStream::connect(&addr).expect("connection B");
    b.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut shed = String::new();
    b.read_to_string(&mut shed).expect("the 503 and a close");
    assert!(shed.starts_with("HTTP/1.1 503 "), "{shed:?}");
    assert!(
        shed.ends_with("\r\n\r\nconnection limit reached\n"),
        "{shed:?}"
    );

    // The worker counts A out once it sees A close; a connection that
    // races ahead of that is shed, so retry until the deadline.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match ping_once(&addr) {
            Ok(line) if line == "pong\n" => break,
            outcome => assert!(
                Instant::now() < deadline,
                "no connection served 5 s after A closed: {outcome:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

type FaultFile = <FaultVfs as Vfs>::File;

/// Boots what `ddc serve --durable` serves on an in-memory disk that
/// counts file ops — a clean append is two, its write and its sync —
/// and is full (ENOSPC) for the op after the first `fits` since boot.
fn start_on_a_counting_disk(
    fits: Option<u64>,
) -> (Server, FaultVfs, Arc<DurableBackend<FaultFile>>) {
    let boot = |vfs: &FaultVfs| {
        let (config, policy) = (DdcConfig::dynamic(), RetryPolicy::instant());
        let (cube, _) = wal::recover_vfs::<i64, _>(vfs, "wal.log", None, 2, config, policy)
            .expect("durable cube boots");
        cube
    };
    // A disarmed boot still counts ops: probe how many.
    let probe = FaultVfs::explicit_mem(Vec::new());
    drop(boot(&probe));
    let fault = |fits| PlannedFault {
        op: probe.ops() + fits,
        kind: FaultKind::NoSpace,
    };
    let vfs = FaultVfs::explicit_mem(fits.map(fault).into_iter().collect());
    let cube = SharedDurableCube::from_cube(boot(&vfs));
    vfs.arm(true);
    let (server, backend) = start(DurableBackend::new(cube), 2);
    (server, vfs, backend)
}

/// The unit of the durable commit is the run the client pipelined, not
/// the update: N `u` lines in one write are N `ok`, N records, one log
/// write and one sync. A query ends the run in front of it — it reads
/// the connection's own writes — and so does an update the cube refuses,
/// which gets its own reply between its neighbours' `ok`s.
#[test]
fn a_pipelined_run_of_updates_is_one_log_write_and_one_sync() {
    let (server, disk, backend) = start_on_a_counting_disk(None);
    let log = || backend.cube().read_target(0, |durable| durable.wal_stats());
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    let run = |range: std::ops::Range<i64>| -> String {
        range
            .map(|i| format!("u {},{} 1\n", i % 16, i / 16))
            .collect()
    };

    let before = disk.ops();
    assert_eq!(pipelined(&mut stream, &run(0..40), 40), vec!["ok"; 40]);
    assert_eq!(disk.ops() - before, 2, "one write and one sync for 40 acks");
    assert_eq!(log().1, 40, "one record per ack, never coalesced");

    let before = disk.ops();
    let wire = format!("{}q 0,0 15,15\n{}p 15,15\n", run(40..50), run(50..60));
    let replies = pipelined(&mut stream, &wire, 22);
    assert_eq!(replies[..10], vec!["ok"; 10]);
    assert_eq!(replies[10], "50", "the query sees the run in front of it");
    assert_eq!(replies[11..21], vec!["ok"; 10]);
    assert_eq!(replies[21], "60");
    assert_eq!(disk.ops() - before, 4, "the query splits the run in two");

    let before = (disk.ops(), log().0);
    let wire = format!("{}u 9223372036854775807,0 1\n{}", run(60..63), run(63..66));
    let replies = pipelined(&mut stream, &wire, 7);
    assert_eq!(replies[..3], vec!["ok"; 3]);
    assert!(replies[3].starts_with("err ") && replies[3].contains("past side"));
    assert_eq!(replies[4..], vec!["ok"; 3]);
    assert_eq!(
        disk.ops() - before.0,
        4,
        "a group on either side of the 400"
    );
    assert_eq!(log().0 - before.1, 6 * 37, "nothing logged for the refusal");
    assert_eq!(roundtrip(&mut stream, "q 0,0 15,15\n"), "66");
    server.shutdown();
}

/// ENOSPC on a group's write: every update of the group is answered
/// `err` with the reason `/healthz` then shows, the log stays at its
/// high-water mark, and reads are still served.
#[test]
fn enospc_under_a_group_refuses_all_of_it_and_keeps_serving_reads() {
    // The first group's write and sync fit; the second group's write
    // does not.
    let (server, disk, backend) = start_on_a_counting_disk(Some(2));
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    let wire = "u 1,1 1\nu 2,2 2\nu 3,3 3\n";
    assert_eq!(pipelined(&mut stream, wire, 3), vec!["ok"; 3]);
    let acked = backend.cube().read_target(0, |durable| durable.wal_stats());

    let replies = pipelined(&mut stream, "u 4,4 4\nu 5,5 5\nu 6,6 6\nq 0,0 9,9\n", 4);
    for refused in &replies[..3] {
        assert!(refused.starts_with("err "), "{replies:?}");
        assert!(refused.contains("out of disk space"), "{replies:?}");
    }
    assert_eq!(replies[3], "6", "reads serve the acked prefix");
    let (status, body) = healthz(&server.local_addr().to_string());
    assert!(status.starts_with("HTTP/1.1 503 "), "{status}");
    let reason = body.strip_prefix("degraded: ").expect("a reason");
    assert!(replies.iter().take(3).all(|r| r.contains(reason)), "{body}");
    let on_disk = disk.inner().contents("wal.log").expect("log exists");
    assert_eq!(on_disk.len() as u64, acked.0, "the torn group was cut off");
    let now = backend.cube().read_target(0, |durable| durable.wal_stats());
    assert_eq!(now, acked);
    server.shutdown();
}

/// Boots what `ddc serve --durable DIR` serves: a growable cube
/// recovered from `DIR/wal.log`. Returns the records replayed.
fn start_durable(dir: &std::path::Path) -> (Server, usize) {
    let (cube, report) = wal::recover_vfs::<i64, _>(
        &StdVfs,
        &dir.join("wal.log").display().to_string(),
        None,
        2,
        DdcConfig::dynamic(),
        RetryPolicy::default(),
    )
    .expect("durable cube recovers");
    let backend = Arc::new(DurableBackend::new(SharedDurableCube::from_cube(cube)));
    let server = Server::start(
        backend as Arc<dyn ServeBackend>,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    (server, report.replayed)
}

/// One update 2^40 cells out would take forty doublings and terabytes
/// of row sums. It must be refused before the log append: logged
/// first, the record would abort every restart that replays it.
#[test]
fn durable_backend_refuses_unreachable_coordinates_and_logs_nothing_for_them() {
    let dir = std::env::temp_dir().join(format!("ddc-serve-far-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal_len = || {
        std::fs::metadata(dir.join("wal.log"))
            .expect("wal.log")
            .len()
    };

    let (server, replayed) = start_durable(&dir);
    assert_eq!(replayed, 0);
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    assert_eq!(roundtrip(&mut stream, "u 3,4 5\n"), "ok");
    let acked_len = wal_len();

    let reply = roundtrip(&mut stream, "u 1099511627776,0 1\n");
    assert!(reply.starts_with("err "), "{reply:?}");
    assert!(reply.contains("past side"), "{reply:?}");
    let mut http = TcpStream::connect(server.local_addr()).expect("http connection");
    http.write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 19\r\n\r\n0,-1099511627776 1\n\n")
        .expect("ingest request");
    http.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = String::new();
    http.read_to_string(&mut got).expect("ingest response");
    assert!(got.starts_with("HTTP/1.1 400 "), "{got:?}");
    // The wire parses any `i64`; the last row of dimension 0 is refused
    // or clipped like any other, on the same connection.
    let reply = roundtrip(&mut stream, "u 9223372036854775807,0 1\n");
    assert!(reply.contains("past side"), "{reply:?}");
    assert_eq!(roundtrip(&mut stream, "q 0,0 9223372036854775807,9\n"), "5");
    assert_eq!(roundtrip(&mut stream, "p 9223372036854775807,9\n"), "5");
    assert_eq!(
        roundtrip(&mut stream, "q -9223372036854775808,0 0,0\n"),
        "0"
    );

    assert_eq!(roundtrip(&mut stream, "ping\n"), "pong");
    assert_eq!(roundtrip(&mut stream, "q -8,-8 8,8\n"), "5");
    assert_eq!(wal_len(), acked_len, "a refused update reached the log");
    server.shutdown();

    let (server, replayed) = start_durable(&dir);
    assert_eq!(replayed, 1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("client reconnects");
    assert_eq!(roundtrip(&mut stream, "q -8,-8 8,8\n"), "5");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
