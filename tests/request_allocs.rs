//! Heap allocations per served line request, counted by the global
//! allocator: the line-protocol path — parser → decoder → backend →
//! reply — allocates nothing per update, range sum or prefix in steady
//! state, on the plain backend (a 256² cube) and on the durable one (a
//! log on a pre-sized in-memory file). Each kind is sent as 10 000
//! pipelined requests over loopback twice: first in double batches, so
//! every reused buffer grows past what a single batch needs, then in
//! single batches, counted. One test, so no other thread of this binary
//! allocates while it counts.

use std::io::{Read, Write};
use std::net::TcpStream;

use ddc_array::Shape;
use ddc_core::sync::Arc;
use ddc_core::{DdcConfig, DurableCube, ShardConfig, ShardedCube, SharedDurableCube};
use ddc_serve::{DurableBackend, ServeBackend, Server, ServerConfig, ShardedBackend};
use ddc_tests::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Requests of each kind per counted pass.
const REQUESTS: usize = 10_000;
/// Requests per pipelined write.
const BATCH: usize = 250;

/// The cell request `i` touches: spread over the 256² box.
fn cell(i: usize) -> (usize, usize) {
    ((i * 37) % 256, (i * 91) % 256)
}

/// The wire bytes of one kind of request, `batch` requests a write.
fn batches(kind: u8, batch: usize) -> Vec<Vec<u8>> {
    let line = |i: usize| {
        let (x, y) = cell(i);
        match kind {
            b'u' => format!("u {x},{y} {}\n", i % 7 + 1),
            b'q' => format!("q {},{} {x},{y}\n", x / 2, y / 3),
            _ => format!("p {x},{y}\n"),
        }
    };
    let ids: Vec<usize> = (0..REQUESTS).collect();
    let wire = |chunk: &[usize]| chunk.iter().flat_map(|&i| line(i).into_bytes()).collect();
    ids.chunks(batch).map(wire).collect()
}

/// Sends every batch and reads its replies; panics on a reply that is
/// not `ok` or a sum. Allocates nothing itself.
fn pipeline(conn: &mut TcpStream, batches: &[Vec<u8>], replies: &mut [u8]) {
    for batch in batches {
        conn.write_all(batch).expect("send");
        let requests = batch.iter().filter(|&&b| b == b'\n').count();
        let (mut lines, mut at_line_start) = (0, true);
        while lines < requests {
            let n = conn.read(replies).expect("replies");
            assert!(n > 0, "the server hung up");
            for &b in &replies[..n] {
                if at_line_start && !(b == b'o' || b == b'-' || b.is_ascii_digit()) {
                    panic!("a refused request");
                }
                at_line_start = b == b'\n';
                lines += usize::from(at_line_start);
            }
        }
    }
}

/// Allocations per request of each kind — update, query, prefix — on a
/// server over `backend`: the pass in single batches, counted.
fn allocations_per_request(backend: impl ServeBackend) -> [f64; 3] {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(backend), config).expect("bind");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let mut replies = vec![0u8; 64 * 1024];
    let counts = [b'u', b'q', b'p'].map(|kind| {
        pipeline(&mut conn, &batches(kind, 2 * BATCH), &mut replies);
        let wire = batches(kind, BATCH);
        let before = allocations();
        pipeline(&mut conn, &wire, &mut replies);
        (allocations() - before) as f64 / REQUESTS as f64
    });
    drop(conn);
    server.shutdown();
    counts
}

#[test]
fn a_line_request_allocates_nothing_in_steady_state() {
    let plain = ShardedBackend::new(ShardedCube::new(
        Shape::new(&[256, 256]),
        DdcConfig::dynamic(),
        ShardConfig::with_shards(1),
    ));
    let plain = allocations_per_request(plain);
    // Both passes log every update: 37 B a record at d = 2.
    let log = Vec::with_capacity(4 * 37 * REQUESTS + 4096);
    let durable = DurableCube::<i64, Vec<u8>>::new(2, DdcConfig::dynamic(), log).expect("log");
    let durable =
        allocations_per_request(DurableBackend::new(SharedDurableCube::from_cube(durable)));
    println!("allocations per update / query / prefix: plain {plain:?}, durable {durable:?}");
    assert_eq!(
        (plain, durable),
        ([0.0; 3], [0.0; 3]),
        "allocations per update / query / prefix, plain and durable"
    );
}
