//! `ddc-bench-layers --workload W --seed N --seconds N --trace 1` — the
//! traced twin of `ddc-bench-e2e`: the per-layer metrics.
//!
//! One list of ops from the workload's stream is replayed at each layer
//! boundary in turn, outermost first, every call inside a span (see
//! `ddc_benchmark::span`). Layers a workload's requests never cross
//! report zero. This file is the only one in the benchmark allowed to
//! name the repo's internals; `ddc-bench-e2e` and the library stay on the
//! stable surfaces.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_benchmark::cli::{self, Args};
use ddc_benchmark::drive::{check, restart_check, start_child, InProcess, Target, Wire};
use ddc_benchmark::ops::{Kind, Op, OpStream, MAX_DIMS};
use ddc_benchmark::oracle::Fenwick;
use ddc_benchmark::report::{self, Metric, Tally};
use ddc_benchmark::served::{self, Client, Reply, ScratchDir, Server as Child};
use ddc_benchmark::span::{self_ns, SpanLog};
use ddc_benchmark::spec::{self, Spec};
use ddc_benchmark::stats::{median, quantile};
use ddc_btree::{BlockedBc, CumulativeStore};
use ddc_core::vfs::{MemVfs, OpenMode, Vfs, VfsFile};
use ddc_core::{
    DdcConfig, DdcTree, DurableCube, GrowableCube, PagerConfig, PoolStats, ShardConfig,
    ShardedCube, SharedCube, SharedDurableCube,
};
use ddc_serve::protocol;
use ddc_serve::{
    Admission, AdmissionConfig, DurableBackend, ParserConfig, RequestParser, ServeBackend, Server,
    ServerConfig, ShardedBackend,
};

/// Every per-layer metric of `BENCHMARK.json`, with its unit. A run
/// prints all of them; the ones its workload does not reach stay zero.
const METRICS: &[(&str, &str)] = &[
    ("btree.blocked.update_ns", "ns"),
    ("btree.blocked.prefix_ns", "ns"),
    ("tree.update_ns", "ns"),
    ("tree.prefix_ns", "ns"),
    ("tree.touched_per_update", "count"),
    ("tree.reads_per_prefix", "count"),
    ("tree.nodes", "count"),
    ("tree.heap_bytes", "B"),
    ("engine.update_ns", "ns"),
    ("engine.prefix_ns", "ns"),
    ("engine.range_ns", "ns"),
    ("engine.self_update_ns", "ns"),
    ("engine.over_yardstick", "ratio"),
    ("engine.bytes_per_cell", "B"),
    ("growth.add_ns", "ns"),
    ("growth.range_ns", "ns"),
    ("concurrent.update_ns", "ns"),
    ("concurrent.range_ns", "ns"),
    ("shard.update_ns", "ns"),
    ("shard.range_ns", "ns"),
    ("shard.flush_ns_per_update", "ns"),
    ("wal.add_ns", "ns"),
    ("wal.self_add_ns", "ns"),
    ("wal.bytes_per_update", "B"),
    ("wal.syncs_per_update", "count"),
    ("vfs.writes_per_update", "count"),
    ("pager.add_ns", "ns"),
    ("pager.range_ns", "ns"),
    ("pager.hit_ratio", "ratio"),
    ("pager.evictions_per_op", "count"),
    ("pager.writebacks_per_op", "count"),
    ("pager.io_retries", "count"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.bytes_per_cell", "B"),
    ("http.parse_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("admission.check_ns", "ns"),
    ("backend.update_ns", "ns"),
    ("backend.query_ns", "ns"),
    ("server.rtt_ns", "ns"),
    ("server.self_ns", "ns"),
    ("obs.engine.update.p50_ns", "ns"),
    ("obs.shard.queue_wait.p50_ns", "ns"),
    ("obs.shard.commit.p50_ns", "ns"),
    ("obs.wal.append.p50_ns", "ns"),
    ("obs.wal.fsync.p50_ns", "ns"),
    ("obs.overhead_ratio", "ratio"),
    ("child.wal_bytes_per_update", "B"),
    ("child.restart_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_floor_ns", "ns"),
];

/// Throughput rounds each `ddc serve` child of the traced run serves.
const CHILD_ROUNDS: usize = 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `run` has returned, and so dropped every child and directory,
    // before the process exits.
    let code = match cli::parse(&args, true).and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("ddc-bench-layers: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Span names of one layer, by op kind.
#[derive(Clone, Copy)]
struct Names {
    update: &'static str,
    prefix: &'static str,
    range: &'static str,
}

const fn names(update: &'static str, prefix: &'static str, range: &'static str) -> Names {
    Names {
        update,
        prefix,
        range,
    }
}

impl Names {
    fn of(&self, kind: Kind) -> &'static str {
        match kind {
            Kind::Update => self.update,
            Kind::Prefix => self.prefix,
            Kind::Range => self.range,
        }
    }
}

const SERVER: Names = names("server.rtt", "server.rtt", "server.rtt");
const BACKEND: Names = names("backend.update", "backend.prefix", "backend.range");
const SHARD: Names = names("shard.update", "shard.prefix", "shard.range");
const WAL: Names = names("wal.add", "wal.range", "wal.range");
const PAGER: Names = names("pager.add", "pager.range", "pager.range");
const GROWTH: Names = names("growth.add", "growth.range", "growth.range");
const CONCURRENT: Names = names("concurrent.update", "concurrent.prefix", "concurrent.range");
const ENGINE: Names = names("engine.update", "engine.prefix", "engine.range");
const TREE: Names = names("tree.update", "tree.prefix", "tree.prefix");
const BTREE: Names = names(
    "btree.blocked.update",
    "btree.blocked.prefix",
    "btree.blocked.prefix",
);
const YARDSTICK: Names = names("yardstick.update", "yardstick.prefix", "yardstick.range");

/// State of one traced run.
struct Run {
    spec: Spec,
    preload: Vec<Op>,
    ops: Vec<Op>,
    /// As many more ops from the same stream, never traced.
    spare: Vec<Op>,
    /// Sum of the query answers of the first, second, … replay of `ops`
    /// on a cube that started from `preload`, by the oracle.
    expected: [i64; 4],
    log: SpanLog,
    values: BTreeMap<&'static str, f64>,
    tally: Tally,
    notes: Vec<String>,
}

impl Run {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not in METRICS"
        );
        self.values.insert(name, value);
    }

    fn set_p50(&mut self, name: &'static str, span: &str) {
        let p50 = self.log.p50_ns(span);
        self.set(name, p50 as f64);
    }

    /// Replays the ops against one layer, a span around each call, and
    /// checks the answers against the oracle's for the `nth` replay on
    /// the same cube.
    fn replay(
        &mut self,
        names: Names,
        parent: Option<Names>,
        nth: usize,
        mut call: impl FnMut(&Op) -> Reply,
    ) {
        let mut sum = 0i64;
        self.log.reserve(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let parent = parent.map(|p| p.of(op.kind));
            match self
                .log
                .record(names.of(op.kind), parent, i as u32, || call(op))
            {
                Reply::Sum(v) => sum = sum.wrapping_add(v),
                Reply::Ack => {}
                Reply::Refused => self.tally.failed += 1,
            }
        }
        self.verify(names.range, sum, nth);
    }

    /// Counts one replay of the ops, and checks the sum of its answers
    /// against the oracle's for the `nth` replay on the same cube.
    fn verify(&mut self, layer: &str, sum: i64, nth: usize) {
        self.tally.attempted += self.ops.len() as u64;
        if sum != self.expected[nth] {
            self.tally.wrong += 1;
            self.notes.push(format!(
                "WRONG: {layer} answers sum to {sum}, the oracle's to {}",
                self.expected[nth]
            ));
        }
    }
}

fn usize_point(p: &[u32; MAX_DIMS]) -> [usize; MAX_DIMS] {
    p.map(|c| c as usize)
}

fn i64_point(p: &[u32; MAX_DIMS]) -> [i64; MAX_DIMS] {
    p.map(i64::from)
}

fn run(args: Args) -> Result<bool, String> {
    served::ensure_no_stray_server()?;
    let served = args.spec.target != spec::Target::InProcess;
    // The durable child spills under its own directory; so does the
    // paged twin here (`PagerConfig::disk` spills under `TMPDIR`).
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = match args.spec.target {
        spec::Target::Durable { .. } => Some(ScratchDir::create(&out_dir, "layers")?),
        _ => None,
    };
    let mut spec = args.spec;
    let mut notes = Vec::new();
    if let Some(dir) = &scratch {
        std::env::set_var("TMPDIR", dir.path());
        notes.push(format!("tmpfs={}", dir.tmpfs));
        if !dir.tmpfs {
            spec = spec.off_tmpfs();
        }
    }
    let d = spec.dims;

    let mut stream = OpStream::new(spec, args.seed);
    let (mut ops, mut spare) = (Vec::new(), Vec::new());
    stream.fill(&mut ops, spec.trace_ops_for(args.seconds));
    stream.fill(&mut spare, ops.len());
    let mut oracle = Fenwick::new(d, spec.side);
    let preload: Vec<Op> = stream.preload().collect();
    for op in &preload {
        oracle.apply(op);
    }
    let mut run = Run {
        spec,
        preload,
        expected: [0; 4].map(|_| {
            ops.iter()
                .filter_map(|op| oracle.apply(op))
                .fold(0i64, i64::wrapping_add)
        }),
        ops,
        spare,
        log: SpanLog::default(),
        values: BTreeMap::new(),
        tally: Tally::default(),
        notes,
    };

    // Outermost layers first. What calls the engine, and how the
    // growable cube above it (if any) is configured, follow the child.
    let (engine_parent, growable) = match spec.target {
        spec::Target::InProcess => (None, None),
        spec::Target::Serve => {
            sharded_stack(&mut run)?;
            (Some(SHARD), Some(DdcConfig::dynamic()))
        }
        spec::Target::Durable { mem_cap } => {
            durable_stack(&mut run, mem_cap)?;
            (Some(GROWTH), Some(DdcConfig::dynamic().with_elision(1)))
        }
    };
    if let Some(config) = growable {
        wire_parts(&mut run);
        growth_layer(&mut run, config);
    }
    engine_layers(&mut run, engine_parent, served);
    tree_layer(&mut run);
    btree_layer(&mut run);
    yardstick(&mut run);
    derived(&mut run);

    let trace = out_dir.join(format!("trace-{}.jsonl", spec.name));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let file = std::fs::File::create(&trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    run.log
        .dump(&mut std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    run.notes.push(format!(
        "{} spans of {} ops in {}",
        run.log.spans().len(),
        run.ops.len(),
        trace.display()
    ));

    if served {
        children(&mut run, &args, scratch.as_ref())?;
    }

    let metrics: Vec<Metric> = METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, run.values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    report::print(spec.name, &run.notes, &[], &run.tally, &metrics);
    Ok(run.tally.clean())
}

// ---------------------------------------------------------------------
// In-process layers
// ---------------------------------------------------------------------

fn preloaded_engine(run: &Run) -> InProcess {
    InProcess::set_up(&run.spec, &run.preload)
}

/// `engine.*`, the tracing overhead on that layer and, for the served
/// workloads, `concurrent.*`: such an engine behind a `SharedCube`.
fn engine_layers(run: &mut Run, parent: Option<Names>, also_shared: bool) {
    let d = run.spec.dims;

    // What the harness itself costs: chunks of the replay alternate with
    // chunks of spare ops run without spans. Both go to the same engine
    // — of two engines built the same way, the one allocated second ran
    // 15–20 % faster here, which would drown the few percent looked for
    // — and a local oracle follows both.
    let mut engine = preloaded_engine(run);
    let mut oracle = Fenwick::new(d, run.spec.side);
    for op in &run.preload {
        oracle.apply(op);
    }
    let (mut plain_ns, mut traced_ns) = (0.0, 0.0);
    let ops = std::mem::take(&mut run.ops);
    let (mut sum, mut expected) = (0i64, 0i64);
    run.log.reserve(ops.len());
    for (c, (chunk, spare)) in ops.chunks(256).zip(run.spare.chunks(256)).enumerate() {
        // Take turns at going first.
        for traced in [c % 2 == 1, c % 2 == 0] {
            let started = Instant::now();
            for (i, op) in (if traced { chunk } else { spare }).iter().enumerate() {
                if !traced {
                    black_box(engine.exec(black_box(op)));
                    continue;
                }
                let (name, parent) = (ENGINE.of(op.kind), parent.map(|p| p.of(op.kind)));
                let id = (c * 256 + i) as u32;
                let reply = run.log.record(name, parent, id, || engine.exec(op));
                if let Reply::Sum(v) = reply {
                    sum = sum.wrapping_add(v);
                }
            }
            let nanos = started.elapsed().as_nanos() as f64;
            *(if traced {
                &mut traced_ns
            } else {
                &mut plain_ns
            }) += nanos;
            for op in if traced { chunk } else { spare } {
                if let (Some(v), true) = (oracle.apply(op), traced) {
                    expected = expected.wrapping_add(v);
                }
            }
        }
    }
    run.ops = ops;
    run.tally.attempted += 2 * run.ops.len() as u64;
    if sum != expected {
        run.tally.wrong += 1;
        run.notes.push(format!(
            "WRONG: engine answers sum to {sum}, the oracle's to {expected}"
        ));
    }
    run.set("trace.overhead_ratio", traced_ns / plain_ns);
    run.set_p50("engine.update_ns", ENGINE.update);
    run.set_p50("engine.prefix_ns", ENGINE.prefix);
    run.set_p50("engine.range_ns", ENGINE.range);
    run.set(
        "engine.bytes_per_cell",
        engine.engine().heap_bytes() as f64 / engine.engine().populated_cells() as f64,
    );

    if also_shared {
        drop(engine);
        let shared = SharedCube::from_engine(preloaded_engine(run).into_engine());
        run.replay(CONCURRENT, Some(BACKEND), 0, |op| {
            let (lo, hi) = (usize_point(&op.lo), usize_point(&op.hi));
            match op.kind {
                Kind::Update => {
                    shared.apply_delta(&hi[..d], i64::from(op.delta));
                    Reply::Ack
                }
                Kind::Prefix => Reply::Sum(shared.prefix_sum(&hi[..d])),
                Kind::Range => Reply::Sum(shared.range_sum(&Region::new(&lo[..d], &hi[..d]))),
            }
        });
        run.set_p50("concurrent.update_ns", CONCURRENT.update);
        run.set_p50("concurrent.range_ns", CONCURRENT.range);
    }
}

/// `tree.*`: the primary tree under the engine. A range sum reaches it
/// as its `2^d` prefix terms, one span each.
fn tree_layer(run: &mut Run) {
    let d = run.spec.dims;
    let mut tree = DdcTree::<i64>::new(d, run.spec.side, DdcConfig::dynamic());
    for op in &run.preload {
        tree.apply_delta(&usize_point(&op.hi)[..d], i64::from(op.delta));
    }
    let (mut touched, mut updates, mut reads, mut prefixes) = (0u64, 0u64, 0u64, 0u64);
    let ops = std::mem::take(&mut run.ops);
    let mut sum = 0i64;
    for (i, op) in ops.iter().enumerate() {
        let parent = Some(ENGINE.of(op.kind));
        let before = tree.ops();
        match op.kind {
            Kind::Update => {
                let hi = usize_point(&op.hi);
                run.log.record(TREE.update, parent, i as u32, || {
                    tree.apply_delta(&hi[..d], i64::from(op.delta));
                });
                touched += (tree.ops() - before).touched();
                updates += 1;
            }
            Kind::Prefix | Kind::Range => {
                let region = Region::new(&usize_point(&op.lo)[..d], &usize_point(&op.hi)[..d]);
                for term in region.prefix_decomposition() {
                    let v = run.log.record(TREE.prefix, parent, i as u32, || {
                        tree.prefix_sum(&term.corner)
                    });
                    sum = sum.wrapping_add(if term.sign > 0 { v } else { v.wrapping_neg() });
                    prefixes += 1;
                }
                reads += (tree.ops() - before).reads;
            }
        }
    }
    run.ops = ops;
    run.verify(TREE.prefix, sum, 0);
    run.set_p50("tree.update_ns", TREE.update);
    run.set_p50("tree.prefix_ns", TREE.prefix);
    run.set(
        "tree.touched_per_update",
        touched as f64 / updates.max(1) as f64,
    );
    run.set(
        "tree.reads_per_prefix",
        reads as f64 / prefixes.max(1) as f64,
    );
    run.set("tree.nodes", tree.stats().nodes as f64);
    run.set("tree.heap_bytes", tree.heap_bytes() as f64);
}

/// `btree.blocked.*`: the 1-D base store, length = side. Each op is
/// projected onto its first axis — a unit probe of the store, not the
/// number of store calls an engine op makes.
fn btree_layer(run: &mut Run) {
    let mut store = BlockedBc::<i64>::zeroed(run.spec.side);
    for op in &run.preload {
        store.add(op.hi[0] as usize, i64::from(op.delta));
    }
    run.log.reserve(run.ops.len());
    for (i, op) in run.ops.iter().enumerate() {
        let at = op.hi[0] as usize;
        let parent = Some(TREE.of(op.kind));
        match op.kind {
            Kind::Update => run.log.record(BTREE.update, parent, i as u32, || {
                store.add(at, i64::from(op.delta));
            }),
            _ => {
                black_box(
                    run.log
                        .record(BTREE.prefix, parent, i as u32, || store.prefix(at)),
                );
            }
        }
    }
    run.set_p50("btree.blocked.update_ns", BTREE.update);
    run.set_p50("btree.blocked.prefix_ns", BTREE.prefix);
}

/// The benchmark's own Fenwick tree on the same ops: the yardstick of
/// `engine.over_yardstick` (update p50 ÷ update p50), and the floor a
/// span costs by itself.
fn yardstick(run: &mut Run) {
    let mut fenwick = Fenwick::new(run.spec.dims, run.spec.side);
    for op in &run.preload {
        fenwick.apply(op);
    }
    run.replay(YARDSTICK, None, 0, |op| match fenwick.apply(op) {
        Some(v) => Reply::Sum(v),
        None => Reply::Ack,
    });
    let ours = run.log.p50_ns(ENGINE.update) as f64;
    let theirs = run.log.p50_ns(YARDSTICK.update) as f64;
    run.set("engine.over_yardstick", ours / theirs.max(1.0));

    let mut floor = SpanLog::default();
    for i in 0..10_000 {
        floor.record("floor", None, i, || black_box(i));
    }
    run.set("trace.span_floor_ns", floor.p50_ns("floor") as f64);
}

/// `growth.*` and `persist.*`: an in-memory `GrowableCube`.
fn growth_layer(run: &mut Run, config: DdcConfig) {
    let d = run.spec.dims;
    let durable = matches!(run.spec.target, spec::Target::Durable { .. });
    let mut cube = GrowableCube::<i64>::new(d, config);
    for op in &run.preload {
        cube.add(&i64_point(&op.hi)[..d], i64::from(op.delta));
    }
    let parent = if durable { PAGER } else { BACKEND };
    run.replay(GROWTH, Some(parent), 0, |op| {
        growable_exec(&mut cube, d, op)
    });
    run.set_p50("growth.add_ns", GROWTH.update);
    run.set_p50("growth.range_ns", GROWTH.range);

    if durable {
        let mut image = Vec::new();
        let started = Instant::now();
        let bytes = cube.save(&mut image).expect("saving to memory cannot fail");
        run.set("persist.save_s", started.elapsed().as_secs_f64());
        run.set(
            "persist.bytes_per_cell",
            bytes as f64 / cube.populated_cells() as f64,
        );
        let started = Instant::now();
        let loaded =
            GrowableCube::<i64>::load(&mut image.as_slice(), config).expect("own snapshot loads");
        run.set("persist.load_s", started.elapsed().as_secs_f64());
        if loaded.total() != cube.total() {
            run.tally.wrong += 1;
            run.notes
                .push("WRONG: the reloaded snapshot has another total".to_string());
        }
    }
}

fn growable_exec(cube: &mut GrowableCube<i64>, d: usize, op: &Op) -> Reply {
    let (lo, hi) = (i64_point(&op.lo), i64_point(&op.hi));
    match op.kind {
        Kind::Update => {
            cube.add(&hi[..d], i64::from(op.delta));
            Reply::Ack
        }
        _ => Reply::Sum(cube.range_sum(&lo[..d], &hi[..d])),
    }
}

fn backend_exec(backend: &dyn ServeBackend, d: usize, op: &Op) -> Reply {
    let (lo, hi) = (i64_point(&op.lo), i64_point(&op.hi));
    let result = match op.kind {
        Kind::Update => backend
            .update(&hi[..d], i64::from(op.delta))
            .map(|()| Reply::Ack),
        Kind::Prefix => backend.prefix(&hi[..d]).map(Reply::Sum),
        Kind::Range => backend.query(&lo[..d], &hi[..d]).map(Reply::Sum),
    };
    result.unwrap_or(Reply::Refused)
}

/// `server.rtt`: single-request round trips against an in-process
/// `Server` with one worker, over loopback.
fn server_layer(run: &mut Run, backend: Arc<dyn ServeBackend>, nth: usize) -> Result<(), String> {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(backend, config).map_err(|e| format!("in-process server: {e}"))?;
    let outcome = (|| {
        let mut client = Client::connect(&server.local_addr().to_string())?;
        let d = run.spec.dims;
        let mut request = Vec::new();
        let mut failure = None;
        run.replay(SERVER, None, nth, |op| {
            request.clear();
            op.render(d, &mut request);
            match client.send(&request).and_then(|()| client.reply()) {
                Ok(reply) => reply,
                Err(e) => {
                    failure.get_or_insert(e);
                    Reply::Refused
                }
            }
        });
        failure.map_or(Ok(()), Err)
    })();
    server.shutdown();
    run.set_p50("server.rtt_ns", SERVER.update);
    outcome
}

/// `shard.*`, `backend.*`, `server.rtt` for `serve_mixed`: one
/// `ShardedCube` with one shard, replayed at each of its three doors.
fn sharded_stack(run: &mut Run) -> Result<(), String> {
    let d = run.spec.dims;
    let cube = ShardedCube::<i64>::new(
        Shape::cube(d, run.spec.side),
        DdcConfig::default(),
        ShardConfig::with_shards(1),
    );
    for op in &run.preload {
        cube.update(&usize_point(&op.hi)[..d], i64::from(op.delta));
    }
    cube.flush();
    let before = cube.metrics();
    run.replay(SHARD, Some(BACKEND), 0, |op| {
        let (lo, hi) = (usize_point(&op.lo), usize_point(&op.hi));
        match op.kind {
            Kind::Update => match cube.try_update(&hi[..d], i64::from(op.delta)) {
                Ok(()) => Reply::Ack,
                Err(_) => Reply::Refused,
            },
            Kind::Prefix => Reply::Sum(cube.query_prefix(&hi[..d])),
            Kind::Range => Reply::Sum(cube.query(&Region::new(&lo[..d], &hi[..d]))),
        }
    });
    cube.flush();
    let after = cube.metrics();
    let held = after[0].lock_hold_nanos - before[0].lock_hold_nanos;
    let applied = after[0].ops_applied - before[0].ops_applied;
    run.set(
        "shard.flush_ns_per_update",
        held as f64 / applied.max(1) as f64,
    );
    run.set_p50("shard.update_ns", SHARD.update);
    run.set_p50("shard.range_ns", SHARD.range);

    let backend: Arc<dyn ServeBackend> = Arc::new(ShardedBackend::new(cube));
    run.replay(BACKEND, Some(SERVER), 1, |op| {
        backend_exec(backend.as_ref(), d, op)
    });
    run.set_p50("backend.update_ns", BACKEND.update);
    run.set_p50("backend.query_ns", BACKEND.range);
    server_layer(run, backend, 2)
}

/// I/O counts of a [`Counting`] file.
#[derive(Default)]
struct IoCounts {
    writes: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
}

/// A `VfsFile` that counts the writes and syncs passing through it.
struct Counting<F> {
    inner: F,
    // Relaxed everywhere: plain statistics, read after the replay.
    counts: Arc<IoCounts>,
}

impl<F: VfsFile> VfsFile for Counting<F> {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(buf)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
    fn len(&mut self) -> std::io::Result<u64> {
        self.inner.len()
    }
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.truncate(len)
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read_at(offset, buf)
    }
}

fn pool_delta(after: &PoolStats, before: &PoolStats) -> (f64, f64, f64, f64) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    (
        hits / (hits + misses).max(1.0),
        (after.evictions - before.evictions) as f64,
        (after.write_backs - before.write_backs) as f64,
        (after.io_retries - before.io_retries) as f64,
    )
}

/// `pager.*`, `wal.*`, `backend.*`, `server.rtt` for
/// `durable_paged_mixed`: one paged `GrowableCube` with the child's
/// `PagerConfig`, replayed bare, then behind a `DurableCube` logging to
/// a counting `MemVfs` file, then behind the backend and the server.
fn durable_stack(run: &mut Run, mem_cap: usize) -> Result<(), String> {
    let d = run.spec.dims;
    let config = DdcConfig::dynamic()
        .with_elision(1)
        .with_paged_leaves(PagerConfig::disk(mem_cap));
    let mut cube = GrowableCube::<i64>::new(d, config);
    cube.enable_paging()
        .map_err(|e| format!("paged twin: {e}"))?;
    for op in &run.preload {
        cube.add(&i64_point(&op.hi)[..d], i64::from(op.delta));
    }
    let before = cube.pool_stats().ok_or("the twin is not paged")?;
    run.replay(PAGER, Some(WAL), 0, |op| growable_exec(&mut cube, d, op));
    let after = cube.pool_stats().ok_or("the twin is not paged")?;
    let (hit_ratio, evictions, write_backs, io_retries) = pool_delta(&after, &before);
    let n = run.ops.len() as f64;
    run.set("pager.hit_ratio", hit_ratio);
    run.set("pager.evictions_per_op", evictions / n);
    run.set("pager.writebacks_per_op", write_backs / n);
    run.set("pager.io_retries", io_retries);
    run.set_p50("pager.add_ns", PAGER.update);
    run.set_p50("pager.range_ns", PAGER.range);
    run.notes.push(format!(
        "pool cap {} pages of {} B, {} resident; hit ratio {hit_ratio:.3} over the replay",
        after.cap_pages, after.page_bytes, after.resident_pages
    ));

    let counts = Arc::new(IoCounts::default());
    let file = MemVfs::new()
        .open("wal.log", OpenMode::Create)
        .map_err(|e| format!("MemVfs: {e}"))?;
    let sink = Counting {
        inner: file,
        counts: Arc::clone(&counts),
    };
    let mut durable = DurableCube::from_recovered(cube, sink).map_err(|e| format!("wal: {e}"))?;
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let (writes, bytes, syncs) = (
        load(&counts.writes),
        load(&counts.bytes),
        load(&counts.syncs),
    );
    run.replay(WAL, Some(BACKEND), 1, |op| {
        let (lo, hi) = (i64_point(&op.lo), i64_point(&op.hi));
        match op.kind {
            Kind::Update => match durable.add(&hi[..d], i64::from(op.delta)) {
                Ok(()) => Reply::Ack,
                Err(_) => Reply::Refused,
            },
            _ => Reply::Sum(durable.cube().range_sum(&lo[..d], &hi[..d])),
        }
    });
    let updates = run
        .ops
        .iter()
        .filter(|op| op.kind == Kind::Update)
        .count()
        .max(1) as f64;
    run.set(
        "vfs.writes_per_update",
        (load(&counts.writes) - writes) / updates,
    );
    run.set(
        "wal.bytes_per_update",
        (load(&counts.bytes) - bytes) / updates,
    );
    run.set(
        "wal.syncs_per_update",
        (load(&counts.syncs) - syncs) / updates,
    );
    run.set_p50("wal.add_ns", WAL.update);

    let backend: Arc<dyn ServeBackend> =
        Arc::new(DurableBackend::new(SharedDurableCube::from_cube(durable)));
    run.replay(BACKEND, Some(SERVER), 2, |op| {
        backend_exec(backend.as_ref(), d, op)
    });
    run.set_p50("backend.update_ns", BACKEND.update);
    run.set_p50("backend.query_ns", BACKEND.range);
    server_layer(run, backend, 3)
}

/// `http.parse`, `protocol.decode`, `admission.check`: the steps a
/// request takes between the socket and the backend, fed the
/// pre-rendered wire bytes of each op.
fn wire_parts(run: &mut Run) {
    let d = run.spec.dims;
    let mut parser = RequestParser::new(ParserConfig::default());
    let admission = Admission::new(AdmissionConfig::default());
    let epoch = Instant::now();
    let mut request = Vec::new();
    run.log.reserve(3 * run.ops.len());
    for (i, op) in run.ops.iter().enumerate() {
        let (i, parent) = (i as u32, Some(SERVER.update));
        request.clear();
        op.render(d, &mut request);
        let frame = run.log.record("http.parse", parent, i, || {
            parser.feed(&request);
            parser.poll()
        });
        let Ok(Some(frame)) = frame else {
            run.tally.failed += 1;
            continue;
        };
        if run
            .log
            .record("protocol.decode", parent, i, || protocol::decode(&frame))
            .is_err()
        {
            run.tally.failed += 1;
        }
        let admitted = run.log.record("admission.check", parent, i, || {
            admission.admit("default", epoch.elapsed().as_nanos() as u64)
        });
        if !admitted {
            run.tally.failed += 1;
        }
    }
    run.tally.attempted += run.ops.len() as u64;
    run.set_p50("http.parse_ns", "http.parse");
    run.set_p50("protocol.decode_ns", "protocol.decode");
    run.set_p50("admission.check_ns", "admission.check");
}

/// Self times: a layer's median minus the median of what it calls, on
/// the same ops.
fn derived(run: &mut Run) {
    let p50 = |run: &Run, span: &str| run.log.p50_ns(span);
    let engine_self = self_ns(p50(run, ENGINE.update), p50(run, TREE.update));
    run.set("engine.self_update_ns", engine_self as f64);
    if run.values.contains_key("wal.add_ns") {
        let wal_self = self_ns(p50(run, WAL.update), p50(run, PAGER.update));
        run.set("wal.self_add_ns", wal_self as f64);
    }
    if run.values.contains_key("server.rtt_ns") {
        // The mix's own median round trip, less the medians of the
        // steps inside it.
        let mut inside: Vec<u64> = Vec::new();
        for name in [BACKEND.update, BACKEND.prefix, BACKEND.range] {
            inside.extend(run.log.durations(name));
        }
        let steps = p50(run, "http.parse")
            + p50(run, "protocol.decode")
            + p50(run, "admission.check")
            + quantile(&mut inside, 0.5);
        run.set(
            "server.self_ns",
            self_ns(p50(run, SERVER.update), steps) as f64,
        );
    }
}

// ---------------------------------------------------------------------
// The `ddc serve` children of the traced run
// ---------------------------------------------------------------------

/// The value of `name{quantile="0.5"}` in a `/metrics` scrape.
fn scraped_p50(metrics: &str, name: &str) -> f64 {
    let key = format!("{name}_ns{{quantile=\"0.5\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&key)?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// One `ddc serve` child of the traced run, with its own connection,
/// op stream, oracle and tally.
struct Served {
    child: Child,
    wire: Wire,
    stream: OpStream,
    oracle: Fenwick,
    tally: Tally,
    rates: Vec<f64>,
}

impl Served {
    /// Starts a child with `DDC_OBS=obs` and preloads it.
    fn start(spec: Spec, seed: u64, dir: Option<&Path>, obs: &str) -> Result<Served, String> {
        let (child, wire) = start_child(&spec, dir, Some(obs))?;
        let mut served = Served {
            child,
            wire,
            stream: OpStream::new(spec, seed),
            oracle: Fenwick::new(spec.dims, spec.side),
            tally: Tally::default(),
            rates: Vec::new(),
        };
        let preload: Vec<Op> = served.stream.preload().collect();
        served
            .wire
            .preload(&preload, &mut served.oracle, &mut served.tally)?;
        Ok(served)
    }

    /// One burst of `n` ops of the mix; records its rate.
    fn burst(&mut self, n: usize) -> Result<(), String> {
        let (mut ops, mut replies) = (Vec::new(), Vec::new());
        self.stream.fill(&mut ops, n);
        let nanos = self.wire.burst(&ops, &mut replies)?;
        self.rates
            .push(ops.len() as f64 * 1e9 / nanos.max(1) as f64);
        check(&mut self.oracle, &ops, &replies, &mut self.tally);
        Ok(())
    }
}

/// `obs.*` and `child.*`: two children like the end-to-end run's, one
/// with the program's own timers off and one with them on, served
/// [`CHILD_ROUNDS`] bursts each, taking turns so that both see the same
/// machine (the idle one sleeps in `read`). The second one's `/metrics`
/// says where work waited and where it was busy.
fn children(run: &mut Run, args: &Args, scratch: Option<&ScratchDir>) -> Result<(), String> {
    let spec = run.spec;
    let sub = |name: &str| -> Result<Option<std::path::PathBuf>, String> {
        let Some(scratch) = scratch else {
            return Ok(None);
        };
        let dir = scratch.path().join(name);
        std::fs::create_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Some(dir))
    };
    let dir = sub("obs-on")?;
    let mut untimed = Served::start(spec, args.seed, sub("obs-off")?.as_deref(), "off")?;
    let mut timed = Served::start(spec, args.seed, dir.as_deref(), "1")?;
    for _ in 0..CHILD_ROUNDS {
        untimed.burst(spec.cycle_for(args.seconds).mixed)?;
        timed.burst(spec.cycle_for(args.seconds).mixed)?;
    }
    run.tally.absorb(&untimed.tally);
    run.set(
        "obs.overhead_ratio",
        median(&untimed.rates) / median(&timed.rates),
    );
    drop(untimed);

    let metrics = timed.wire.client().http_get("/metrics")?;
    for (name, scraped) in [
        ("obs.engine.update.p50_ns", "ddc_engine_update_dynamic_ddc"),
        ("obs.shard.queue_wait.p50_ns", "ddc_shard_queue_wait"),
        ("obs.shard.commit.p50_ns", "ddc_shard_commit"),
        ("obs.wal.append.p50_ns", "ddc_wal_append"),
        ("obs.wal.fsync.p50_ns", "ddc_wal_fsync"),
    ] {
        run.set(name, scraped_p50(&metrics, scraped));
    }

    if let Some(dir) = dir {
        // Durable: what the log cost per acknowledged update, then
        // SIGKILL and a restart on the same directory, checked against
        // the oracle.
        let wal = dir.join("wal.log");
        let wal_bytes = std::fs::metadata(&wal)
            .map_err(|e| format!("{}: {e}", wal.display()))?
            .len();
        run.set(
            "child.wal_bytes_per_update",
            wal_bytes as f64 / timed.tally.acked_updates as f64,
        );
        let running = (timed.child, timed.wire);
        let restart_s = restart_check(
            &spec,
            &dir,
            running,
            args.seed,
            &mut timed.oracle,
            &mut timed.tally,
        )?;
        run.set("child.restart_s", restart_s);
    }
    run.tally.absorb(&timed.tally);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let section = json.split_once("\"per_layer\"").expect("section").1;
        for (name, unit) in METRICS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(
                section.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        assert_eq!(section.matches("\"name\"").count(), METRICS.len());
    }

    #[test]
    fn scrape_finds_the_median_of_a_summary() {
        let text = "# TYPE ddc_wal_fsync summary\nddc_wal_fsync_count 9\n\
                    ddc_wal_fsync_ns{quantile=\"0.5\"} 199\nddc_wal_fsync_ns{quantile=\"0.9\"} 400";
        assert_eq!(scraped_p50(text, "ddc_wal_fsync"), 199.0);
        assert_eq!(scraped_p50(text, "ddc_wal_append"), 0.0);
    }
}
