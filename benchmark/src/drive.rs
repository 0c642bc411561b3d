//! Closed-loop drivers: one caller, one op in flight (or, in a burst on
//! the wire, two pipelined batches), against an in-process engine or a
//! `ddc serve` child.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_core::{DdcConfig, DdcEngine};

use crate::ops::{Kind, Op, OpStream, MAX_DIMS};
use crate::oracle::Fenwick;
use crate::report::Tally;
use crate::served::{Client, Reply, Server};
use crate::spec::{self, Spec, RESTART_SAMPLES, WIRE_BATCH};
use crate::stats::Singles;

/// Something ops can be run against. Both methods append one [`Reply`]
/// per op to `replies`, in op order, for [`check`].
pub trait Target {
    /// Runs `ops` back to back — on the wire, pipelined in batches of
    /// [`WIRE_BATCH`] with two in flight — timing only the whole burst;
    /// returns its duration in nanoseconds.
    fn burst(&mut self, ops: &[Op], replies: &mut Vec<Reply>) -> Result<u64, String>;

    /// Runs `ops` one at a time, timing each as its caller sees it: a
    /// function call in process, a single-request round trip on the
    /// wire.
    fn singles(
        &mut self,
        ops: &[Op],
        replies: &mut Vec<Reply>,
        samples: &mut Singles,
    ) -> Result<(), String>;
}

/// Feeds `ops` and their `replies` to the oracle: acknowledged updates
/// are applied to it, every sum is compared with it, refusals count as
/// failures (and leave the oracle untouched, as they left the cube).
pub fn check(oracle: &mut Fenwick, ops: &[Op], replies: &[Reply], tally: &mut Tally) {
    assert_eq!(ops.len(), replies.len(), "one reply per op");
    tally.attempted += ops.len() as u64;
    for (op, reply) in ops.iter().zip(replies) {
        match (op.kind, reply) {
            (_, Reply::Refused) => tally.failed += 1,
            (Kind::Update, Reply::Ack) => {
                oracle.apply(op);
                tally.acked_updates += 1;
            }
            (Kind::Prefix | Kind::Range, Reply::Sum(got)) if oracle.apply(op) == Some(*got) => {}
            _ => tally.wrong += 1,
        }
    }
}

fn record(samples: &mut Singles, kind: Kind, nanos: u64) {
    match kind {
        Kind::Update => samples.update_ns.push(nanos),
        Kind::Range => samples.range_ns.push(nanos),
        Kind::Prefix => {}
    }
}

/// A `DdcEngine::<i64>` with the default dynamic configuration, called
/// directly.
pub struct InProcess {
    engine: DdcEngine<i64>,
    dims: usize,
}

impl InProcess {
    /// Builds the engine for `spec` and applies `preload` to it.
    pub fn set_up(spec: &Spec, preload: &[Op]) -> Self {
        let engine =
            DdcEngine::with_config(Shape::cube(spec.dims, spec.side), DdcConfig::dynamic());
        let mut target = Self {
            engine,
            dims: spec.dims,
        };
        for op in preload {
            target.exec(op);
        }
        target
    }

    /// The engine, for the space metrics.
    pub fn engine(&self) -> &DdcEngine<i64> {
        &self.engine
    }

    /// Gives up the engine.
    pub fn into_engine(self) -> DdcEngine<i64> {
        self.engine
    }

    /// Runs one op as a caller of the engine would.
    #[inline]
    pub fn exec(&mut self, op: &Op) -> Reply {
        let lo: [usize; MAX_DIMS] = op.lo.map(|c| c as usize);
        let hi: [usize; MAX_DIMS] = op.hi.map(|c| c as usize);
        let (lo, hi) = (&lo[..self.dims], &hi[..self.dims]);
        match op.kind {
            Kind::Update => {
                self.engine.apply_delta(hi, i64::from(op.delta));
                Reply::Ack
            }
            Kind::Prefix => Reply::Sum(self.engine.prefix_sum(hi)),
            Kind::Range => Reply::Sum(self.engine.range_sum(&Region::new(lo, hi))),
        }
    }
}

impl Target for InProcess {
    fn burst(&mut self, ops: &[Op], replies: &mut Vec<Reply>) -> Result<u64, String> {
        replies.reserve(ops.len());
        let start = Instant::now();
        for op in ops {
            replies.push(black_box(self.exec(black_box(op))));
        }
        Ok(start.elapsed().as_nanos() as u64)
    }

    fn singles(
        &mut self,
        ops: &[Op],
        replies: &mut Vec<Reply>,
        samples: &mut Singles,
    ) -> Result<(), String> {
        replies.reserve(ops.len());
        for op in ops {
            let start = Instant::now();
            let reply = black_box(self.exec(black_box(op)));
            let nanos = start.elapsed().as_nanos() as u64;
            record(samples, op.kind, nanos);
            replies.push(reply);
        }
        Ok(())
    }
}

/// A line-protocol connection to a `ddc serve` child.
pub struct Wire {
    client: Client,
    dims: usize,
    /// Request bytes of the current round, rendered before the timer
    /// starts, and where each op (latency) or batch (throughput) ends.
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Wire {
    /// Wraps an open connection to a cube of `dims` dimensions.
    pub fn new(client: Client, dims: usize) -> Self {
        Self {
            client,
            dims,
            bytes: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// The connection, for requests outside the rounds.
    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Renders `ops`, marking an end after every `per_chunk` ops.
    fn render(&mut self, ops: &[Op], per_chunk: usize) {
        self.bytes.clear();
        self.ends.clear();
        for chunk in ops.chunks(per_chunk) {
            for op in chunk {
                op.render(self.dims, &mut self.bytes);
            }
            self.ends.push(self.bytes.len());
        }
    }

    /// Sends the `i`-th rendered chunk.
    fn send_chunk(&mut self, i: usize) -> Result<(), String> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        self.client.send(&self.bytes[start..self.ends[i]])
    }

    /// Sends `ops` in pipelined batches of [`WIRE_BATCH`], two in
    /// flight, and collects one reply per op.
    fn pipeline(&mut self, ops: &[Op], replies: &mut Vec<Reply>) -> Result<u64, String> {
        self.render(ops, WIRE_BATCH);
        replies.reserve(ops.len());
        let batches = self.ends.len();
        let start = Instant::now();
        for i in 0..batches.min(2) {
            self.send_chunk(i)?;
        }
        for (i, batch) in ops.chunks(WIRE_BATCH).enumerate() {
            for _ in batch {
                replies.push(self.client.reply()?);
            }
            if i + 2 < batches {
                self.send_chunk(i + 2)?;
            }
        }
        Ok(start.elapsed().as_nanos() as u64)
    }

    /// Applies `preload` over the wire (pipelined), feeding the oracle.
    pub fn preload(
        &mut self,
        preload: &[Op],
        oracle: &mut Fenwick,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut replies = Vec::new();
        self.pipeline(preload, &mut replies)?;
        check(oracle, preload, &replies, tally);
        Ok(())
    }
}

impl Target for Wire {
    fn burst(&mut self, ops: &[Op], replies: &mut Vec<Reply>) -> Result<u64, String> {
        self.pipeline(ops, replies)
    }

    fn singles(
        &mut self,
        ops: &[Op],
        replies: &mut Vec<Reply>,
        samples: &mut Singles,
    ) -> Result<(), String> {
        self.render(ops, 1);
        replies.reserve(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let start = Instant::now();
            self.send_chunk(i)?;
            let reply = self.client.reply()?;
            let nanos = start.elapsed().as_nanos() as u64;
            record(samples, op.kind, nanos);
            replies.push(reply);
        }
        Ok(())
    }
}

/// Starts the `ddc serve` child of `spec` — the `ddc` binary that
/// `benchmark/run.sh` builds beside the benchmark's own — and connects
/// to it. A durable workload logs, snapshots and spills under `dir`.
/// `obs`, if given, is the child's `DDC_OBS`; otherwise the child runs
/// as shipped.
pub fn start_child(
    spec: &Spec,
    dir: Option<&Path>,
    obs: Option<&str>,
) -> Result<(Server, Wire), String> {
    let ddc = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("ddc");
    if !ddc.is_file() {
        return Err(format!(
            "{} not found; build with benchmark/run.sh, which puts ddc beside this binary",
            ddc.display()
        ));
    }
    let mut args: Vec<String> = ["--workers", "1"].map(String::from).into();
    let mut env: Vec<(&str, String)> = obs.iter().map(|v| ("DDC_OBS", v.to_string())).collect();
    match (spec.target, dir) {
        (spec::Target::Durable { mem_cap }, Some(dir)) => {
            let dir = dir.display().to_string();
            // The pager's spill file goes where the WAL goes.
            env.push(("TMPDIR", dir.clone()));
            args.extend(["--durable".to_string(), dir]);
            args.extend(["--dims".to_string(), spec.dims.to_string()]);
            args.extend(["--mem-cap".to_string(), mem_cap.to_string()]);
        }
        _ => {
            args.extend(["--side".to_string(), spec.side.to_string()]);
            args.extend(["--shards".to_string(), "1".to_string()]);
        }
    }
    let server = Server::spawn(&ddc, &args, &env)?;
    let wire = Wire::new(server.connect()?, spec.dims);
    Ok((server, wire))
}

/// Keeps the post-restart sample queries apart from the measured stream.
const RESTART_SEED: u64 = 0x5EED_0002;

/// SIGKILLs the durable child, starts another on the same directory and
/// checks that everything acknowledged is still there: the whole-cube
/// sum and [`RESTART_SAMPLES`] ranges must equal the oracle's. Returns
/// the time from the kill to the first reply, in seconds.
pub fn restart_check(
    spec: &Spec,
    dir: &Path,
    (server, wire): (Server, Wire),
    seed: u64,
    oracle: &mut Fenwick,
    tally: &mut Tally,
) -> Result<f64, String> {
    drop(wire);
    drop(server);

    let started = Instant::now();
    let (_server, mut wire) = start_child(spec, Some(dir), None)?;
    let mut hi = [0; MAX_DIMS];
    hi[..spec.dims].fill(spec.side as u32 - 1);
    let mut samples = vec![Op {
        kind: Kind::Range,
        lo: [0; MAX_DIMS],
        hi,
        delta: 0,
    }];
    let mut replies = Vec::new();
    wire.pipeline(&samples, &mut replies)?;
    let restart_s = started.elapsed().as_secs_f64();
    check(oracle, &samples, &replies, tally);

    let queries = Spec {
        update_pct: 0,
        prefix_pct: 0,
        ..*spec
    };
    OpStream::new(queries, seed ^ RESTART_SEED).fill(&mut samples, RESTART_SAMPLES);
    replies.clear();
    wire.pipeline(&samples, &mut replies)?;
    check(oracle, &samples, &replies, tally);
    Ok(restart_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Target as Where, WORKLOADS};

    fn small(dims: usize) -> Spec {
        Spec {
            name: "test",
            target: Where::InProcess,
            dims,
            side: 16,
            preload: 300,
            update_pct: 40,
            prefix_pct: 20,
            ..WORKLOADS[0]
        }
    }

    #[test]
    fn in_process_rounds_agree_with_the_oracle_in_every_rank() {
        for dims in 1..=MAX_DIMS {
            let spec = small(dims);
            let mut stream = OpStream::new(spec, 42);
            let mut oracle = Fenwick::new(spec.dims, spec.side);
            for op in stream.preload() {
                oracle.apply(&op);
            }
            let preload: Vec<Op> = stream.preload().collect();
            let mut target = InProcess::set_up(&spec, &preload);
            let mut tally = Tally::default();
            let (mut ops, mut replies) = (Vec::new(), Vec::new());
            let mut samples = Singles::default();

            stream.fill(&mut ops, 500);
            assert!(target.burst(&ops, &mut replies).expect("runs") > 0);
            check(&mut oracle, &ops, &replies, &mut tally);

            stream.fill(&mut ops, 500);
            replies.clear();
            target
                .singles(&ops, &mut replies, &mut samples)
                .expect("runs");
            check(&mut oracle, &ops, &replies, &mut tally);

            assert_eq!(
                (tally.attempted, tally.failed, tally.wrong),
                (1000, 0, 0),
                "d={dims}"
            );
            let updates = ops.iter().filter(|o| o.kind == Kind::Update).count();
            let ranges = ops.iter().filter(|o| o.kind == Kind::Range).count();
            assert_eq!(
                (samples.update_ns.len(), samples.range_ns.len()),
                (updates, ranges)
            );
        }
    }

    #[test]
    fn check_counts_refusals_and_wrong_answers_apart() {
        let spec = WORKLOADS[2];
        let mut oracle = Fenwick::new(spec.dims, spec.side);
        let op = |kind, hi, delta| Op {
            kind,
            lo: [0; MAX_DIMS],
            hi,
            delta,
        };
        let ops = [
            op(Kind::Update, [1, 1, 0], 5),
            op(Kind::Update, [2, 2, 0], 7),
            op(Kind::Prefix, [9, 9, 0], 0),
            op(Kind::Prefix, [9, 9, 0], 0),
            op(Kind::Range, [9, 9, 0], 0),
            op(Kind::Update, [3, 3, 0], 1),
        ];
        // The second update is refused, so the right sum is 5; one reply
        // says 12, one query is refused, one update gets a sum back.
        let replies = [
            Reply::Ack,
            Reply::Refused,
            Reply::Sum(5),
            Reply::Sum(12),
            Reply::Refused,
            Reply::Sum(0),
        ];
        let mut tally = Tally::default();
        check(&mut oracle, &ops, &replies, &mut tally);
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (6, 2, 2));
        assert_eq!(oracle.total(), 5);
    }
}
