//! `ddc-bench-e2e --workload W --seed N --seconds N --trace 0` — the
//! end-to-end metrics of one workload, measured with tracing off.
//!
//! Binds only to the stable surfaces named in the library docs.

use std::path::Path;
use std::time::Instant;

use ddc_array::RangeSumEngine;
use ddc_benchmark::cli::{self, Args};
use ddc_benchmark::drive::{check, restart_check, start_child, InProcess, Target};
use ddc_benchmark::ops::{Kind, Op, OpStream};
use ddc_benchmark::oracle::Fenwick;
use ddc_benchmark::report::{self, Metric, Tally};
use ddc_benchmark::served::{self, Reply, ScratchDir};
use ddc_benchmark::spec::{self, CycleOps, Spec, ROUNDS, SETUPS};
use ddc_benchmark::stats::{median, Cycle, Rounds, Singles};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `run` has returned, and so dropped every child and directory,
    // before the process exits.
    let code = match cli::parse(&args, false).and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("ddc-bench-e2e: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// The end-to-end metrics of `BENCHMARK.json`, with their units; every
/// workload reports all of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("update_us", "us"),
    ("query_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// What a run reports besides the contract's five metrics.
#[derive(Default)]
struct Extras {
    notes: Vec<String>,
    diagnostics: Vec<Metric>,
}

/// Runs one workload and prints its result; `Ok(false)` if an operation
/// failed or an answer was wrong.
fn run(args: Args) -> Result<bool, String> {
    served::ensure_no_stray_server()?;
    let mut tally = Tally::default();
    let mut extras = Extras::default();
    let started = Instant::now();
    let (setups, rounds, peak_rss_mib) = match args.spec.target {
        spec::Target::InProcess => run_in_process(&args, &mut tally, &mut extras)?,
        _ => run_served(&args, &mut tally, &mut extras)?,
    };
    extras.notes.push(format!("set-ups took {setups:.3?} s"));
    extras.notes.push(format!(
        "{} cycles, whole run {:.1} s",
        rounds.cycles.len(),
        started.elapsed().as_secs_f64()
    ));
    // Everything timed is reported as on a machine that runs the
    // yardstick at the reference speed; see README, "calibration".
    let ref_ns = args.spec.yardstick_ref_ns;
    let yardstick_ns = rounds.yardstick_ns();
    let timings = rounds.calibrated(ref_ns);
    let raw = rounds.raw();
    let values = [
        median(&setups) * ref_ns / yardstick_ns,
        timings.ops_per_s,
        timings.update_us,
        timings.query_us,
        peak_rss_mib,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    extras.diagnostics.extend([
        Metric::new("e2e.yardstick_ns", yardstick_ns, "ns"),
        Metric::new("e2e.raw.setup_s", median(&setups), "s"),
        Metric::new("e2e.raw.ops_per_s", raw.ops_per_s, "1/s"),
        Metric::new("e2e.raw.update_us", raw.update_us, "us"),
        Metric::new("e2e.raw.query_us", raw.query_us, "us"),
        Metric::new(
            "e2e.update_rtt_p50_us",
            median(&rounds.update_rtt_p50_us),
            "us",
        ),
        Metric::new(
            "e2e.update_rtt_p99_us",
            median(&rounds.update_rtt_p99_us),
            "us",
        ),
        Metric::new(
            "e2e.query_rtt_p50_us",
            median(&rounds.query_rtt_p50_us),
            "us",
        ),
        Metric::new(
            "e2e.query_rtt_p99_us",
            median(&rounds.query_rtt_p99_us),
            "us",
        ),
    ]);
    report::print(
        args.spec.name,
        &extras.notes,
        &extras.diagnostics,
        &tally,
        &metrics,
    );
    Ok(tally.clean())
}

/// The measured part: [`ROUNDS`] cycles of a mixed burst, an update
/// burst, a range-sum burst and a stretch of single ops, so that all
/// four see the same machine state. Ops are generated, and answers
/// checked, outside the timers; the time the oracle takes to check a
/// cycle's ops is that cycle's yardstick.
fn measure(
    target: &mut impl Target,
    stream: &mut OpStream,
    oracle: &mut Fenwick,
    tally: &mut Tally,
    sizes: CycleOps,
) -> Result<Rounds, String> {
    let mut rounds = Rounds::default();
    let mut samples = Singles::default();
    let (mut ops, mut replies): (Vec<Op>, Vec<Reply>) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut yardstick_ns = 0u128;
        let mut checked = |ops: &[Op], replies: &[Reply], tally: &mut Tally| {
            let started = Instant::now();
            check(oracle, ops, replies, tally);
            yardstick_ns += started.elapsed().as_nanos();
        };
        let mut per_op_ns = [0.0; 3];
        let bursts = [
            (None, sizes.mixed),
            (Some(Kind::Update), sizes.updates),
            (Some(Kind::Range), sizes.ranges),
        ];
        for (slot, (kind, n)) in per_op_ns.iter_mut().zip(bursts) {
            match kind {
                None => stream.fill(&mut ops, n),
                Some(kind) => stream.fill_kind(&mut ops, n, kind),
            }
            replies.clear();
            *slot = target.burst(&ops, &mut replies)? as f64 / n as f64;
            checked(&ops, &replies, tally);
        }

        stream.fill(&mut ops, sizes.singles);
        replies.clear();
        samples.clear();
        target.singles(&ops, &mut replies, &mut samples)?;
        rounds.push_singles(&mut samples);
        checked(&ops, &replies, tally);

        let cycle_ops = sizes.mixed + sizes.updates + sizes.ranges + sizes.singles;
        rounds.cycles.push(Cycle {
            mixed_ns: per_op_ns[0],
            update_ns: per_op_ns[1],
            range_ns: per_op_ns[2],
            yardstick_ns: yardstick_ns as f64 / cycle_ops as f64,
        });
    }
    Ok(rounds)
}

fn describe(spec: &Spec, sizes: CycleOps, extras: &mut Extras) {
    let updates = sizes.singles * spec.update_pct as usize / 100;
    let ranges = sizes.singles * (100 - spec.update_pct - spec.prefix_pct) as usize / 100;
    extras.notes.push(format!(
        "d={} side={} preload={}; per cycle {} mixed + {} updates + {} ranges in bursts, {} singles \
         (about {updates} update and {ranges} range samples behind each cycle's rtt p50 and p99)",
        spec.dims, spec.side, spec.preload, sizes.mixed, sizes.updates, sizes.ranges, sizes.singles
    ));
}

fn run_in_process(
    args: &Args,
    tally: &mut Tally,
    extras: &mut Extras,
) -> Result<(Vec<f64>, Rounds, f64), String> {
    let spec = args.spec;
    let sizes = spec.cycle_for(args.seconds);
    describe(&spec, sizes, extras);
    let mut stream = OpStream::new(spec, args.seed);
    let preload: Vec<Op> = stream.preload().collect();
    let mut oracle = Fenwick::new(spec.dims, spec.side);
    for op in &preload {
        oracle.apply(op);
    }

    let mut setups = Vec::new();
    let mut target = None;
    for _ in 0..SETUPS {
        drop(target.take());
        let started = Instant::now();
        target = Some(InProcess::set_up(&spec, &preload));
        setups.push(started.elapsed().as_secs_f64());
        tally.attempted += spec.preload as u64;
    }
    let mut target = target.expect("SETUPS is at least one");

    let rounds = measure(&mut target, &mut stream, &mut oracle, tally, sizes)?;

    let engine = target.engine();
    extras.diagnostics.push(Metric::new(
        "e2e.bytes_per_cell",
        engine.heap_bytes() as f64 / engine.populated_cells() as f64,
        "B",
    ));
    let rss = served::peak_rss_mib(std::process::id())?;
    Ok((setups, rounds, rss))
}

fn run_served(
    args: &Args,
    tally: &mut Tally,
    extras: &mut Extras,
) -> Result<(Vec<f64>, Rounds, f64), String> {
    let durable = matches!(args.spec.target, spec::Target::Durable { .. });
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = |tag: &str| {
        durable
            .then(|| ScratchDir::create(&fallback, tag))
            .transpose()
    };

    // Declared before the server, so the server is killed before its
    // directory is removed — on return and on unwind.
    let mut dir = scratch("0")?;
    let tmpfs = dir.as_ref().map(|d| d.tmpfs).unwrap_or(true);
    let spec = if tmpfs {
        args.spec
    } else {
        args.spec.off_tmpfs()
    };
    if durable {
        extras.notes.push(format!("tmpfs={tmpfs}"));
    }
    let sizes = spec.cycle_for(args.seconds);
    describe(&spec, sizes, extras);
    let mut stream = OpStream::new(spec, args.seed);
    let preload: Vec<Op> = stream.preload().collect();
    let mut oracle = Fenwick::new(spec.dims, spec.side);

    let mut setups = Vec::new();
    let mut running = None;
    let mut acked_before = 0;
    for i in 0..SETUPS {
        acked_before = tally.acked_updates;
        if i > 0 {
            drop(running.take());
            dir = scratch(&i.to_string())?;
            oracle = Fenwick::new(spec.dims, spec.side);
        }
        let started = Instant::now();
        let (server, mut wire) = start_child(&spec, dir.as_ref().map(ScratchDir::path), None)?;
        wire.preload(&preload, &mut oracle, tally)?;
        setups.push(started.elapsed().as_secs_f64());
        running = Some((server, wire));
    }
    let (server, mut wire) = running.expect("SETUPS is at least one");

    let rounds = measure(&mut wire, &mut stream, &mut oracle, tally, sizes)?;
    let rss = served::peak_rss_mib(server.pid())?;

    if let Some(dir) = &dir {
        let wal = dir.path().join("wal.log");
        let wal_bytes = std::fs::metadata(&wal)
            .map_err(|e| format!("{}: {e}", wal.display()))?
            .len();
        let logged = tally.acked_updates - acked_before;
        extras.diagnostics.push(Metric::new(
            "e2e.wal_bytes_per_update",
            wal_bytes as f64 / logged as f64,
            "B",
        ));
        let restart_s = restart_check(
            &spec,
            dir.path(),
            (server, wire),
            args.seed,
            &mut oracle,
            tally,
        )?;
        extras
            .diagnostics
            .push(Metric::new("e2e.restart_s", restart_s, "s"));
    }
    Ok((setups, rounds, rss))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_end_to_end_metrics_and_workloads() {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let section = json
            .split_once("\"end_to_end\"")
            .and_then(|(_, rest)| rest.split_once("\"per_layer\""))
            .expect("both sections")
            .0;
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(
                section.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        assert_eq!(section.matches("\"name\"").count(), END_TO_END.len());
        for w in spec::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)));
        }
        assert!(json.contains(&format!("\"run_seconds\": {},", spec::BASE_SECONDS)));
    }
}
