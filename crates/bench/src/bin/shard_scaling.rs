//! Shard-scaling sweep: aggregate read throughput of the [`ShardedCube`]
//! against the single-lock [`SharedCube`] baseline under §1's deployment
//! mix — analysts issuing drill-down slice queries while a live feed
//! applies point updates.
//!
//! The feed is **open loop**: a paced stream of single records at a fixed
//! target rate that both engines must sustain, skewed toward a small hot
//! set (best-seller cells). The engines differ only in protocol:
//!
//! * `SharedCube` applies each record under the global write lock as it
//!   arrives (the S32 per-op protocol);
//! * `ShardedCube` commits each record to the owning shard's cube under
//!   that shard's write lock before acknowledging it, so readers of the
//!   other shards never wait on it.
//!
//! The feed has priority (a lagging feed backs up without bound), so the
//! readers run under admission control: while the writer is behind its
//! schedule they shed queries and yield the CPU. Whatever the commits do
//! not burn is what the four reader threads keep — cheaper commits buy
//! aggregate read throughput directly.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin shard_scaling
//! cargo run --release -p ddc-bench --bin shard_scaling -- --wal
//! ```
//!
//! `--wal` runs the durability-cost sweep instead: the same hot-skewed
//! feed applied closed-loop to a growable cube with and without the
//! write-ahead log, quantifying what crash safety charges per record.
//!
//! A printed experiment, not a gate: the tables are wall-clock on
//! whatever machine runs them. It stays until `benchmark/` measures
//! `--shards` itself (ROADMAP item 1).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ddc_array::{Region, Shape};
use ddc_core::{DdcConfig, DurableCube, GrowableCube, ShardConfig, ShardedCube, SharedCube};
use ddc_workload::{rng, uniform_updates, DdcRng};

const N: usize = 1024;
const READERS: usize = 4;
const RUN: Duration = Duration::from_millis(300);
/// Records per pacing tick of the open-loop feed.
const TICK: usize = 256;
/// Hot-set size and skew of the feed (most records hit a few cells).
const HOT_CELLS: usize = 32;
const HOT_PERCENT: usize = 95;
/// Feed rates swept per engine, records/s (0 = read-only).
const RATES: [u64; 3] = [0, 100_000, 250_000];
/// How long a shed reader sleeps before re-checking the lag flag.
const SHED: Duration = Duration::from_micros(200);

struct Score {
    queries_per_s: f64,
    updates_per_s: f64,
}

/// Runs [`drive_once`] twice and keeps the pass with the higher read
/// throughput — scheduling noise only ever subtracts.
fn drive(
    query: impl Fn(usize) + Sync,
    writer: impl Fn(&AtomicBool, &AtomicBool) -> u64 + Sync,
) -> Score {
    let a = drive_once(&query, &writer);
    let b = drive_once(&query, &writer);
    if a.queries_per_s >= b.queries_per_s {
        a
    } else {
        b
    }
}

/// Drives [`READERS`] closed-loop query threads plus one writer thread
/// (which runs `writer` to completion, returning records applied).
fn drive_once(
    query: impl Fn(usize) + Sync,
    writer: impl Fn(&AtomicBool, &AtomicBool) -> u64 + Sync,
) -> Score {
    let stop = AtomicBool::new(false);
    let lagging = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let updates = AtomicU64::new(0);
    let (stop_r, lag_r, q_r, u_r) = (&stop, &lagging, &queries, &updates);
    let (query, writer) = (&query, &writer);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(move || {
                let mut i = 0usize;
                while !stop_r.load(Ordering::Relaxed) {
                    // Admission control: the feed must not back up, so
                    // queries are shed while the writer lags its schedule.
                    if lag_r.load(Ordering::Relaxed) {
                        std::thread::sleep(SHED);
                        continue;
                    }
                    query(i);
                    i += 1;
                    q_r.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        s.spawn(move || {
            u_r.store(writer(stop_r, lag_r), Ordering::Relaxed);
        });
        // Sleep, don't spin: on small machines a spinning coordinator
        // steals a whole core-share from the measured threads.
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Relaxed);
    });

    let secs = RUN.as_secs_f64();
    Score {
        queries_per_s: queries.load(Ordering::Relaxed) as f64 / secs,
        updates_per_s: updates.load(Ordering::Relaxed) as f64 / secs,
    }
}

/// Paces `apply` at `rate` records/s in [`TICK`]-record bursts on an
/// absolute schedule (no drift); returns the records actually applied.
/// Raises `lagging` whenever the feed is behind schedule so the readers
/// shed load until it catches up.
fn paced_feed(
    stop: &AtomicBool,
    lagging: &AtomicBool,
    rate: u64,
    mut apply: impl FnMut(usize),
) -> u64 {
    if rate == 0 {
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5));
        }
        return 0;
    }
    let period = Duration::from_secs_f64(TICK as f64 / rate as f64);
    let mut next = Instant::now() + period;
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..TICK {
            apply(i);
            i += 1;
        }
        let now = Instant::now();
        if now < next {
            lagging.store(false, Ordering::Relaxed);
            std::thread::sleep(next - now);
        } else {
            lagging.store(true, Ordering::Relaxed);
        }
        next += period;
    }
    lagging.store(false, Ordering::Relaxed);
    i as u64
}

/// A feed skewed toward a small hot set: [`HOT_PERCENT`]% of records hit
/// one of [`HOT_CELLS`] cells, the rest are uniform.
fn hot_feed(shape: &Shape, len: usize, r: &mut DdcRng) -> Vec<(Vec<usize>, i64)> {
    let dims = shape.dims().to_vec();
    let hot: Vec<Vec<usize>> = (0..HOT_CELLS)
        .map(|_| dims.iter().map(|&n| r.gen_range(0..n)).collect())
        .collect();
    (0..len)
        .map(|_| {
            let p = if r.gen_range(0usize..100) < HOT_PERCENT {
                hot[r.gen_range(0..HOT_CELLS)].clone()
            } else {
                dims.iter().map(|&n| r.gen_range(0..n)).collect()
            };
            (p, r.gen_range(-100i64..=100))
        })
        .collect()
}

/// Drill-down slices: a narrow dimension-0 range (≤ `max_span` rows) over
/// the full extent of dimension 1.
fn slice_regions(max_span: usize, count: usize, r: &mut DdcRng) -> Vec<Region> {
    (0..count)
        .map(|_| {
            let span = r.gen_range(1..=max_span);
            let lo = r.gen_range(0..N - span);
            Region::new(&[lo, 0], &[lo + span - 1, N - 1])
        })
        .collect()
}

fn print_row(label: &str, rate: u64, score: &Score) {
    let feed = if rate == 0 {
        "read-only ".to_string()
    } else {
        format!("{:>6}/s  ", rate)
    };
    println!(
        "{label:<16} feed {feed} {:>9.0} queries/s  {:>9.0} applied/s",
        score.queries_per_s, score.updates_per_s
    );
}

/// WAL-on vs WAL-off update throughput: the same 200k-record hot feed
/// applied to a growable cube, once in memory only and then with every
/// record appended and synced to a log file *before* the apply (the
/// acknowledgement protocol) — a sync per record, per 16 and per 256.
/// Since the vfs seam, an acked append is a real `sync_data` barrier on
/// `std::fs::File` — `Ok` means the bytes survive power loss, and the
/// retry/degrade protocol above the format (S44) assumes the barrier is
/// honest.
fn wal_bench() {
    const WN: usize = 256;
    const OPS: usize = 200_000;
    let shape = Shape::cube(2, WN);
    let feed: Vec<(Vec<i64>, i64)> = hot_feed(&shape, OPS, &mut rng(9))
        .into_iter()
        .map(|(p, v)| (p.iter().map(|&c| c as i64).collect(), v))
        .collect();

    let start = Instant::now();
    let mut plain = GrowableCube::<i64>::new(2, DdcConfig::dynamic());
    for (p, delta) in &feed {
        plain.add(p, *delta);
    }
    let off = start.elapsed();
    std::hint::black_box(plain.total());

    let off_rate = OPS as f64 / off.as_secs_f64();
    println!(
        "{OPS} hot-skewed point updates over a {WN}×{WN} dynamic growable cube:\n\
         wal-off (memory only)             {off_rate:>10.0} updates/s"
    );
    // The same feed a group at a time: every record of a group in one
    // write under one sync (`ddc serve --durable` commits a pipelined
    // run this way); a group of one is the sync per ack.
    for group in [1usize, 16, 256] {
        let path = std::env::temp_dir().join("ddc_shard_scaling_wal.bin");
        let file = std::fs::File::create(&path).expect("create wal file");
        let mut durable = DurableCube::<i64, std::fs::File>::new(2, DdcConfig::dynamic(), file)
            .expect("wal header");
        let start = Instant::now();
        for run in feed.chunks(group) {
            durable.add_group(run).expect("acked append");
        }
        let on = start.elapsed();
        let (bytes, records) = durable.wal_stats();
        assert_eq!(plain.total(), durable.cube().total());
        std::fs::remove_file(&path).ok();
        let on_rate = OPS as f64 / on.as_secs_f64();
        println!(
            "wal-on  (log + sync per {group:>3} acks)  {on_rate:>10.0} updates/s  \
             {:>8.2} µs/record  {:.2}× wal-off; log {bytes} bytes / {records} records \
             ({:.1} bytes/record)",
            on.as_secs_f64() * 1e6 / OPS as f64,
            off_rate / on_rate,
            bytes as f64 / records.max(1) as f64,
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--wal") {
        wal_bench();
        return;
    }
    let shape = Shape::cube(2, N);
    let regions = slice_regions(16, 256, &mut rng(5));
    let feed = hot_feed(&shape, 1 << 16, &mut rng(6));
    let seed: Vec<(Vec<usize>, i64)> = uniform_updates(&shape, 8_192, &mut rng(7)).updates;

    println!(
        "{READERS} readers + 1 paced writer over a {N}×{N} dynamic cube, {RUN:?} per cell.\n\
         Feed: single records, {HOT_PERCENT}% on {HOT_CELLS} hot cells; the feed\n\
         has priority — readers shed queries while it lags its schedule.\n\
         Reads: ≤16-row dimension-0 slices.\n"
    );

    let mut shared_q = 0.0f64;
    let mut sharded4_q = 0.0f64;

    for &rate in &RATES {
        let cube = SharedCube::<i64>::new(shape.clone(), DdcConfig::dynamic());
        cube.apply_batch(&seed);
        let score = drive(
            |i| {
                std::hint::black_box(cube.range_sum(&regions[i % regions.len()]));
            },
            |stop, lagging| {
                paced_feed(stop, lagging, rate, |i| {
                    let (p, delta) = &feed[i % feed.len()];
                    cube.apply_delta(p, *delta);
                })
            },
        );
        print_row("shared (1 lock)", rate, &score);
        if rate == RATES[2] {
            shared_q = score.queries_per_s;
        }
    }
    println!();

    for shards in [1usize, 2, 4, 8] {
        for &rate in &RATES {
            let cube = ShardedCube::<i64>::new(
                shape.clone(),
                DdcConfig::dynamic(),
                ShardConfig::with_shards(shards),
            );
            for (point, delta) in &seed {
                cube.update(point, *delta);
            }
            let score = drive(
                |i| {
                    std::hint::black_box(cube.query(&regions[i % regions.len()]));
                },
                |stop, lagging| {
                    paced_feed(stop, lagging, rate, |i| {
                        let (p, delta) = &feed[i % feed.len()];
                        cube.update(p, *delta);
                    })
                },
            );
            print_row(&format!("sharded ×{shards}"), rate, &score);
            if shards == 4 && rate == RATES[2] {
                sharded4_q = score.queries_per_s;
            }
        }
        println!();
    }

    println!(
        "headline: under the {READERS}-reader/1-writer mix at {} records/s,\n\
         sharded ×4 sustains {:.2}× the single-lock cube's aggregate read\n\
         throughput (each record is committed to its shard before its ack;\n\
         readers of the other shards never wait on it).",
        RATES[2],
        sharded4_q / shared_q,
    );
}
