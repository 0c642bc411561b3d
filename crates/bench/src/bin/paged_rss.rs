//! CI paged-storage gate: build a cube whose leaf data exceeds the
//! buffer-pool cap, sweep and churn it, and fail if peak RSS breaks the
//! budget.
//!
//! ```text
//! cargo run --release -p ddc-bench --bin paged_rss -- \
//!     [--mem-cap BYTES] [--slack BYTES] [--side N] [--elide H]
//!     [--churn N] [--seed N] [--in-mem]
//! ```
//!
//! The workload materializes one leaf block per block-aligned region of
//! a `side × side` cube (elision `H` makes each block `2^{H+1}` on a
//! side), so total leaf bytes are known exactly and, by construction,
//! exceed `--mem-cap`. Those first adds land in the change buffer, not
//! on pages. A sweep then sums each block's interior (every row but the
//! first), which reads every page of every block: the buffered adds
//! merge into their pages and the pool evicts. A seeded churn phase
//! mixes random point updates with range sums, then the tree's arena
//! audit runs once (it asserts, among the rest, that the pool holds no
//! more pages than its cap: these blocks span pages), and a correctness
//! pass checks sampled cells plus the grand total. Every range sum,
//! sweep and churn alike, is compared against an oracle. Last, the binary
//! reads `VmHWM` from `/proc/self/status`. Exit status:
//!
//! * `0` — cube exceeded the cap, the pool evicted and the change
//!   buffer merged, answers matched, and peak RSS stayed at or under
//!   `mem-cap + slack`.
//! * `1` — budget broken, or the workload failed to exceed the cap, to
//!   evict or to merge (the gate would be vacuous).
//! * `2` — wrong answers (a paging bug, not a memory bug).
//!
//! A JSON summary goes to stdout either way so CI can archive it.

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_core::{DdcConfig, DdcEngine, PagerConfig, ValueCodec};
use std::collections::HashMap;

/// Every cell the workload touched, with its value.
type Oracle = HashMap<(usize, usize), i64>;

fn flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{name} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}")),
    }
}

/// Peak resident set size of this process, from `/proc/self/status`
/// (`VmHWM`, kibibytes). `None` off Linux or if the field is missing.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib = rest.trim().trim_end_matches("kB").trim();
            return kib.parse::<u64>().ok().map(|k| k * 1024);
        }
    }
    None
}

/// Splitmix-style seeded generator — deterministic across runs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn run(args: &[String]) -> Result<String, (i32, String)> {
    let bad = |e: String| (1, e);
    let mem_cap = flag(args, "--mem-cap", 64 * 1024 * 1024).map_err(bad)? as usize;
    let slack = flag(args, "--slack", 32 * 1024 * 1024).map_err(bad)? as usize;
    let side = flag(args, "--side", 4096).map_err(bad)? as usize;
    let elide = flag(args, "--elide", 5).map_err(bad)? as usize;
    let churn = flag(args, "--churn", 20_000).map_err(bad)?;
    let seed = flag(args, "--seed", 0x9A6E).map_err(bad)?;
    let in_mem = args.iter().any(|a| a == "--in-mem");

    let pager = if in_mem {
        PagerConfig::in_mem(mem_cap)
    } else {
        PagerConfig::disk(mem_cap)
    };
    let config = DdcConfig::dynamic()
        .with_elision(elide)
        .with_paged_leaves(pager);
    let block = config.leaf_block_side(2);
    if side % block != 0 {
        return Err((1, format!("--side must be a multiple of {block}")));
    }
    let blocks_per_axis = side / block;
    let leaf_bytes = blocks_per_axis * blocks_per_axis * block * block * i64::WIDTH;

    let mut engine = DdcEngine::<i64>::with_config(Shape::new(&[side, side]), config);
    engine
        .enable_paging()
        .map_err(|e| (1, format!("enable_paging: {e}")))?;

    // Phase 1: materialize every leaf block — one touched cell claims
    // the whole `block × block` run, so the cube's leaf data hits
    // `leaf_bytes`. No page is resident yet, so the adds wait in the
    // change buffer instead of faulting pages in.
    let mut oracle = Oracle::new();
    let mut total: i64 = 0;
    for bi in 0..blocks_per_axis {
        for bj in 0..blocks_per_axis {
            engine.apply_delta(&[bi * block, bj * block], 1);
            *oracle.entry((bi * block, bj * block)).or_insert(0) += 1;
            total += 1;
        }
    }

    let mut sums_checked = 0u64;
    let mut check_sum = |engine: &DdcEngine<i64>,
                         oracle: &Oracle,
                         lo: [usize; 2],
                         hi: [usize; 2]|
     -> Result<(), (i32, String)> {
        let got = engine.range_sum(&Region::new(&lo, &hi));
        let want: i64 = oracle
            .iter()
            .filter(|(&(x, y), _)| lo[0] <= x && x <= hi[0] && lo[1] <= y && y <= hi[1])
            .map(|(_, &v)| v)
            .sum();
        sums_checked += 1;
        if got != want {
            return Err((
                2,
                format!("range {lo:?}..={hi:?} diverged: engine {got}, oracle {want}"),
            ));
        }
        Ok(())
    };

    // Phase 2: sweep — each block's interior (rows 1.. of the block,
    // columns 1..), which is zero. The scan reads every page of the
    // block, merging the buffered corner add into its first page; over
    // all blocks that is twice the pages the pool holds, so it evicts.
    // (`block` is `2^{H+1}` ≥ 2, so the interior is never empty.)
    for bi in 0..blocks_per_axis {
        for bj in 0..blocks_per_axis {
            let (x, y) = (bi * block, bj * block);
            check_sum(
                &engine,
                &oracle,
                [x + 1, y + 1],
                [x + block - 1, y + block - 1],
            )?;
        }
    }

    // Phase 3: seeded churn — random updates, some buffered, some into
    // resident frames, interleaved with range sums that merge and fault
    // cold pages back in.
    let mut rng = Rng(seed);
    for i in 0..churn {
        let p = (
            rng.below(side as u64) as usize,
            rng.below(side as u64) as usize,
        );
        let delta = rng.below(7) as i64 - 3;
        engine.apply_delta(&[p.0, p.1], delta);
        *oracle.entry(p).or_insert(0) += delta;
        total += delta;
        if i % 256 == 0 {
            let lo = [
                rng.below(side as u64) as usize,
                rng.below(side as u64) as usize,
            ];
            let hi = [
                lo[0] + (rng.below((side - lo[0]) as u64) as usize),
                lo[1] + (rng.below((side - lo[1]) as u64) as usize),
            ];
            check_sum(&engine, &oracle, lo, hi)?;
        }
    }
    engine.tree().check_arena();

    // Correctness pass: the grand total plus a sample of touched cells
    // must match the oracle — a silently-corrupting pager must not be
    // able to pass the memory gate.
    let got_total = engine.range_sum(&Region::new(&[0, 0], &[side - 1, side - 1]));
    if got_total != total {
        return Err((
            2,
            format!("total diverged: engine {got_total}, oracle {total}"),
        ));
    }
    let sample: Vec<_> = oracle.iter().take(512).collect();
    for (&(x, y), &want) in sample {
        let got = engine.cell(&[x, y]);
        if got != want {
            return Err((
                2,
                format!("cell ({x},{y}) diverged: engine {got}, oracle {want}"),
            ));
        }
    }

    let stats = engine
        .tree()
        .pool_stats()
        .ok_or((1, "pool stats missing: tree is not paged".to_string()))?;
    let peak =
        peak_rss_bytes().ok_or((1, "cannot read VmHWM from /proc/self/status".to_string()))?;

    let exceeded = leaf_bytes > mem_cap;
    let within = peak as usize <= mem_cap + slack;
    let json = format!(
        "{{\n  \"bench\": \"paged_rss\",\n  \"mem_cap_bytes\": {mem_cap},\n  \
         \"slack_bytes\": {slack},\n  \"leaf_bytes_total\": {leaf_bytes},\n  \
         \"peak_rss_bytes\": {peak},\n  \"resident_pages\": {},\n  \"cap_pages\": {},\n  \
         \"evictions\": {},\n  \"write_backs\": {},\n  \
         \"buffered\": {},\n  \"merged\": {},\n  \
         \"range_sums\": {sums_checked},\n  \"cube_exceeds_cap\": {exceeded},\n  \
         \"rss_within_budget\": {within}\n}}",
        stats.resident_pages,
        stats.cap_pages,
        stats.evictions,
        stats.write_backs,
        stats.buffered,
        stats.merged
    );
    if !exceeded {
        return Err((
            1,
            format!("{json}\nworkload too small: {leaf_bytes} leaf bytes <= {mem_cap} cap"),
        ));
    }
    if stats.evictions == 0 || stats.merged == 0 {
        return Err((
            1,
            format!(
                "{json}\nthe pool never evicted or the change buffer never merged: \
                 the cap was not exercised"
            ),
        ));
    }
    if !within {
        return Err((
            1,
            format!(
                "{json}\npeak RSS {peak} bytes > budget {} (cap {mem_cap} + slack {slack})",
                mem_cap + slack
            ),
        ));
    }
    Ok(json)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err((code, msg)) => {
            eprintln!("paged_rss: {msg}");
            std::process::exit(code);
        }
    }
}
