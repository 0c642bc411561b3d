//! `ddc stats` — exercise every instrumented subsystem with a seeded
//! workload, then dump the metrics registry.
//!
//! ```text
//! ddc stats [--seed N] [--ops N] [--json]
//! ```
//!
//! The workload touches each hot path the observability layer covers —
//! sharded updates (commit-lock wait + commit), engine updates for both engine
//! kinds, range sums on the pipeline's cubes and prefix sums on the
//! Basic engine, WAL appends (singles and one group) and
//! recovery replay, cube growth,
//! snapshot save/load, and a small paged cube over an in-memory spill
//! (pool hits, misses and evictions, change-buffer adds and merges) —
//! so the dump always shows live numbers. The
//! default output is Prometheus exposition text; `--json` switches to a
//! machine-readable object with the same content; the text ends with a
//! `# wal records per sync` line (`ddc_wal_append_records` ÷
//! `ddc_wal_syncs`). Set `DDC_TRACE=1` to
//! also print the recent-span trace ring.

use ddc_array::{RangeSumEngine, Shape};
use ddc_core::{
    obs, wal, DdcConfig, DdcEngine, DdcTree, GrowableCube, PagerConfig, RetryPolicy, ShardConfig,
    ShardedCube, WalWriter,
};
use ddc_workload::DdcRng;

use crate::flags::Flags;

/// Executes `ddc stats <args>`, returning the rendered registry.
pub fn run(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &["--seed", "--ops"], &["--json"])?;
    let seed = flags.num("--seed")?.unwrap_or(0x57A7u64);
    let ops = flags.num("--ops")?.unwrap_or(4096usize);
    let json = flags.has("--json");

    workload(seed, ops).map_err(|e| format!("stats workload: {e}"))?;

    let mut out = if json {
        obs::render_json()
    } else {
        obs::prometheus_text()
    };
    if !json {
        // How far group commit is amortising the sync: 1 is a sync per
        // acknowledged update.
        let (records, syncs) = (
            obs::counter("wal.append.records").get(),
            obs::counter("wal.syncs").get(),
        );
        let per_sync = records as f64 / syncs.max(1) as f64;
        out.push_str(&format!(
            "\n# wal records per sync: {per_sync:.2} ({records} records, {syncs} syncs)"
        ));
    }
    if obs::trace_enabled() && !json {
        out.push('\n');
        out.push_str(&obs::trace_dump());
    }
    Ok(out)
}

/// Seeded workload hitting every instrumented subsystem.
fn workload(seed: u64, ops: usize) -> std::io::Result<()> {
    let mut rng = DdcRng::seed_from_u64(seed);
    let side = 64usize;

    // The commit pipeline: updates, each one commit (shard.queue_wait —
    // the wait for the slab's commit lock — + shard.commit, and
    // engine.update.dynamic_ddc from the slabs' cubes) and fanned prefix queries — each the box [0, p], one
    // range walk per slab it reaches (engine.range_sum.dynamic_ddc).
    let cube = ShardedCube::<i64>::new(
        Shape::new(&[side, side]),
        DdcConfig::dynamic(),
        ShardConfig::with_shards(4),
    );
    for _ in 0..ops {
        let p = [rng.gen_range(0..side), rng.gen_range(0..side)];
        cube.update(&p, rng.gen_range(-100i64..=100));
    }
    for _ in 0..(ops / 8).max(16) {
        let p = [rng.gen_range(0..side), rng.gen_range(0..side)];
        let _ = cube.query_prefix(&p);
    }

    // Basic (§3) engine, so both engine kinds report.
    let mut basic = DdcEngine::<i64>::basic(Shape::new(&[side / 4, side / 4]));
    for _ in 0..(ops / 8).max(16) {
        let p = [rng.gen_range(0..side / 4), rng.gen_range(0..side / 4)];
        basic.apply_delta(&p, rng.gen_range(-10i64..=10));
        let _ = basic.prefix_sum(&p);
    }

    // WAL: append a log, then recover it (wal.append, wal.fsync,
    // wal.recover, and the record/byte counters), one update a sync…
    let mut writer = WalWriter::create(Vec::new())?;
    for _ in 0..(ops / 16).max(32) {
        let point = vec![rng.gen_range(-32i64..32), rng.gen_range(-32i64..32)];
        let update = (point, rng.gen_range(-100i64..=100));
        writer
            .append_updates(&[update], &RetryPolicy::instant())
            .map_err(std::io::Error::other)?;
    }
    // …and one seeded group of updates: every frame in one write, one
    // sync for all of them (what a pipelined run costs `ddc serve
    // --durable`), so `wal records per sync` reads above 1.
    let group: Vec<(Vec<i64>, i64)> = (0..rng.gen_range(2usize..=64))
        .map(|_| {
            let point = vec![rng.gen_range(-32i64..32), rng.gen_range(-32i64..32)];
            (point, rng.gen_range(-100i64..=100))
        })
        .collect();
    writer
        .append_updates(&group, &RetryPolicy::instant())
        .map_err(std::io::Error::other)?;
    let log = writer.into_inner();
    let (recovered, _report) = wal::recover::<i64>(2, None, &log[..], DdcConfig::dynamic())?;

    // Growth (growth.grow, growth.doublings) and persistence
    // (persist.save / persist.load / persist.save.bytes).
    let mut grown = GrowableCube::<i64>::new(2, DdcConfig::sparse());
    grown.add(&[0, 0], 1);
    grown.add(&[1 << 10, -(1 << 10)], 1);
    let mut snapshot = Vec::new();
    grown.save(&mut snapshot)?;
    let reloaded = GrowableCube::<i64>::load(&mut snapshot.as_slice(), DdcConfig::sparse())?;

    // Paging (pager.*): a 256² tree of 2 KiB leaf blocks under a 16 KiB
    // cap — three 4 KiB frames and a 64-entry change buffer — spilling
    // to memory. Updates to cold pages wait in the buffer; range sums
    // merge them and fault pages in past the cap. A bare `DdcTree`, so
    // the `engine.*` counts above do not move.
    let mut paged = DdcTree::<i64>::new(
        2,
        256,
        DdcConfig::dynamic().with_paged_leaves(PagerConfig::in_mem(16 << 10)),
    );
    paged.enable_paging()?;
    for i in 0..(ops / 4).max(64) {
        let p = [rng.gen_range(0..256), rng.gen_range(0..256)];
        paged.apply_delta(&p, rng.gen_range(-100i64..=100));
        if i % 16 == 0 {
            let lo = [rng.gen_range(0..256), rng.gen_range(0..256)];
            let _ = paged.range_sum(&lo, &[255, 255]);
        }
    }

    // Keep the cubes observable side effects (and the optimizer honest).
    assert_eq!(
        paged.range_sum(&[0, 0], &[255, 255]),
        paged.check_invariants()
    );
    assert_eq!(reloaded.total(), grown.total());
    assert_eq!(recovered.ndim(), 2);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_refuses_a_misspelt_flag() {
        let args = ["--ops", "64", "--jsn"].map(String::from);
        let err = run(&args).expect_err("unknown argument");
        assert!(err.starts_with("unknown argument --jsn;"), "{err}");
    }
}
