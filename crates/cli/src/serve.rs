//! `ddc serve` — the network front end on the command line.
//!
//! ```text
//! ddc serve [--addr HOST:PORT] [--side N] [--shards N] [--workers N]
//!           [--max-conns N] [--rate N] [--burst N]
//!           [--durable DIR [--dims D] [--mem-cap BYTES]]
//! ```
//!
//! `serve` binds the commit pipeline ([`ShardedCube`]: door → \[log\] →
//! apply → ack) behind the zero-dependency TCP server and runs
//! until killed; the listening address is printed on stdout so scripts
//! (the CI smoke job, `benchmark/`) can wait for it. Without
//! `--durable` the pipeline has bounds (`--side`, a square 2-d cube)
//! and no log: an update is acked once it is applied to the cube (one
//! commit per run of updates a client pipelined in one read), in
//! `--shards` dimension-0 slabs (default 1: more did not measure
//! faster on two cores). With `--durable DIR` the same pipeline runs
//! over a WAL-backed growable cube recovered from `DIR/snapshot.ddc` +
//! `DIR/wal.log`, with no bounds and one slab: every acked update is
//! a log record synced before its `ok` leaves — one `sync_data` per
//! run of updates a client pipelined in one read, one per update when
//! it did not — a disk fault degrades the backend to
//! read-only (mutations 503, `/healthz` reports `degraded`) instead of
//! crashing, and a restart replays the log.
//! `--mem-cap BYTES` additionally pages the cube's leaf blocks
//! through a buffer pool of that size that spills cold pages to disk;
//! the cap bounds that pool — the raw cells — not the process: nodes,
//! box records and row-sum faces stay in memory. The spill file
//! (unlinked, next to the log) is scratch that a restart never reads.
//! An argument outside the list above is a usage error, not a silent
//! default, and so is one that belongs to the other mode: `--dims` or
//! `--mem-cap` without `--durable` (a forgotten `--durable` must not
//! start an unpaged, non-durable server), `--side` or `--shards` with
//! it. Load is generated and timed by `benchmark/`
//! (`serve_mixed`, `durable_paged_mixed`), not from here.

use crate::flags::Flags;
use ddc_array::Shape;
use ddc_core::sync::Arc;
use ddc_core::vfs::StdVfs;
use ddc_core::wal::{self, RetryPolicy};
use ddc_core::{DdcConfig, DdcEngine, PagerConfig, ShardConfig, ShardedCube, SharedDurableCube};
use ddc_serve::{
    AdmissionConfig, DurableBackend, ServeBackend, Server, ServerConfig, ShardedBackend,
};

/// Every argument `ddc serve` accepts; each takes one value.
const FLAGS: [&str; 10] = [
    "--addr",
    "--side",
    "--shards",
    "--workers",
    "--max-conns",
    "--rate",
    "--burst",
    "--durable",
    "--dims",
    "--mem-cap",
];

/// Executes `ddc serve <args>`. Does not return on success: the server
/// runs until the process is killed.
pub fn run(args: &[String]) -> Result<String, String> {
    let flags = Flags::parse(args, &FLAGS, &[])?;
    let durable = flags.value("--durable");
    let (foreign, mode) = match durable {
        Some(_) => (["--side", "--shards"], "with"),
        None => (["--dims", "--mem-cap"], "without"),
    };
    if let Some(flag) = foreign.iter().find(|f| flags.value(f).is_some()) {
        let accepted: Vec<String> = FLAGS
            .iter()
            .filter(|f| !foreign.contains(f))
            .map(|f| format!("{f} VALUE"))
            .collect();
        return Err(format!(
            "unknown argument {flag} {mode} --durable; accepted: {}",
            accepted.join(" ")
        ));
    }
    let addr = flags
        .value("--addr")
        .unwrap_or("127.0.0.1:7171")
        .to_string();
    let side = flags.num("--side")?.unwrap_or(256usize);
    let shards = flags.num("--shards")?.unwrap_or(1usize).max(1);
    let workers = flags.num("--workers")?.unwrap_or(4usize).max(1);
    let max_connections = flags.num("--max-conns")?.unwrap_or(256usize);
    let rate_per_sec = flags.num("--rate")?.unwrap_or(0u64);
    let burst = flags.num("--burst")?.unwrap_or(256u64);
    if side == 0 {
        return Err("--side must be at least 1".to_string());
    }
    let (backend, what): (Arc<dyn ServeBackend>, String) = match durable {
        Some(dir) => {
            let dims = flags.num("--dims")?.unwrap_or(2usize);
            if dims == 0 {
                return Err("--dims must be at least 1".to_string());
            }
            let mem_cap: Option<usize> = flags.num("--mem-cap")?;
            let config = match mem_cap {
                Some(cap) => {
                    if cap == 0 {
                        return Err("--mem-cap must be at least 1 byte".to_string());
                    }
                    // Cold pages spill to an unlinked file in DIR. Paged
                    // leaves stay at h = 1 (side-4 blocks) instead of the
                    // side `dynamic()` derives, although adds and reads
                    // now touch only their cells and rows: the derived
                    // leaves are twice a 16 MiB pool, so a range sum
                    // misses 1.9 times against 0.5, and on
                    // `durable_paged_mixed` they cost `query_us` +25 %
                    // and `ops_per_s` −11 % for 44 % less RSS
                    // (EXPERIMENTS "A paged update never faults a page
                    // in").
                    DdcConfig::dynamic()
                        .with_elision(1)
                        .with_paged_leaves(PagerConfig::disk(cap))
                }
                None => DdcConfig::dynamic(),
            };
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            let wal_path = format!("{dir}/wal.log");
            let snap_path = format!("{dir}/snapshot.ddc");
            let (cube, report) = wal::recover_vfs::<i64, _>(
                &StdVfs,
                &wal_path,
                Some(&snap_path),
                dims,
                config,
                RetryPolicy::default(),
            )
            .map_err(|e| format!("cannot recover durable cube from {dir}: {e}"))?;
            let what = format!(
                "durable {dims}-dimensional cube from {dir} (snapshot={}, {} records \
                     replayed{}{})",
                if report.snapshot_loaded { "yes" } else { "no" },
                report.replayed,
                match &report.truncated {
                    Some(why) => format!(", torn tail ignored: {why}"),
                    None => String::new(),
                },
                match mem_cap {
                    Some(cap) => format!(", paged leaves capped at {cap} bytes"),
                    None => String::new(),
                }
            );
            (
                Arc::new(DurableBackend::new(SharedDurableCube::from_cube(cube))),
                what,
            )
        }
        None => {
            let (shape, config) = (Shape::new(&[side, side]), DdcConfig::default());
            // What the leaf-side rule picked for a tree of this shape
            // (an empty engine allocates nothing).
            let leaf = DdcEngine::<i64>::with_config(shape.clone(), config)
                .tree()
                .stats()
                .leaf_side;
            let cube = ShardedCube::<i64>::new(shape, config, ShardConfig::with_shards(shards));
            (
                Arc::new(ShardedBackend::new(cube)),
                format!("{side}x{side} cube, {leaf}x{leaf} leaf blocks, {shards} shards"),
            )
        }
    };
    let server = Server::start(
        backend,
        ServerConfig {
            addr,
            workers,
            max_connections: max_connections.max(1),
            admission: AdmissionConfig {
                rate_per_sec,
                burst,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    // Scripts parse this line to learn the (possibly ephemeral) port.
    println!(
        "ddc serve: listening on {} ({what}, {workers} workers, rate {rate_per_sec}/s)",
        server.local_addr(),
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rejects_a_zero_sized_cube() {
        let err = run(&["--side".into(), "0".into()]).expect_err("zero side");
        assert!(err.contains("--side"), "{err}");
    }

    #[test]
    fn serve_rejects_the_other_modes_arguments() {
        // A forgotten `--durable` must not start an unpaged,
        // non-durable server; a durable one has no bounds to set.
        for (args, offender) in [
            (&["--dims", "2", "--mem-cap", "4096"][..], "--dims without"),
            (&["--mem-cap", "4096"][..], "--mem-cap without"),
            (&["--durable", "unused", "--side", "64"][..], "--side with"),
            (
                &["--shards", "2", "--durable", "unused"][..],
                "--shards with",
            ),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err = run(&args).expect_err("flag of the other mode");
            assert!(
                err.starts_with(&format!(
                    "unknown argument {offender} --durable; accepted: "
                )),
                "{err}"
            );
            assert!(!std::path::Path::new("unused").exists());
        }
    }

    #[test]
    fn serve_rejects_an_argument_it_does_not_know() {
        // A misspelt flag, and a known flag sitting where a value
        // belongs (so its own value is left over).
        for (args, offender) in [
            (&["--side", "16", "--shard", "2"][..], "--shard"),
            (&["--addr", "--side", "16"][..], "16"),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err = run(&args).expect_err("unknown argument");
            assert!(
                err.contains(&format!("unknown argument {offender};")),
                "{err}"
            );
        }
    }
}
