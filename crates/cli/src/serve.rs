//! `ddc serve` / `ddc loadgen` — the network front end on the command
//! line.
//!
//! ```text
//! ddc serve   [--addr HOST:PORT] [--side N] [--shards N] [--workers N]
//!             [--max-conns N] [--rate N] [--burst N]
//!             [--durable DIR [--dims D] [--mem-cap BYTES]]
//! ddc loadgen [--addr HOST:PORT] [--threads N] [--requests N]
//!             [--batch N] [--update-pct N] [--seed N] [--side N]
//!             [--shards N] [--json FILE]
//! ```
//!
//! `serve` binds a [`ShardedCube`] behind the zero-dependency TCP
//! server and runs until killed; the listening address is printed on
//! stdout so scripts (and the CI smoke job) can wait for it. With
//! `--durable DIR` it instead serves a WAL-backed growable cube
//! recovered from `DIR/snapshot.ddc` + `DIR/wal.log`: every acked
//! update is fsynced to the log first, a disk fault degrades the
//! backend to read-only (mutations 503, `/healthz` reports
//! `degraded`) instead of crashing, and a restart replays the log.
//! `--mem-cap BYTES` additionally pages the cube's leaf blocks
//! through a bounded buffer pool that spills cold pages to disk, so
//! the served cube can exceed RAM; the spill file (unlinked, next to
//! the log) is scratch that a restart never reads.
//! `loadgen` drives pipelined mixed traffic — against `--addr`, or
//! against an in-process server when omitted — and prints throughput
//! and batch-RTT quantiles; `--json` additionally writes the schema-v1
//! `BENCH_serve_latency.json` report the perf gate compares against
//! `bench/baselines/`.

use crate::check::parse_flag;
use ddc_array::Shape;
use ddc_core::sync::Arc;
use ddc_core::vfs::StdVfs;
use ddc_core::wal::{self, RetryPolicy};
use ddc_core::{DdcConfig, PagerConfig, ShardConfig, ShardedCube, SharedDurableCube, WalConfig};
use ddc_serve::loadgen::{self, LoadgenConfig};
use ddc_serve::{
    AdmissionConfig, DurableBackend, ServeBackend, Server, ServerConfig, ShardedBackend,
};

fn parse_str_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// Executes `ddc serve <args>`. Does not return on success: the server
/// runs until the process is killed.
pub fn run(args: &[String]) -> Result<String, String> {
    let addr = parse_str_flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let side = parse_flag(args, "--side")?.unwrap_or(256) as usize;
    let shards = parse_flag(args, "--shards")?.unwrap_or(4) as usize;
    let workers = parse_flag(args, "--workers")?.unwrap_or(4) as usize;
    let max_connections = parse_flag(args, "--max-conns")?.unwrap_or(256) as usize;
    let rate_per_sec = parse_flag(args, "--rate")?.unwrap_or(0);
    let burst = parse_flag(args, "--burst")?.unwrap_or(256);
    if side == 0 {
        return Err("--side must be at least 1".to_string());
    }
    let (backend, what): (Arc<dyn ServeBackend>, String) = match parse_str_flag(args, "--durable")?
    {
        Some(dir) => {
            let dims = parse_flag(args, "--dims")?.unwrap_or(2) as usize;
            if dims == 0 {
                return Err("--dims must be at least 1".to_string());
            }
            let mem_cap = parse_flag(args, "--mem-cap")?;
            let config = match mem_cap {
                Some(cap) => {
                    if cap == 0 {
                        return Err("--mem-cap must be at least 1 byte".to_string());
                    }
                    // Paged leaves need elision ≥ 1 so leaf blocks
                    // exist; cold pages spill to an unlinked file in DIR.
                    DdcConfig::dynamic()
                        .with_elision(1)
                        .with_paged_leaves(PagerConfig::disk(cap as usize))
                }
                None => DdcConfig::dynamic(),
            };
            std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            let wal_path = format!("{dir}/wal.log");
            let snap_path = format!("{dir}/snapshot.ddc");
            let (cube, report) = wal::recover_vfs::<i64, _>(
                &StdVfs,
                &wal_path,
                Some(&snap_path),
                dims,
                config,
                WalConfig::default(),
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
            let cube = ShardedCube::<i64>::new(
                Shape::new(&[side, side]),
                DdcConfig::default(),
                ShardConfig::with_shards(shards.max(1)),
            );
            (
                Arc::new(ShardedBackend::new(cube)),
                format!("{side}x{side} cube, {} shards", shards.max(1)),
            )
        }
    };
    let server = Server::start(
        backend,
        ServerConfig {
            addr,
            workers: workers.max(1),
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

/// Executes `ddc loadgen <args>`, returning the measured summary text.
pub fn run_loadgen(args: &[String]) -> Result<String, String> {
    let defaults = LoadgenConfig::default();
    let config = LoadgenConfig {
        addr: parse_str_flag(args, "--addr")?,
        threads: parse_flag(args, "--threads")?.map_or(defaults.threads, |v| v as usize),
        requests: parse_flag(args, "--requests")?.unwrap_or(defaults.requests),
        batch: parse_flag(args, "--batch")?.map_or(defaults.batch, |v| v as usize),
        update_pct: parse_flag(args, "--update-pct")?
            .unwrap_or(defaults.update_pct)
            .min(100),
        seed: parse_flag(args, "--seed")?.unwrap_or(defaults.seed),
        side: parse_flag(args, "--side")?.map_or(defaults.side, |v| v as usize),
        shards: parse_flag(args, "--shards")?.map_or(defaults.shards, |v| v as usize),
    };
    let summary = loadgen::run(&config)?;
    if let Some(path) = parse_str_flag(args, "--json")? {
        std::fs::write(&path, summary.report(&config).to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(format!(
        "loadgen: {} requests ({} ok, {} busy, {} err) at {:.0} req/s\n\
         batch rtt p50 {} ns, p99 {} ns, max {} ns \
         ({} threads x {} pipelined, {}% updates, seed {:#x})",
        summary.total,
        summary.ok,
        summary.busy,
        summary.errors,
        summary.req_per_s,
        summary.rtt_p50_ns,
        summary.rtt_p99_ns,
        summary.rtt_max_ns,
        config.threads,
        config.batch,
        config.update_pct,
        config.seed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_smoke_run_writes_a_schema_v1_report() {
        let dir = std::env::temp_dir().join(format!("ddc-loadgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let json = dir.join("BENCH_serve_latency.json");
        let out = run_loadgen(&[
            "--threads".into(),
            "2".into(),
            "--requests".into(),
            "200".into(),
            "--batch".into(),
            "8".into(),
            "--side".into(),
            "16".into(),
            "--json".into(),
            json.display().to_string(),
        ])
        .expect("loadgen runs");
        assert!(out.contains("400 requests"), "{out}");
        let text = std::fs::read_to_string(&json).expect("report written");
        assert!(text.contains("serve.mixed.req_per_s"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_a_zero_sized_cube() {
        let err = run(&["--side".into(), "0".into()]).expect_err("zero side");
        assert!(err.contains("--side"), "{err}");
    }
}
