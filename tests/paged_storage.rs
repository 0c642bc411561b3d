//! Out-of-core paged storage, end to end (satellite of the buffer-pool
//! tentpole).
//!
//! The pool's micro-invariants — never over its cap, on an error exit
//! too, second-chance order — and the arena's — ids,
//! free list and zero-on-free shared with the in-memory slab — live
//! next to the implementation as `core::pager` and `core::store` unit
//! tests. These suites cover the layer above: a paged cube driven
//! through a long seeded churn under a cap tiny enough to force
//! thousands of evictions must stay bit-identical to a `HashMap` oracle
//! and to its slab twin, survive save/load and growth, and a WAL
//! recovery must replay onto freshly-faulted pages — which are scratch:
//! recovery never reads a spill file, and a `Vfs` boot leaves none
//! behind.

use std::collections::HashMap;

use ddc_array::{AbelianGroup, Pair};
use ddc_core::wal::{self, RetryPolicy};
use ddc_core::{
    DdcConfig, DurableCube, GrowableCube, LeafBackend, PagerConfig, StdVfs, ValueCodec,
};
use ddc_tests::run_cases;

type Oracle = HashMap<Vec<i64>, i64>;

/// Tiny pool: a handful of 128-byte pages, so even short traces churn.
fn paged_config() -> DdcConfig {
    DdcConfig::dynamic()
        .with_elision(1)
        .with_paged_leaves(PagerConfig::in_mem(2048).with_page_bytes(128))
}

fn oracle_range(oracle: &Oracle, lo: &[i64], hi: &[i64]) -> i64 {
    oracle
        .iter()
        .filter(|(p, _)| {
            p.iter()
                .zip(lo.iter().zip(hi))
                .all(|(&c, (&l, &h))| l <= c && c <= h)
        })
        .map(|(_, &v)| v)
        .sum()
}

/// The headline churn: ≥1000 evictions under a ~2 KiB cap, every
/// answer cross-checked against the oracle and a slab twin.
#[test]
fn churn_forces_evictions_and_matches_oracle() {
    churn(paged_config(), |v| v);
}

/// The same churn over 16-byte cells: each (sum, weight) pair crosses
/// the pool as one fixed-width cell, exactly like an `i64`.
#[test]
fn churn_with_pair_cells_matches_oracle() {
    churn(paged_config(), |v| Pair::new(v, v as f64 * 0.5));
}

/// And with blocks of 8 × 8 cells (512 B) over a two-page pool of
/// 64-byte pages: every block access re-faults its eight pages.
#[test]
fn churn_with_blocks_larger_than_the_pool_matches_oracle() {
    let pager = PagerConfig::in_mem(128).with_page_bytes(64);
    churn(
        DdcConfig::dynamic()
            .with_elision(2)
            .with_paged_leaves(pager),
        |v| v,
    );
}

/// `lift` maps the `i64` oracle into the cube's group; it must be
/// additive and exact.
fn churn<G: AbelianGroup + ValueCodec>(config: DdcConfig, lift: impl Fn(i64) -> G) {
    let mut paged = GrowableCube::<G>::with_origin(&[0, 0], config);
    assert!(paged.enable_paging().expect("enable paging"));
    assert!(paged.is_paged());
    let slab_config = DdcConfig {
        leaf_backend: LeafBackend::Mem,
        ..config
    };
    let mut slab = GrowableCube::<G>::with_origin(&[0, 0], slab_config);
    let mut oracle = Oracle::new();

    let mut state = 0xC0FFEEu64;
    let mut rng = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    for i in 0..4000 {
        let p = [rng(96) as i64 - 48, rng(96) as i64 - 48];
        let delta = rng(9) as i64 - 4;
        paged.add(&p, lift(delta));
        slab.add(&p, lift(delta));
        let v = oracle.entry(p.to_vec()).or_insert(0);
        *v += delta;
        if *v == 0 {
            oracle.remove(p.as_slice());
        }
        if i % 97 == 0 {
            let lo = [rng(96) as i64 - 48, rng(96) as i64 - 48];
            let hi = [lo[0] + rng(40) as i64, lo[1] + rng(40) as i64];
            assert_eq!(
                paged.range_sum(&lo, &hi),
                lift(oracle_range(&oracle, &lo, &hi))
            );
            assert_eq!(paged.range_sum(&lo, &hi), slab.range_sum(&lo, &hi));
        }
    }

    let stats = paged.pool_stats().expect("paged cube has pool stats");
    assert!(
        stats.evictions >= 1000,
        "churn too gentle: only {} evictions",
        stats.evictions
    );
    for (p, &want) in &oracle {
        assert_eq!(paged.cell(p), lift(want), "cell {p:?}");
    }

    // Save/load keeps the backend: load re-enables paging from the
    // config, and the reloaded cube still answers like the oracle.
    let mut buf = Vec::new();
    paged.save(&mut buf).expect("save paged cube");
    let reloaded = GrowableCube::<G>::load(&mut buf.as_slice(), config).expect("load paged cube");
    assert!(reloaded.is_paged());
    for (p, &want) in &oracle {
        assert_eq!(reloaded.cell(p), lift(want), "reloaded cell {p:?}");
    }
}

/// Growth (re-rooting, §5) must not drop the paged arena: blocks keep
/// their ids, only the node structure above them is rebuilt.
#[test]
fn paged_cube_survives_growth() {
    run_cases("paged_cube_survives_growth", 16, |rng| {
        let mut paged = GrowableCube::<i64>::with_origin(&[0, 0], paged_config());
        paged.enable_paging().expect("enable paging");
        let mut oracle = Oracle::new();
        // Phase 1 near the origin, phase 2 far out in a random
        // direction — each far point forces one or more re-rootings.
        for phase in 0..2 {
            let spread = if phase == 0 { 8 } else { 400 };
            for _ in 0..60 {
                let p = [
                    rng.gen_range(-spread..=spread),
                    rng.gen_range(-spread..=spread),
                ];
                let delta = rng.gen_range(-5i64..=5);
                paged.add(&p, delta);
                *oracle.entry(p.to_vec()).or_insert(0) += delta;
            }
            assert!(paged.is_paged(), "growth dropped the paged arena");
        }
        for (p, &want) in &oracle {
            assert_eq!(paged.cell(p), want, "cell {p:?}");
        }
        let total: i64 = oracle.values().sum();
        assert_eq!(paged.range_sum(&[-500, -500], &[500, 500]), total);
    });
}

/// Crash recovery replays the WAL onto buffer-pool pages: the rebuilt
/// cube is paged, evicting, and exactly equal to the acked oracle.
#[test]
fn recovery_replays_wal_onto_pages() {
    run_cases("recovery_replays_wal_onto_pages", 8, |rng| {
        let config = paged_config();
        let mut durable =
            DurableCube::<i64, Vec<u8>>::new(2, config, Vec::new()).expect("in-memory WAL create");
        assert!(durable.cube().is_paged(), "durable cube should auto-page");
        let mut oracle = Oracle::new();
        for _ in 0..300 {
            let p = [rng.gen_range(-40i64..=40), rng.gen_range(-40i64..=40)];
            let delta = rng.gen_range(-6i64..=6);
            durable.add(&p, delta).expect("in-memory WAL append");
            *oracle.entry(p.to_vec()).or_insert(0) += delta;
        }
        let log = durable.into_wal().into_inner();

        let (recovered, report) = wal::recover::<i64>(2, None, &log, config).expect("recover");
        assert_eq!(report.replayed, 300);
        assert!(
            recovered.is_paged(),
            "recovery must land on the paged backend"
        );
        let stats = recovered.pool_stats().expect("pool stats");
        assert!(stats.evictions > 0, "replay never evicted — cap too lax");
        for (p, &want) in &oracle {
            assert_eq!(recovered.cell(p), want, "recovered cell {p:?}");
        }
    });
}

/// A boot through a `Vfs` puts a disk pager's spill file in that
/// namespace, next to the log — and, being scratch, unlinked at once:
/// the pool evicts and writes back, yet the directory only ever holds
/// the log.
#[test]
fn vfs_boot_spills_beside_the_log_and_leaves_no_file() {
    let dir = std::env::temp_dir().join(format!("ddc-paged-storage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let wal_path = dir.join("wal.log").to_string_lossy().into_owned();
    let config = DdcConfig::dynamic()
        .with_elision(1)
        .with_paged_leaves(PagerConfig::disk(2048).with_page_bytes(128));
    let boot = || {
        wal::recover_vfs::<i64, _>(&StdVfs, &wal_path, None, 2, config, RetryPolicy::default())
            .expect("boot on the scratch dir")
    };
    let (mut durable, _) = boot();
    for i in 0..300i64 {
        durable
            .add(&[i * 7 % 80 - 40, i * 13 % 80 - 40], i % 5 + 1)
            .expect("append");
    }
    let total = durable.cube().total();
    let stats = durable.pool_stats().expect("a disk pager pages the boot");
    assert!(
        stats.write_backs > 0,
        "nothing reached the spill file: {stats:?}"
    );
    let listing = || -> Vec<_> {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    };
    assert_eq!(listing(), ["wal.log"]);
    drop(durable);
    let (again, report) = boot();
    assert_eq!(report.replayed, 300);
    assert_eq!(again.cube().total(), total);
    assert_eq!(listing(), ["wal.log"]);
    drop(again);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
