//! Arena invariant properties.
//!
//! The tree lives in append-only, `Vec`-indexed slabs: a record, once
//! allocated, is never freed, and saving and reloading the cube is what
//! reclaims the storage of cancelled regions. These suites churn trees
//! through randomized update / cancel / grow cycles and, after every
//! phase, audit the bookkeeping the pointer-based tree never needed:
//! every allocated record reached exactly once, no dangling references
//! — plus the structural invariants and a sparse oracle for answers. A
//! deterministic regression test pins `TreeStats` and `heap_bytes`
//! across a full lifecycle; a cumulant-shaped churn checks that a
//! reloaded snapshot holds exactly what a tree built from the surviving
//! cells does; a seeded differential sweep drives the level-slab layout
//! against a brute-force `NdArray` over every dimensionality, elision
//! depth, mode and base store; a d = 3 / d = 4 run cancels a populated
//! tree down to one cell and audits the per-level forests after every
//! step; a cumulant-shaped run checks the row-cumulative runs of a 64³
//! engine and of growing d = 3 / d = 4 cubes against the oracle after
//! every step; and two layout pins keep the packed tree's bytes per
//! populated cell (d = 2 and d = 3) from silently eroding.

use std::collections::HashMap;

use ddc_array::{NdArray, RangeSumEngine, Region, Shape};
use ddc_core::{
    DdcConfig, DdcEngine, DdcTree, GrowableCube, PagerConfig, LEAF_BLOCK_CELLS, MAX_RANK,
};
use ddc_tests::{for_cases, DdcRng};

type Oracle = HashMap<Vec<usize>, i64>;

fn oracle_add(oracle: &mut Oracle, p: &[usize], delta: i64) {
    let v = oracle.entry(p.to_vec()).or_insert(0);
    *v += delta;
    if *v == 0 {
        oracle.remove(p);
    }
}

fn oracle_total(oracle: &Oracle) -> i64 {
    oracle.values().sum()
}

fn oracle_prefix(oracle: &Oracle, x: &[usize]) -> i64 {
    oracle
        .iter()
        .filter(|(p, _)| p.iter().zip(x).all(|(&c, &b)| c <= b))
        .map(|(_, &v)| v)
        .sum()
}

/// Full audit after a phase: arena bookkeeping, structural invariants,
/// and the invariant-walk total against the oracle.
fn audit(tree: &DdcTree<i64>, oracle: &Oracle) {
    let reachable = tree.check_arena();
    assert_eq!(tree.check_invariants(), oracle_total(oracle));
    let stats = tree.stats();
    assert_eq!(
        (stats.nodes, stats.leaf_blocks),
        reachable,
        "counted vs reachable nodes and leaf blocks"
    );
}

/// [`audit`] plus sampled prefix sums and cell reads against the oracle
/// (always including the far corner, i.e. the total).
fn audit_and_sample(tree: &DdcTree<i64>, oracle: &Oracle, rng: &mut DdcRng, what: &str) {
    audit(tree, oracle);
    let (d, side) = (tree.ndim(), tree.side());
    let mut points = vec![vec![side - 1; d]];
    for _ in 0..6 {
        points.push((0..d).map(|_| rng.gen_range(0..side)).collect());
    }
    for x in &points {
        assert_eq!(
            tree.prefix_sum(x),
            oracle_prefix(oracle, x),
            "{what}: prefix at {x:?}"
        );
        assert_eq!(
            tree.cell(x),
            oracle.get(x).copied().unwrap_or(0),
            "{what}: cell at {x:?}"
        );
    }
}

/// Both ends of §4.4 on both base stores, and the derived default
/// (side-16/16/8 leaf blocks for d = 1/2/3, so the trees below start as
/// one block and gain their levels by growing).
fn configs() -> [DdcConfig; 5] {
    [
        DdcConfig::dynamic().with_elision(0),
        DdcConfig::sparse().with_elision(1),
        DdcConfig::dynamic().with_elision(1),
        DdcConfig::sparse().with_elision(0),
        DdcConfig::dynamic(),
    ]
}

for_cases! {
    /// Randomized churn: interleaved updates, cancellations (driving
    /// cells back to zero) and growth in random directions. After every
    /// phase the arena audit passes, the invariant walk reconciles with
    /// the oracle total, and sampled prefix sums agree.
    fn arena_survives_update_cancel_grow_churn(rng, cases = 24) {
        let d = rng.gen_range(1usize..=3);
        let side = [8, 16][rng.gen_range(0usize..2)];
        let config = configs()[rng.gen_range(0usize..5)];
        let mut tree = DdcTree::<i64>::new(d, side, config);
        let mut oracle = Oracle::new();
        let mut side_now = side;

        for _phase in 0..6 {
            match rng.gen_range(0usize..9) {
                // Mostly updates: a burst of random deltas.
                0..=5 => {
                    for _ in 0..rng.gen_range(4usize..20) {
                        let p: Vec<usize> =
                            (0..d).map(|_| rng.gen_range(0..side_now)).collect();
                        let delta = rng.gen_range(-30i64..=30);
                        tree.apply_delta(&p, delta);
                        oracle_add(&mut oracle, &p, delta);
                    }
                }
                // Cancellation: zero out a handful of populated cells.
                6..=7 => {
                    let cells: Vec<(Vec<usize>, i64)> =
                        oracle.iter().map(|(p, &v)| (p.clone(), v)).collect();
                    for (p, v) in cells.into_iter().take(5) {
                        tree.apply_delta(&p, -v);
                        oracle_add(&mut oracle, &p, -v);
                    }
                }
                // Growth: double the side, shifting content on the
                // low-grown axes by the old side.
                _ => {
                    let low: Vec<bool> = (0..d).map(|_| rng.gen_range(0usize..2) == 0).collect();
                    tree.grow(&low);
                    oracle = oracle
                        .into_iter()
                        .map(|(p, v)| {
                            let q: Vec<usize> = p
                                .iter()
                                .zip(&low)
                                .map(|(&c, &l)| if l { c + side_now } else { c })
                                .collect();
                            (q, v)
                        })
                        .collect();
                    side_now *= 2;
                }
            }
            audit_and_sample(&tree, &oracle, rng, "churn phase");
        }
        assert_eq!(tree.total(), oracle_total(&oracle));
    }

    /// Build-order independence on the one construction path:
    /// `from_array_with` (one point update per non-zero cell, row-major)
    /// and the same cells applied in a seeded shuffled order land on
    /// equal `stats()` and the array's prefix sums, and both pass the arena
    /// audit — at every rank 1..=3 under every configuration. A fresh
    /// engine's op counter reads zero, whatever building it cost.
    fn from_array_matches_shuffled_point_updates_and_passes_audit(rng, cases = 4) {
        use ddc_array::{OpSnapshot, RangeSumEngine};
        let side = 16;
        for d in 1..=3 {
            for config in configs() {
                let shape = Shape::new(&vec![side; d]);
                let mut cells = Oracle::new();
                for _ in 0..rng.gen_range(5usize..40) {
                    let p: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
                    oracle_add(&mut cells, &p, rng.gen_range(-20i64..=20));
                }
                let dense = NdArray::from_fn(shape, |p| cells.get(p).copied().unwrap_or(0));
                let built = DdcEngine::from_array_with(&dense, config);
                assert_eq!(built.ops(), OpSnapshot::default());
                let mut order: Vec<(Vec<usize>, i64)> = cells.into_iter().collect();
                order.sort();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let mut shuffled = DdcTree::<i64>::new(d, side, config);
                for (p, v) in &order {
                    shuffled.apply_delta(p, *v);
                }
                let what = format!("d={d} {config:?}");
                for t in [built.tree(), &shuffled] {
                    t.check_arena();
                    assert_eq!(t.check_invariants(), dense.total(), "{what}");
                }
                assert_eq!(built.tree().stats(), shuffled.stats(), "{what}: stats");
                for _ in 0..8 {
                    let x: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
                    let want = dense.prefix_sum(&x);
                    assert_eq!(built.tree().prefix_sum(&x), want, "{what}: prefix at {x:?}");
                    assert_eq!(shuffled.prefix_sum(&x), want, "{what}: shuffled prefix at {x:?}");
                }
            }
        }
    }
}

/// Deterministic `TreeStats` / `heap_bytes` regression: a fixed
/// lifecycle on a d=2 tree pins the structure at every stage. Structural
/// counts are exact; byte totals are asserted relationally (consistent
/// with `stats`, unchanged where nothing is allocated) so the test does
/// not depend on allocator or `Vec` growth policy. Cancelling a path
/// frees nothing: its records stay, read zero, and the audit still
/// reaches every one of them.
#[test]
fn stats_and_heap_bytes_track_the_arena_lifecycle() {
    let mut tree = DdcTree::<i64>::new(2, 16, DdcConfig::dynamic().with_elision(0));

    // Empty tree: nothing allocated anywhere.
    let s0 = tree.stats();
    assert_eq!((s0.nodes, s0.boxes, s0.leaf_blocks), (0, 0, 0));
    assert_eq!(tree.check_arena(), (0, 0));
    assert_eq!(s0.total_bytes, tree.heap_bytes());

    // One deep path: root(16) -> node(8) -> node(4) -> leaf block(2x2).
    tree.apply_delta(&[0, 0], 5);
    let s1 = tree.stats();
    assert_eq!(s1.nodes, 3, "three interior levels above the leaf block");
    assert_eq!(s1.leaf_blocks, 1);
    assert_eq!(s1.leaf_cells, 4);
    assert_eq!(tree.check_arena(), (3, 1));
    assert_eq!(s1.boxes, 3, "one overlay box per interior level");
    assert_eq!(s1.depth, 3);
    assert_eq!(s1.total_bytes, tree.heap_bytes());
    assert!(s1.secondary_bytes > 0, "faces must be accounted");

    // A second, disjoint path shares the root only.
    tree.apply_delta(&[15, 15], 7);
    let s2 = tree.stats();
    assert_eq!(
        s2.nodes, 5,
        "two extra interior nodes under the shared root"
    );
    assert_eq!(s2.leaf_blocks, 2);
    assert_eq!(tree.check_arena(), (5, 2));
    let populated_bytes = tree.heap_bytes();
    assert_eq!(s2.total_bytes, populated_bytes);

    // Cancel one path, then the other: the structure and its bytes stay
    // exactly as they were, and every record is still reached.
    for (p, v) in [([15, 15], -7), ([0, 0], -5)] {
        tree.apply_delta(&p, v);
        assert_eq!(tree.stats(), s2);
        assert_eq!(tree.check_arena(), (5, 2));
        assert_eq!(tree.heap_bytes(), populated_bytes);
    }
    assert_eq!(tree.total(), 0);
    assert_eq!(tree.check_invariants(), 0);
    assert_eq!(tree.populated_cells(), 0);
}

/// One step of a cumulant-shaped churn: the update, then the full audit.
fn churn_step(
    engine: &mut DdcEngine<i64>,
    oracle: &mut Oracle,
    rng: &mut DdcRng,
    (p, v): (&[usize], i64),
    what: &str,
) {
    use ddc_array::RangeSumEngine;
    engine.apply_delta(p, v);
    oracle_add(oracle, p, v);
    audit_and_sample(engine.tree(), oracle, rng, what);
}

/// Reload is the reclamation path, in the cumulant shape: seeded updates
/// and exact cancellations at d = 2 and 3 under `dynamic()` and
/// `sparse()`, with the arena audit, the invariant walk and sampled
/// prefix sums against an oracle after *every* step. A closing phase
/// cancels half the surviving cells. The snapshot of the churned cube
/// then loads into a tree whose `stats()` and `heap_bytes()` are those
/// of a tree built from the surviving `entries()` alone — and smaller
/// than the churned one, whose cancelled paths are still allocated.
#[test]
fn reload_holds_what_the_surviving_cells_build() {
    use ddc_array::RangeSumEngine;
    // Spaces wide enough that most cells have a leaf block to themselves.
    for (d, side) in [(2usize, 1024usize), (3, 64)] {
        for config in [DdcConfig::dynamic(), DdcConfig::sparse()] {
            let what = format!("d={d} {config:?}");
            let mut rng = DdcRng::seed_from_u64(0x2E10_AD00 + d as u64);
            let shape = Shape::cube(d, side);
            let mut engine = DdcEngine::<i64>::with_config(shape.clone(), config);
            let mut oracle = Oracle::new();
            for _ in 0..240 {
                // One step in three cancels a populated cell exactly.
                let cancel = rng.gen_range(0usize..3) == 0 && !oracle.is_empty();
                let (p, v) = if cancel {
                    let mut cells: Vec<_> = oracle.iter().map(|(p, &v)| (p.clone(), -v)).collect();
                    cells.sort();
                    cells.swap_remove(rng.gen_range(0..cells.len()))
                } else {
                    let p: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
                    (p, rng.gen_range(-30i64..=30))
                };
                churn_step(&mut engine, &mut oracle, &mut rng, (&p, v), &what);
            }
            let mut survivors: Vec<_> = oracle.iter().map(|(p, &v)| (p.clone(), v)).collect();
            survivors.sort();
            for (p, v) in survivors.into_iter().step_by(2) {
                churn_step(&mut engine, &mut oracle, &mut rng, (&p, -v), &what);
            }

            let mut snapshot = Vec::new();
            engine.save(&mut snapshot).expect("save to memory");
            let loaded = DdcEngine::<i64>::load(&mut &snapshot[..], config).expect("load");
            let built = DdcEngine::from_entries(shape, config, &engine.entries());
            audit(loaded.tree(), &oracle);
            assert_eq!(loaded.tree().stats(), built.tree().stats(), "{what}");
            assert_eq!(loaded.heap_bytes(), built.heap_bytes(), "{what}");
            let (churned, reloaded) = (engine.tree().stats(), loaded.tree().stats());
            assert!(
                reloaded.leaf_blocks < churned.leaf_blocks,
                "{what}: reload kept every leaf block: {reloaded:?}"
            );
            assert!(loaded.heap_bytes() < engine.heap_bytes(), "{what}");
        }
    }
}

/// Regions of a `d`-cube of `side` to sample a range walk on: the full
/// space, then single cells, origin-anchored regions (the walk's prefix
/// fast path), suffix-shaped ones (boundary leaf blocks scanned from
/// their low end) and random ones, `each` of every kind.
fn sample_regions(d: usize, side: usize, each: usize, rng: &mut DdcRng) -> Vec<Region> {
    let mut point = || -> Vec<usize> { (0..d).map(|_| rng.gen_range(0..side)).collect() };
    let mut regions = vec![Region::new(&vec![0; d], &vec![side - 1; d])];
    for _ in 0..each {
        let cell = point();
        regions.push(Region::cell(&cell));
        regions.push(Region::prefix(&point()));
        regions.push(Region::new(&point(), &vec![side - 1; d]));
        let (p, q) = (point(), point());
        let lo: Vec<usize> = p.iter().zip(&q).map(|(a, b)| *a.min(b)).collect();
        let hi: Vec<usize> = p.iter().zip(&q).map(|(a, b)| *a.max(b)).collect();
        regions.push(Region::new(&lo, &hi));
    }
    regions
}

/// Figure 4: the signed sum of the tree's prefix sums at the region's
/// corners.
fn figure4(tree: &DdcTree<i64>, region: &Region) -> i64 {
    let mut corner = vec![0; region.ndim()];
    let mut acc = 0;
    region.for_each_prefix_term(&mut corner, |sign, corner| {
        acc += i64::from(sign) * tree.prefix_sum(corner);
    });
    acc
}

/// Full audit of a tree against the dense reference: slab bookkeeping,
/// structural invariants, sampled prefix sums and cell reads (always
/// including the far corner, i.e. the total), and the range walk on
/// sampled regions against both the brute-force region sum and Figure 4.
fn audit_dense(tree: &DdcTree<i64>, a: &NdArray<i64>, rng: &mut DdcRng, what: &str) {
    let d = tree.ndim();
    let side = tree.side();
    assert_eq!(
        a.shape().dims(),
        &vec![side; d][..],
        "{what}: reference shape"
    );
    tree.check_arena();
    assert_eq!(
        tree.check_invariants(),
        a.total(),
        "{what}: invariant total"
    );
    assert_eq!(tree.total(), a.total(), "{what}: total");
    let mut points = vec![vec![side - 1; d], vec![0; d]];
    for _ in 0..10 {
        points.push((0..d).map(|_| rng.gen_range(0..side)).collect());
    }
    for x in &points {
        assert_eq!(
            tree.prefix_sum(x),
            a.prefix_sum(x),
            "{what}: prefix at {x:?}"
        );
        assert_eq!(tree.cell(x), a.get(x), "{what}: cell at {x:?}");
    }
    for region in sample_regions(d, side, 2, rng) {
        let (lo, hi) = (region.lo(), region.hi());
        let want = a.region_sum(&region);
        assert_eq!(
            tree.range_sum(lo, hi),
            want,
            "{what}: range {lo:?}..={hi:?}"
        );
        assert_eq!(
            figure4(tree, &region),
            want,
            "{what}: Figure 4 {lo:?}..={hi:?}"
        );
    }
}

/// The reference's side doubled, content shifted up by the old side in
/// the `low` dimensions — what [`DdcTree::grow`] does to the tree.
fn grown(a: &NdArray<i64>, low: &[bool]) -> NdArray<i64> {
    let d = low.len();
    let old = a.shape().dim(0);
    let mut q = vec![0usize; d];
    NdArray::from_fn(Shape::cube(d, 2 * old), |p| {
        for i in 0..d {
            let shift = if low[i] { old } else { 0 };
            if p[i] < shift || p[i] - shift >= old {
                return 0;
            }
            q[i] = p[i] - shift;
        }
        a.get(&q)
    })
}

fn random_updates(tree: &mut DdcTree<i64>, a: &mut NdArray<i64>, rng: &mut DdcRng, n: usize) {
    let (d, side) = (tree.ndim(), tree.side());
    for _ in 0..n {
        let p: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
        let delta = rng.gen_range(1i64..=40);
        tree.apply_delta(&p, delta);
        a.add_assign(&p, delta);
    }
}

/// Drives every cell but the first `keep` populated ones back to zero.
fn cancel_all_but(tree: &mut DdcTree<i64>, a: &mut NdArray<i64>, keep: usize) {
    let mut cells = Vec::new();
    tree.for_each_nonzero(&mut |p, v| cells.push((p.to_vec(), v)));
    for (p, v) in cells.into_iter().skip(keep) {
        tree.apply_delta(&p, -v);
        a.add_assign(&p, -v);
    }
}

/// Seeded differential sweep of the level-slab tree against a
/// brute-force `NdArray`: d ∈ 1..=`MAX_RANK` × `elide_levels` ∈ {0..=3,
/// derived from the rank} × {Basic, Dynamic over both `BaseStore`s} × {leaf
/// cells in memory, behind a two-page pool of 64-byte pages, behind one
/// of 96-byte pages}, each through update → grow high → grow low →
/// cancel a third → cancel to one cell → refill → rebuild by
/// `from_array_with`, with
/// `check_arena` + `check_invariants` and sampled answers after every
/// phase. Sides are chosen so the sweep crosses the degenerate
/// single-leaf tree, growth out of it, and both inline face kinds
/// (blocked, flat) as well as forests of every rank down to the
/// one-dimensional trees of `sparse()`. Under the derived default (sides
/// 16/16/8/4) every tree starts as one leaf block and gains its first
/// level by growing — a level whose forest, at d ≥ 3, has leaf blocks
/// wider than its side, i.e. secondary trees of one leaf run each. The
/// paged twins move a populated arena onto pages and then grow, cancel
/// and refill there: block runs are 16 B to 4 KiB, so they
/// share a page, fill whole pages, and — every run of 64 B and up over
/// 96-byte pages — straddle page boundaries. Past d = 4 a grown
/// reference would not fit in memory: those ranks run the derived leaf
/// side only (2, the same as `h = 0`) at side 4, so every walk compiled
/// for them crosses an overlay level, and they skip the two growth
/// phases.
#[test]
fn slab_tree_matches_brute_force_across_dims_modes_and_bases() {
    let configs = [
        DdcConfig::basic(),
        DdcConfig::dynamic(),
        DdcConfig::sparse(),
    ];
    let mut evictions = 0;
    for d in 1..=MAX_RANK {
        let (side, grows) = if d <= 4 {
            ([16, 8, 4, 2][d - 1], true)
        } else {
            (4, false)
        };
        for (hi, h) in [Some(0), Some(1), Some(2), Some(3), None]
            .into_iter()
            .enumerate()
        {
            for (ci, base_config) in configs.iter().enumerate() {
                let base_config = h.map_or(*base_config, |h| base_config.with_elision(h));
                if !grows && h.is_some() {
                    continue;
                }
                // A two-page pool re-faults a block on every access, so
                // the paged twins stop at 4 KiB blocks (64 pages).
                let block_cells = base_config.leaf_block_side(d).pow(d as u32);
                let pages: &[Option<usize>] = if block_cells <= LEAF_BLOCK_CELLS {
                    &[None, Some(64), Some(96)]
                } else {
                    &[None]
                };
                for &page in pages {
                    let config = match page {
                        Some(bytes) => base_config.with_paged_leaves(
                            PagerConfig::in_mem(2 * bytes).with_page_bytes(bytes),
                        ),
                        None => base_config,
                    };
                    let what = format!("d={d} h={h:?} config#{ci} page={page:?}");
                    let mut rng =
                        DdcRng::seed_from_u64(0x51AB_0000 + (d * 100 + hi * 10 + ci) as u64);
                    let mut tree = DdcTree::<i64>::new(d, side, config);
                    let mut a = NdArray::<i64>::zeroed(Shape::cube(d, side));

                    random_updates(&mut tree, &mut a, &mut rng, 24);
                    // A populated arena moves onto pages cell for cell.
                    let paged = tree.enable_paging().expect("in-memory spill");
                    assert_eq!(paged, page.is_some(), "{what}");
                    audit_dense(&tree, &a, &mut rng, &format!("{what} update"));
                    if grows {
                        if h.is_none() {
                            let s = tree.stats();
                            assert_eq!((s.nodes, s.leaf_blocks), (0, 1), "{what}");
                        }

                        tree.grow(&vec![false; d]);
                        a = grown(&a, &vec![false; d]);
                        random_updates(&mut tree, &mut a, &mut rng, 24);
                        audit_dense(&tree, &a, &mut rng, &format!("{what} grow high"));

                        let mut low: Vec<bool> =
                            (0..d).map(|_| rng.gen_range(0usize..2) == 0).collect();
                        low[rng.gen_range(0..d)] = true;
                        tree.grow(&low);
                        a = grown(&a, &low);
                        random_updates(&mut tree, &mut a, &mut rng, 24);
                        audit_dense(&tree, &a, &mut rng, &format!("{what} grow low"));
                        if h.is_none() {
                            let s = tree.stats();
                            assert_eq!(s.leaf_side, [16, 16, 8, 4][d - 1], "{what}");
                            assert!(s.nodes >= 1, "{what}: growth created no level");
                        }
                    } else {
                        assert!(tree.stats().nodes >= 1, "{what}: no overlay level");
                    }
                    let populated = a.clone();

                    let live = tree.populated_cells();
                    cancel_all_but(&mut tree, &mut a, live / 3);
                    audit_dense(&tree, &a, &mut rng, &format!("{what} cancel"));

                    cancel_all_but(&mut tree, &mut a, 1);
                    audit_dense(&tree, &a, &mut rng, &format!("{what} one survivor"));
                    random_updates(&mut tree, &mut a, &mut rng, 12);
                    audit_dense(&tree, &a, &mut rng, &format!("{what} refill"));
                    assert_eq!(tree.is_paged(), paged, "{what}: growth changed the backend");
                    evictions += tree.pool_stats().map_or(0, |s| s.evictions);

                    let mut rebuilt = DdcEngine::from_array_with(&populated, config);
                    assert_eq!(rebuilt.enable_paging().expect("in-memory spill"), paged);
                    audit_dense(
                        rebuilt.tree(),
                        &populated,
                        &mut rng,
                        &format!("{what} rebuilt"),
                    );
                }
            }
        }
    }
    assert!(
        evictions > 10_000,
        "two-page pools barely evicted: {evictions}"
    );
}

/// Paged twins under a tiny cap — 1 KiB: a three-page pool of 256-byte
/// pages and a four-entry change buffer — answer every sampled prefix
/// and range like the in-memory tree after *every* update, at d = 1, 2
/// and 3 under the derived leaf side, and pass the arena audit (which
/// checks the buffer's chains and counters) after every update too.
/// A leaf scan copies only the rows it reads; at d = 3 those are rows
/// of a rank-3 block (8 × 8 × 8), each a plane of 64 cells, and the
/// scan descends into each plane's own rows.
#[test]
fn paged_twins_under_a_tiny_cap_match_memory_after_every_update() {
    let pager = PagerConfig::in_mem(1024).with_page_bytes(256);
    for (d, side) in [(1usize, 1024usize), (2, 64), (3, 16)] {
        let config = DdcConfig::dynamic();
        let mut mem = DdcTree::<i64>::new(d, side, config);
        let mut paged = DdcTree::<i64>::new(d, side, config.with_paged_leaves(pager));
        assert!(paged.enable_paging().expect("in-memory spill"));
        let mut rng = DdcRng::seed_from_u64(0x9A6E_D000 + d as u64);
        for step in 0..200 {
            // Bursts of updates between reads let the buffer fill.
            for _ in 0..rng.gen_range(1usize..=6) {
                let p: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
                let delta = rng.gen_range(-20i64..=20);
                mem.apply_delta(&p, delta);
                paged.apply_delta(&p, delta);
            }
            for region in sample_regions(d, side, 1, &mut rng) {
                let (lo, hi) = (region.lo(), region.hi());
                let what = format!("d={d} step {step}: {lo:?}..={hi:?}");
                assert_eq!(paged.range_sum(lo, hi), mem.range_sum(lo, hi), "{what}");
                assert_eq!(paged.prefix_sum(hi), mem.prefix_sum(hi), "{what}");
            }
            paged.check_arena();
        }
        assert_eq!(paged.check_invariants(), mem.check_invariants());
        let stats = paged.pool_stats().expect("paged tree");
        assert!(
            stats.buffered > 0 && stats.merged > 0 && stats.evictions > 0,
            "d={d}: {stats:?}"
        );
    }
}

/// The forests of d ≥ 3 through their whole lifecycle: a populated
/// 16³ / 8⁴ full tree (`h = 0`: forests of two to four levels) and a
/// 32³ / 16⁴ tree under the derived leaf side (row-cumulative runs at
/// d = 3, forests whose trees are one leaf run at d = 4) is cancelled
/// down to one cell, half the remaining cells
/// a round, and then refilled. The audit (which walks every forest from
/// the roots of its level's box records) and sampled answers run after
/// *every* round, not only at the end. A cancel writes only into records
/// its cell's earlier updates allocated, so the heap does not move.
#[test]
fn forested_trees_cancel_down_to_one_cell() {
    let full = DdcConfig::dynamic().with_elision(0);
    for (d, side, config) in [
        (3usize, 16usize, full),
        (4, 8, full),
        (3, 32, DdcConfig::dynamic()),
        (4, 16, DdcConfig::dynamic()),
    ] {
        let mut rng = DdcRng::seed_from_u64(0xF0_2E57 + d as u64);
        let mut tree = DdcTree::<i64>::new(d, side, config);
        let mut oracle = Oracle::new();
        for _ in 0..200 {
            let p: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
            let delta = rng.gen_range(1i64..=40);
            tree.apply_delta(&p, delta);
            oracle_add(&mut oracle, &p, delta);
        }
        audit_and_sample(
            &tree,
            &oracle,
            &mut rng,
            &format!("d={d} side={side} populate"),
        );
        let populated_bytes = tree.heap_bytes();

        while oracle.len() > 1 {
            let mut cells: Vec<(Vec<usize>, i64)> =
                oracle.iter().map(|(p, &v)| (p.clone(), v)).collect();
            cells.sort();
            let what = format!("d={d} side={side} at {} cells", cells.len());
            let cancel = cells.len().div_ceil(2).min(cells.len() - 1);
            for (p, v) in cells.into_iter().take(cancel) {
                tree.apply_delta(&p, -v);
                oracle_add(&mut oracle, &p, -v);
            }
            audit_and_sample(&tree, &oracle, &mut rng, &format!("{what}, cancel"));
            assert_eq!(tree.heap_bytes(), populated_bytes, "{what}");
        }
        assert_eq!(tree.populated_cells(), 1);

        // The forests take new trees again.
        for _ in 0..40 {
            let p: Vec<usize> = (0..d).map(|_| rng.gen_range(0..side)).collect();
            let delta = rng.gen_range(1i64..=40);
            tree.apply_delta(&p, delta);
            oracle_add(&mut oracle, &p, delta);
        }
        audit_and_sample(
            &tree,
            &oracle,
            &mut rng,
            &format!("d={d} side={side} refill"),
        );
    }
}

/// Smoke case at the largest rank a tree is built for: a 4^8 cube
/// against brute force, through the tree's update, prefix, range and
/// cell paths and the engine's range sum. One rank more is refused
/// when the tree is built.
#[test]
fn top_rank_cube_matches_brute_force() {
    use ddc_array::RangeSumEngine;
    let (d, side) = (MAX_RANK, 4);
    let refused =
        std::panic::catch_unwind(|| DdcTree::<i64>::new(MAX_RANK + 1, side, DdcConfig::dynamic()));
    assert!(
        refused.is_err(),
        "a tree of rank {} was built",
        MAX_RANK + 1
    );
    let mut rng = DdcRng::seed_from_u64(0x9D);
    let mut tree = DdcTree::<i64>::new(d, side, DdcConfig::dynamic());
    let mut a = NdArray::<i64>::zeroed(Shape::cube(d, side));
    random_updates(&mut tree, &mut a, &mut rng, 12);
    audit_dense(&tree, &a, &mut rng, "top rank update");
    cancel_all_but(&mut tree, &mut a, 3);
    audit_dense(&tree, &a, &mut rng, "top rank cancel");

    let engine = DdcEngine::from_array_with(&a, DdcConfig::dynamic());
    for _ in 0..3 {
        let (lo, hi): (Vec<usize>, Vec<usize>) = (0..d)
            .map(|_| {
                let (p, q) = (rng.gen_range(0..side), rng.gen_range(0..side));
                (p.min(q), p.max(q))
            })
            .unzip();
        let region = Region::new(&lo, &hi);
        assert_eq!(
            engine.range_sum(&region),
            a.region_sum(&region),
            "top rank range {lo:?}..={hi:?}"
        );
    }
}

/// The range walk never reads more than Figure 4 in aggregate: for
/// `dynamic()`, `basic()` and `sparse()` at the derived leaf side,
/// `h = 0` and `h = 1`, d = 1…`MAX_RANK`, over a few hundred sampled
/// regions of a populated tree, both the walk's total reads and its
/// largest reads for one region are at most the Figure 4 sum of
/// `prefix_sum`s'. Not per region: a leaf block the region cuts at its
/// low end is scanned as a suffix, which can be more cells than the
/// prefix Figure 4 reads in it. Past d = 4 the side is 4, twice the
/// leaf side at `h = 0` and derived (`h = 1` is left out there), so
/// every walk crosses an overlay level.
#[test]
fn range_walk_reads_no_more_than_figure4() {
    for d in 1..=MAX_RANK {
        let side = [256, 64, 32, 16].get(d - 1).copied().unwrap_or(4);
        for base in [
            DdcConfig::dynamic(),
            DdcConfig::basic(),
            DdcConfig::sparse(),
        ] {
            for config in [base, base.with_elision(0), base.with_elision(1)] {
                if 2 * config.leaf_block_side(d) > side {
                    continue;
                }
                let what = format!("d={d} {config:?}");
                let mut rng = DdcRng::seed_from_u64(0x4A1C + d as u64);
                let mut tree = DdcTree::<i64>::new(d, side, config);
                let mut a = NdArray::<i64>::zeroed(Shape::cube(d, side));
                random_updates(&mut tree, &mut a, &mut rng, 1500);
                let (mut walk, mut fig4) = ((0u64, 0u64), (0u64, 0u64));
                // Figure 4 costs 2^d prefix sums a region.
                let each = 50 >> d.saturating_sub(5);
                for region in sample_regions(d, side, each, &mut rng) {
                    let (lo, hi) = (region.lo(), region.hi());
                    let before = tree.ops().reads;
                    let got = tree.range_sum(lo, hi);
                    let between = tree.ops().reads;
                    assert_eq!(figure4(&tree, &region), got, "{what}: {lo:?}..={hi:?}");
                    let (w, f) = (between - before, tree.ops().reads - between);
                    walk = (walk.0 + w, walk.1.max(w));
                    fig4 = (fig4.0 + f, fig4.1.max(f));
                }
                assert!(
                    walk.0 <= fig4.0,
                    "{what}: total reads {walk:?} vs Figure 4 {fig4:?}"
                );
                assert!(
                    walk.1 <= fig4.1,
                    "{what}: largest reads {walk:?} vs Figure 4 {fig4:?}"
                );
            }
        }
    }
}

/// Layout pin: the paper-scale d = 2 cube (1024², 2^18 seeded cells,
/// the `core_d2_mixed` population) must stay within 160 heap bytes per
/// populated cell.
#[test]
fn packed_tree_stays_within_160_bytes_per_cell() {
    let mut rng = DdcRng::seed_from_u64(0xDDC_0B17);
    let mut tree = DdcTree::<i64>::new(2, 1024, DdcConfig::dynamic());
    let mut seen = std::collections::HashSet::new();
    while seen.len() < 1 << 18 {
        let p = [rng.gen_range(0usize..1024), rng.gen_range(0usize..1024)];
        if seen.insert(p) {
            tree.apply_delta(&p, rng.gen_range(1i64..=100));
        }
    }
    let cells = tree.populated_cells();
    assert_eq!(cells, 1 << 18);
    let per_cell = tree.heap_bytes() / cells;
    assert!(per_cell <= 160, "{per_cell} heap bytes per populated cell");
}

/// The d = 3 twin: the `core_d3_query` population (64³, 2^17 seeded
/// cells) must stay within 200 heap bytes per populated cell — one
/// forest per level instead of one heap-allocated tree per row-sum
/// group, and since the side ≤ 32 groups are row-cumulative runs, no
/// forest at all (~27 bytes).
#[test]
fn forested_tree_stays_within_200_bytes_per_cell() {
    let mut rng = DdcRng::seed_from_u64(0xDDC_0B17);
    let mut tree = DdcTree::<i64>::new(3, 64, DdcConfig::dynamic());
    let mut seen = std::collections::HashSet::new();
    while seen.len() < 1 << 17 {
        let p = [0; 3].map(|_| rng.gen_range(0usize..64));
        if seen.insert(p) {
            tree.apply_delta(&p, rng.gen_range(1i64..=100));
        }
    }
    let cells = tree.populated_cells();
    assert_eq!(cells, 1 << 17);
    let per_cell = tree.heap_bytes() / cells;
    assert!(per_cell <= 200, "{per_cell} heap bytes per populated cell");
}

/// One cumulant-shaped step on a cube of signed coordinates: the
/// update (or, every fourth step, the cancellation of a populated
/// cell) of a point in `(−span, span]^d` on the oracle. Returns the
/// point and the delta for the cube under test.
fn signed_step(
    oracle: &mut ddc_check::Oracle,
    step: usize,
    span: i64,
    rng: &mut DdcRng,
) -> (Vec<i64>, i64) {
    let d = oracle.ndim();
    let entries = oracle.entries();
    let (p, delta) = if step % 4 == 3 && !entries.is_empty() {
        let (p, v) = &entries[rng.gen_range(0..entries.len())];
        (p.clone(), -v)
    } else {
        let p: Vec<i64> = (0..d).map(|_| rng.gen_range(1 - span..=span)).collect();
        (p, rng.gen_range(1i64..=40))
    };
    oracle.add(&p, delta);
    (p, delta)
}

/// Row-cumulative runs (the inline layout of a d = 3 level's groups of
/// side ≤ 32 under `dynamic()`) through their whole lifecycle, in the
/// cumulant shape: after *every* update or cancellation the total, a
/// prefix sum and a range sum against the oracle, then
/// `check_invariants` (every run's far corner is its box's subtotal)
/// and `check_arena`. On a bounded 64³ engine, whose every level keeps
/// its groups as runs, and on growable cubes at d = 3 and d = 4 that
/// start inside a 2-wide box and grow past side 64: each doubling's
/// `grow` rebuilds the new top level's runs from the populated cells,
/// and at d = 4 the runs are those of the rank-3 levels of the forests.
#[test]
fn row_cumulative_runs_match_the_oracle_after_every_step() {
    let mut rng = DdcRng::seed_from_u64(0x20C0_3333);
    let mut engine = DdcEngine::<i64>::dynamic(Shape::cube(3, 64));
    let mut oracle = ddc_check::Oracle::new(3);
    for step in 0..300 {
        let (p, delta) = signed_step(&mut oracle, step, 32, &mut rng);
        let p: Vec<usize> = p.iter().map(|&c| (c + 31) as usize).collect();
        engine.apply_delta(&p, delta);
        let corner =
            |rng: &mut DdcRng| -> Vec<usize> { (0..3).map(|_| rng.gen_range(0..64)).collect() };
        let (a, b) = (corner(&mut rng), corner(&mut rng));
        let lo: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
        let hi: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
        let signed = |v: &[usize]| -> Vec<i64> { v.iter().map(|&c| c as i64 - 31).collect() };
        let what = format!("64³ step {step}: {lo:?}..={hi:?}");
        assert_eq!(
            engine.range_sum(&Region::new(&lo, &hi)),
            oracle.range_sum(&signed(&lo), &signed(&hi)),
            "{what}"
        );
        assert_eq!(
            engine.prefix_sum(&hi),
            oracle.range_sum(&[-31; 3], &signed(&hi)),
            "{what}"
        );
        assert_eq!(engine.tree().check_invariants(), oracle.total(), "{what}");
        engine.tree().check_arena();
    }

    for (d, steps) in [(3usize, 240usize), (4, 120)] {
        let mut cube = GrowableCube::<i64>::new(d, DdcConfig::dynamic());
        let mut oracle = ddc_check::Oracle::new(d);
        for step in 0..steps {
            // The span widens from a 2-wide box to ±48, past side 64.
            let span = 1 + (48 * step / steps) as i64;
            let (p, delta) = signed_step(&mut oracle, step, span, &mut rng);
            cube.add(&p, delta);
            let lo = cube.origin().to_vec();
            let hi: Vec<i64> = (lo.iter().zip(cube.extent()))
                .map(|(&o, &n)| rng.gen_range(o..o + n as i64))
                .collect();
            let mid: Vec<i64> = lo
                .iter()
                .zip(&hi)
                .map(|(&a, &b)| rng.gen_range(a..=b))
                .collect();
            let what = format!("d={d} side {} step {step}: ..={hi:?}", cube.side());
            assert_eq!(cube.total(), oracle.total(), "{what}");
            assert_eq!(
                cube.range_sum(&lo, &hi),
                oracle.range_sum(&lo, &hi),
                "{what}"
            );
            assert_eq!(
                cube.range_sum(&mid, &hi),
                oracle.range_sum(&mid, &hi),
                "{what}"
            );
            assert_eq!(cube.check_invariants(), oracle.total(), "{what}");
            cube.check_arena();
        }
        assert!(cube.side() > 64, "d={d}: grew only to side {}", cube.side());
    }
}
