//! Uniform drivers over every engine in the workspace.
//!
//! A [`CheckEngine`] speaks the trace's language — signed logical
//! coordinates, growth in any direction, save/load round-trips, flush
//! barriers — and each adapter translates that onto one engine's real
//! API. Fixed-shape engines (the Table-1 baselines) have no growth
//! story, so their adapter *rebuilds* on [`CheckEngine::grow`] by
//! copying cells into a larger instance; the growable engines grow
//! organically and treat it as a no-op.

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_baselines::{
    GrowablePrefixSum, MultiFenwick, NaiveEngine, PrefixSumEngine, RelativePrefixEngine,
};
use ddc_core::{
    wal, DdcConfig, DdcEngine, DurableCube, GrowableCube, PagerConfig, ShardConfig, ShardedCube,
    SharedCube,
};
use ddc_workload::BoxState;

/// One engine under differential test, addressed in trace coordinates.
pub trait CheckEngine {
    /// Display name, including any config variant.
    fn name(&self) -> &str;

    /// Adds `delta` at the signed logical `point`.
    fn add(&mut self, point: &[i64], delta: i64);

    /// Sets the cell, returning the previous value (compared).
    fn set(&mut self, point: &[i64], value: i64) -> i64;

    /// Reads one cell (compared).
    fn cell(&self, point: &[i64]) -> i64;

    /// Range sum over the closed logical box (compared).
    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64;

    /// The covered box grew; `new_box` is the box *after* growth.
    fn grow(&mut self, new_box: &BoxState);

    /// Save/load round-trip for engines that persist. Non-persistent
    /// engines return `Ok(())` untouched.
    fn save_load(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Group-commit barrier for engines with write queues.
    fn flush(&mut self) {}

    /// Simulated process kill: drop every volatile structure and
    /// rebuild from the last snapshot plus the write-ahead log. Every
    /// acknowledged op must survive; none that was never acked may
    /// appear. Engines with no durability story keep their state
    /// (a no-op) — the comparison against the oracle still holds
    /// because recovery must be exact.
    fn crash(&mut self) -> Result<(), String> {
        Ok(())
    }
}

fn phys(point: &[i64], origin: &[i64]) -> Vec<usize> {
    point
        .iter()
        .zip(origin)
        .map(|(&c, &o)| (c - o) as usize)
        .collect()
}

/// Adapter for fixed-shape [`RangeSumEngine`]s: keeps the current box
/// origin for coordinate translation and rebuilds (copying every
/// populated cell) when the box grows.
pub struct FixedAdapter<E: RangeSumEngine<i64>> {
    label: String,
    engine: E,
    origin: Vec<i64>,
    build: Box<dyn Fn(Shape) -> E + Send>,
}

impl<E: RangeSumEngine<i64>> FixedAdapter<E> {
    /// Wraps a fresh engine covering `init`, built by `build`.
    pub fn new(
        label: impl Into<String>,
        init: &BoxState,
        build: impl Fn(Shape) -> E + Send + 'static,
    ) -> Self {
        let engine = build(Shape::new(&init.dims));
        Self {
            label: label.into(),
            engine,
            origin: init.origin.clone(),
            build: Box::new(build),
        }
    }
}

impl<E: RangeSumEngine<i64>> CheckEngine for FixedAdapter<E> {
    fn name(&self) -> &str {
        &self.label
    }

    fn add(&mut self, point: &[i64], delta: i64) {
        self.engine.apply_delta(&phys(point, &self.origin), delta);
    }

    fn set(&mut self, point: &[i64], value: i64) -> i64 {
        self.engine.set(&phys(point, &self.origin), value)
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.engine.cell(&phys(point, &self.origin))
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.engine.range_sum(&Region::new(
            &phys(lo, &self.origin),
            &phys(hi, &self.origin),
        ))
    }

    fn grow(&mut self, new_box: &BoxState) {
        let mut next = (self.build)(Shape::new(&new_box.dims));
        for p in self.engine.shape().iter_points() {
            let v = self.engine.cell(&p);
            if v != 0 {
                // Physical-in-old → logical → physical-in-new.
                let shifted: Vec<usize> = p
                    .iter()
                    .zip(self.origin.iter().zip(&new_box.origin))
                    .map(|(&c, (&old_o, &new_o))| (c as i64 + old_o - new_o) as usize)
                    .collect();
                next.apply_delta(&shifted, v);
            }
        }
        self.engine = next;
        self.origin = new_box.origin.clone();
    }
}

/// Adapter for the DDC engine proper, with a real save/load round-trip
/// through an in-memory buffer on [`CheckEngine::save_load`].
pub struct DdcAdapter {
    label: String,
    engine: DdcEngine<i64>,
    origin: Vec<i64>,
    config: DdcConfig,
}

impl DdcAdapter {
    /// Fresh DDC cube over `init` under `config`. If `config` asks for
    /// paged leaves, the leaf arena is converted before any op lands.
    pub fn new(label: impl Into<String>, init: &BoxState, config: DdcConfig) -> Self {
        let mut engine = DdcEngine::with_config(Shape::new(&init.dims), config);
        engine.enable_paging().expect("enable paged leaf arena");
        Self {
            label: label.into(),
            engine,
            origin: init.origin.clone(),
            config,
        }
    }
}

impl CheckEngine for DdcAdapter {
    fn name(&self) -> &str {
        &self.label
    }

    fn add(&mut self, point: &[i64], delta: i64) {
        self.engine.apply_delta(&phys(point, &self.origin), delta);
    }

    fn set(&mut self, point: &[i64], value: i64) -> i64 {
        self.engine.set(&phys(point, &self.origin), value)
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.engine.cell(&phys(point, &self.origin))
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.engine.range_sum(&Region::new(
            &phys(lo, &self.origin),
            &phys(hi, &self.origin),
        ))
    }

    fn grow(&mut self, new_box: &BoxState) {
        let mut next = DdcEngine::with_config(Shape::new(&new_box.dims), self.config);
        next.enable_paging().expect("enable paged leaf arena");
        for (p, v) in self.engine.entries() {
            let shifted: Vec<usize> = p
                .iter()
                .zip(self.origin.iter().zip(&new_box.origin))
                .map(|(&c, (&old_o, &new_o))| (c as i64 + old_o - new_o) as usize)
                .collect();
            next.apply_delta(&shifted, v);
        }
        self.engine = next;
        self.origin = new_box.origin.clone();
    }

    fn save_load(&mut self) -> Result<(), String> {
        let mut buf = Vec::new();
        self.engine
            .save(&mut buf)
            .map_err(|e| format!("save: {e}"))?;
        self.engine =
            DdcEngine::load(&mut buf.as_slice(), self.config).map_err(|e| format!("load: {e}"))?;
        Ok(())
    }
}

/// Adapter for the lock-guarded [`SharedCube`].
pub struct SharedAdapter {
    cube: SharedCube<i64>,
    origin: Vec<i64>,
    config: DdcConfig,
}

impl SharedAdapter {
    /// Fresh shared cube over `init` under `config`.
    pub fn new(init: &BoxState, config: DdcConfig) -> Self {
        Self {
            cube: SharedCube::new(Shape::new(&init.dims), config),
            origin: init.origin.clone(),
            config,
        }
    }
}

impl CheckEngine for SharedAdapter {
    fn name(&self) -> &str {
        "shared-cube"
    }

    fn add(&mut self, point: &[i64], delta: i64) {
        self.cube.apply_delta(&phys(point, &self.origin), delta);
    }

    fn set(&mut self, point: &[i64], value: i64) -> i64 {
        let p = phys(point, &self.origin);
        self.cube.with_write(|e| e.set(&p, value))
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.cube.cell(&phys(point, &self.origin))
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.cube.range_sum(&Region::new(
            &phys(lo, &self.origin),
            &phys(hi, &self.origin),
        ))
    }

    fn grow(&mut self, new_box: &BoxState) {
        let shifted: Vec<(Vec<usize>, i64)> = self
            .cube
            .entries()
            .into_iter()
            .map(|(p, v)| {
                let q: Vec<usize> = p
                    .iter()
                    .zip(self.origin.iter().zip(&new_box.origin))
                    .map(|(&c, (&old_o, &new_o))| (c as i64 + old_o - new_o) as usize)
                    .collect();
                (q, v)
            })
            .collect();
        self.cube = SharedCube::new(Shape::new(&new_box.dims), self.config);
        self.cube.apply_batch(&shifted);
        self.origin = new_box.origin.clone();
    }

    fn save_load(&mut self) -> Result<(), String> {
        let config = self.config;
        let loaded = self.cube.with_read(|e| {
            let mut buf = Vec::new();
            e.save(&mut buf).map_err(|x| format!("save: {x}"))?;
            DdcEngine::load(&mut buf.as_slice(), config).map_err(|x| format!("load: {x}"))
        })?;
        self.cube = SharedCube::from_engine(loaded);
        Ok(())
    }
}

/// Adapter for the write-batching [`ShardedCube`]; queries read through
/// the queues, so no flush is needed for correctness — only the
/// explicit [`CheckEngine::flush`] barrier drains them.
pub struct ShardedAdapter {
    label: String,
    cube: ShardedCube<i64>,
    origin: Vec<i64>,
    config: DdcConfig,
    shard_config: ShardConfig,
}

impl ShardedAdapter {
    /// Fresh sharded cube over `init`.
    pub fn new(
        label: impl Into<String>,
        init: &BoxState,
        config: DdcConfig,
        shard_config: ShardConfig,
    ) -> Self {
        Self {
            label: label.into(),
            cube: ShardedCube::new(Shape::new(&init.dims), config, shard_config),
            origin: init.origin.clone(),
            config,
            shard_config,
        }
    }
}

impl CheckEngine for ShardedAdapter {
    fn name(&self) -> &str {
        &self.label
    }

    fn add(&mut self, point: &[i64], delta: i64) {
        self.cube.update(&phys(point, &self.origin), delta);
    }

    fn set(&mut self, point: &[i64], value: i64) -> i64 {
        let p = phys(point, &self.origin);
        let old = self.cube.cell_value(&p);
        self.cube.update(&p, value - old);
        old
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.cube.cell_value(&phys(point, &self.origin))
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.cube.query(&Region::new(
            &phys(lo, &self.origin),
            &phys(hi, &self.origin),
        ))
    }

    fn grow(&mut self, new_box: &BoxState) {
        self.cube.flush();
        let shifted: Vec<(Vec<usize>, i64)> = self
            .cube
            .entries()
            .into_iter()
            .map(|(p, v)| {
                let q: Vec<usize> = p
                    .iter()
                    .zip(self.origin.iter().zip(&new_box.origin))
                    .map(|(&c, (&old_o, &new_o))| (c + old_o - new_o) as usize)
                    .collect();
                (q, v)
            })
            .collect();
        self.cube = ShardedCube::new(Shape::new(&new_box.dims), self.config, self.shard_config);
        for (point, delta) in &shifted {
            self.cube.update(point, *delta);
        }
        self.origin = new_box.origin.clone();
    }

    fn flush(&mut self) {
        self.cube.flush();
    }
}

/// Adapter for the natively growable DDC cube — signed coordinates pass
/// straight through and [`CheckEngine::grow`] is organic (a no-op).
pub struct GrowableAdapter {
    label: String,
    cube: GrowableCube<i64>,
    config: DdcConfig,
}

impl GrowableAdapter {
    /// Fresh growable cube; `init` only fixes dimensionality, the cube
    /// covers points as they arrive.
    pub fn new(label: impl Into<String>, init: &BoxState, config: DdcConfig) -> Self {
        let mut cube = GrowableCube::with_origin(&init.origin, config);
        cube.enable_paging().expect("enable paged leaf arena");
        Self {
            label: label.into(),
            cube,
            config,
        }
    }
}

impl CheckEngine for GrowableAdapter {
    fn name(&self) -> &str {
        &self.label
    }

    fn add(&mut self, point: &[i64], delta: i64) {
        self.cube.add(point, delta);
    }

    fn set(&mut self, point: &[i64], value: i64) -> i64 {
        self.cube.set(point, value)
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.cube.cell(point)
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.cube.range_sum(lo, hi)
    }

    fn grow(&mut self, _new_box: &BoxState) {}

    fn save_load(&mut self) -> Result<(), String> {
        let mut buf = Vec::new();
        self.cube.save(&mut buf).map_err(|e| format!("save: {e}"))?;
        self.cube = GrowableCube::load(&mut buf.as_slice(), self.config)
            .map_err(|e| format!("load: {e}"))?;
        Ok(())
    }
}

/// Adapter for the write-ahead-logged [`DurableCube`]: every mutation
/// is appended and flushed to an in-memory log *before* it is applied,
/// snapshots land in an in-memory buffer, and [`CheckEngine::crash`]
/// drops the cube and rebuilds it from snapshot + log. Since every op
/// this adapter applied was acknowledged, recovery must reproduce the
/// oracle's state exactly.
pub struct DurableAdapter {
    label: String,
    durable: DurableCube<i64, Vec<u8>>,
    snapshot: Option<Vec<u8>>,
    prev: BoxState,
    config: DdcConfig,
}

impl DurableAdapter {
    /// Fresh durable cube over `init`, logging into memory.
    pub fn new(label: impl Into<String>, init: &BoxState, config: DdcConfig) -> Self {
        Self {
            label: label.into(),
            durable: DurableCube::new(init.ndim(), config, Vec::new())
                .expect("in-memory WAL create"),
            snapshot: None,
            prev: init.clone(),
            config,
        }
    }
}

impl CheckEngine for DurableAdapter {
    fn name(&self) -> &str {
        &self.label
    }

    fn add(&mut self, point: &[i64], delta: i64) {
        self.durable
            .add(point, delta)
            .expect("in-memory WAL append");
    }

    fn set(&mut self, point: &[i64], value: i64) -> i64 {
        self.durable
            .set(point, value)
            .expect("in-memory WAL append")
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.durable.cube().cell(point)
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.durable.cube().range_sum(lo, hi)
    }

    fn grow(&mut self, new_box: &BoxState) {
        // The growable cube re-grows organically on replay; the log
        // records are covered-box bookkeeping, diffed from the box
        // transition so the Grow record path stays exercised.
        for axis in 0..new_box.ndim() {
            let low = (self.prev.origin[axis] - new_box.origin[axis]).max(0) as usize;
            if low > 0 {
                self.durable
                    .log_grow(axis, low, true)
                    .expect("in-memory WAL append");
            }
            let old_hi = self.prev.origin[axis] + self.prev.dims[axis] as i64;
            let new_hi = new_box.origin[axis] + new_box.dims[axis] as i64;
            if new_hi > old_hi {
                self.durable
                    .log_grow(axis, (new_hi - old_hi) as usize, false)
                    .expect("in-memory WAL append");
            }
        }
        self.prev = new_box.clone();
    }

    fn save_load(&mut self) -> Result<(), String> {
        // Checkpoint, truncate the log, then prove the checkpoint is
        // loadable by recovering from it immediately.
        let mut snap = Vec::new();
        self.durable
            .checkpoint(&mut snap)
            .map_err(|e| format!("checkpoint: {e}"))?;
        self.durable
            .reset_wal(Vec::new())
            .map_err(|e| format!("truncate: {e}"))?;
        self.snapshot = Some(snap);
        self.crash()
    }

    fn crash(&mut self) -> Result<(), String> {
        let d = self.durable.cube().ndim();
        // All that survives the kill: the snapshot and the log bytes.
        let log = self.durable.wal().get_ref().clone();
        let (cube, _report) = wal::recover::<i64>(d, self.snapshot.as_deref(), &log, self.config)
            .map_err(|e| format!("recover: {e}"))?;
        // Post-recovery protocol: checkpoint the recovered state, then
        // start a fresh log — the retired log is folded into the
        // snapshot, so a second crash replays from here.
        let mut snap = Vec::new();
        cube.save(&mut snap)
            .map_err(|e| format!("checkpoint: {e}"))?;
        self.snapshot = Some(snap);
        self.durable =
            DurableCube::from_recovered(cube, Vec::new()).map_err(|e| format!("fresh log: {e}"))?;
        Ok(())
    }
}

/// Adapter for the dense growable prefix-sum baseline (no point reads in
/// its API — cells derive from degenerate range sums).
pub struct GrowableDenseAdapter {
    cube: GrowablePrefixSum<i64>,
}

impl GrowableDenseAdapter {
    /// Fresh growable prefix array anchored at `init`'s origin.
    pub fn new(init: &BoxState) -> Self {
        Self {
            cube: GrowablePrefixSum::new(&init.origin),
        }
    }
}

impl CheckEngine for GrowableDenseAdapter {
    fn name(&self) -> &str {
        "growable-dense"
    }

    fn add(&mut self, point: &[i64], delta: i64) {
        self.cube.add(point, delta);
    }

    fn set(&mut self, point: &[i64], value: i64) -> i64 {
        let old = self.cell(point);
        self.cube.add(point, value - old);
        old
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.cube.range_sum(point, point)
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.cube.range_sum(lo, hi)
    }

    fn grow(&mut self, _new_box: &BoxState) {}
}

/// Every engine in the workspace, wrapped and ready to replay a trace
/// whose initial covered box is `init`.
pub fn engine_roster(init: &BoxState) -> Vec<Box<dyn CheckEngine>> {
    vec![
        Box::new(FixedAdapter::new("naive", init, NaiveEngine::<i64>::zeroed)),
        Box::new(FixedAdapter::new(
            "prefix-sum",
            init,
            PrefixSumEngine::<i64>::zeroed,
        )),
        Box::new(FixedAdapter::new(
            "relative-prefix",
            init,
            RelativePrefixEngine::<i64>::zeroed,
        )),
        Box::new(FixedAdapter::new(
            "multi-fenwick",
            init,
            MultiFenwick::<i64>::zeroed,
        )),
        // Fuzzed boxes are a few cells a side, and the leaf side that
        // `dynamic()` derives (16 at d ≤ 2, 8 at d = 3) stores most of
        // them as one or two dense blocks: `ddc-dynamic` is the
        // production default and drives those blocks (§4.4) through
        // every trace. The other three pin `h = 0`, the full tree as
        // the paper counts it, so each kind of row-sum group stays in
        // the differential net: the Basic mode's flat arrays, the
        // blocked B^c faces written inline in the level slabs
        // (`ddc-elide0`), and the one out-of-line base store (lazy
        // segment trees behind `Secondary`).
        Box::new(DdcAdapter::new(
            "ddc-basic",
            init,
            DdcConfig::basic().with_elision(0),
        )),
        Box::new(DdcAdapter::new("ddc-dynamic", init, DdcConfig::dynamic())),
        Box::new(DdcAdapter::new(
            "ddc-sparse",
            init,
            DdcConfig::sparse().with_elision(0),
        )),
        Box::new(DdcAdapter::new(
            "ddc-elide0",
            init,
            DdcConfig::dynamic().with_elision(0),
        )),
        // Paged leaf arena over a deliberately tiny in-memory buffer
        // pool: every trace churns through pin/unpin, clock eviction
        // and record re-faulting, differentially checked against all
        // the slab engines above.
        Box::new(DdcAdapter::new(
            "ddc-paged",
            init,
            DdcConfig::dynamic()
                .with_elision(1)
                .with_paged_leaves(PagerConfig::in_mem(4 * 1024).with_page_bytes(256)),
        )),
        Box::new(SharedAdapter::new(init, DdcConfig::dynamic())),
        Box::new(ShardedAdapter::new(
            "sharded(2×4)",
            init,
            DdcConfig::dynamic(),
            ShardConfig {
                shards: 2,
                batch_capacity: 4,
                ..ShardConfig::default()
            },
        )),
        Box::new(GrowableAdapter::new(
            "growable-ddc",
            init,
            DdcConfig::dynamic(),
        )),
        Box::new(GrowableAdapter::new(
            "growable-paged",
            init,
            DdcConfig::dynamic()
                .with_elision(1)
                .with_paged_leaves(PagerConfig::in_mem(4 * 1024).with_page_bytes(256)),
        )),
        Box::new(DurableAdapter::new(
            "durable-wal",
            init,
            DdcConfig::dynamic(),
        )),
        // WAL + paged leaves together: recovery replays the log
        // straight onto freshly-faulted pages.
        Box::new(DurableAdapter::new(
            "durable-paged",
            init,
            DdcConfig::dynamic()
                .with_elision(1)
                .with_paged_leaves(PagerConfig::in_mem(4 * 1024).with_page_bytes(256)),
        )),
        Box::new(GrowableDenseAdapter::new(init)),
    ]
}
