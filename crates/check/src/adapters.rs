//! Uniform drivers over every engine in the workspace.
//!
//! A [`CheckEngine`] speaks the trace's language — signed logical
//! coordinates, growth in any direction, save/load round-trips — and
//! each adapter translates that onto one engine's real API.
//! Fixed-shape engines have no growth story, so the one adapter
//! they share *rebuilds* on [`CheckEngine::grow`] by copying cells into
//! a larger instance; every other engine grows organically and treats
//! it as a no-op — the durable ones too, the crate's [`Rig`] on an
//! in-memory disk.

use ddc_array::{OpCounter, RangeSumEngine, Region, Shape};
use ddc_baselines::{
    GrowablePrefixSum, MultiFenwick, NaiveEngine, PrefixSumEngine, RelativePrefixEngine,
};
use ddc_core::vfs::MemVfs;
use ddc_core::wal::IoError;
use ddc_core::{
    DdcConfig, DdcEngine, GrowableCube, PagerConfig, ShardConfig, ShardedCube, SharedCube,
};
use ddc_workload::BoxState;

use crate::rig::Rig;

/// One engine under differential test, addressed in trace coordinates.
/// Only an engine with a log can refuse a mutation (`Err`); the runner
/// reports that as a divergence.
pub trait CheckEngine {
    /// Display name, including any config variant.
    fn name(&self) -> &str;

    /// Adds `delta` at the signed logical `point`.
    fn add(&mut self, point: &[i64], delta: i64) -> Result<(), IoError>;

    /// Sets the cell, returning the previous value (compared).
    fn set(&mut self, point: &[i64], value: i64) -> Result<i64, IoError>;

    /// Reads one cell (compared).
    fn cell(&self, point: &[i64]) -> i64;

    /// Range sum over the closed logical box (compared).
    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64;

    /// The covered box grew by `amount` cells along `axis` (at the low
    /// end when `low`); `new_box` is the box *after* growth. Nothing to
    /// do for an engine that grows organically.
    fn grow(
        &mut self,
        _new_box: &BoxState,
        _axis: usize,
        _amount: usize,
        _low: bool,
    ) -> Result<(), IoError> {
        Ok(())
    }

    /// Save/load round-trip for engines that persist. Non-persistent
    /// engines return `Ok(())` untouched.
    fn save_load(&mut self) -> Result<(), String> {
        Ok(())
    }

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

/// An engine through its snapshot format and back.
pub type Reload<E> = fn(&E) -> Result<E, String>;

/// Adapter for every fixed-shape [`RangeSumEngine`]: keeps the current
/// box origin for coordinate translation and rebuilds (copying every
/// populated cell) when the box grows. What differs per engine — how to
/// build one, a save/load round trip, a flush — is supplied where the
/// roster is built.
pub struct FixedAdapter<E> {
    label: String,
    engine: E,
    origin: Vec<i64>,
    build: Box<dyn Fn(Shape) -> E + Send>,
    reload: Option<Reload<E>>,
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
            reload: None,
        }
    }

    /// [`CheckEngine::save_load`] replaces the engine with `reload` of it.
    pub fn reloading(mut self, reload: Reload<E>) -> Self {
        self.reload = Some(reload);
        self
    }

    /// Logical → physical: the one coordinate translation.
    fn phys(&self, point: &[i64]) -> Vec<usize> {
        let shifted = point.iter().zip(&self.origin);
        shifted.map(|(&c, &o)| (c - o) as usize).collect()
    }
}

impl<E: RangeSumEngine<i64>> CheckEngine for FixedAdapter<E> {
    fn name(&self) -> &str {
        &self.label
    }

    fn add(&mut self, point: &[i64], delta: i64) -> Result<(), IoError> {
        self.engine.apply_delta(&self.phys(point), delta);
        Ok(())
    }

    fn set(&mut self, point: &[i64], value: i64) -> Result<i64, IoError> {
        Ok(self.engine.set(&self.phys(point), value))
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.engine.cell(&self.phys(point))
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        let region = Region::new(&self.phys(lo), &self.phys(hi));
        self.engine.range_sum(&region)
    }

    fn grow(&mut self, new_box: &BoxState, _: usize, _: usize, _: bool) -> Result<(), IoError> {
        let mut next = (self.build)(Shape::new(&new_box.dims));
        for p in self.engine.shape().iter_points() {
            let v = self.engine.cell(&p);
            if v != 0 {
                // Physical-in-old → logical → physical-in-new.
                let logical = p.iter().zip(&self.origin).map(|(&c, &o)| c as i64 + o);
                let moved = logical.zip(&new_box.origin).map(|(c, &o)| (c - o) as usize);
                next.apply_delta(&moved.collect::<Vec<_>>(), v);
            }
        }
        self.engine = next;
        self.origin = new_box.origin.clone();
        Ok(())
    }

    fn save_load(&mut self) -> Result<(), String> {
        if let Some(reload) = self.reload {
            self.engine = reload(&self.engine)?;
        }
        Ok(())
    }
}

fn reload_ddc(engine: &DdcEngine<i64>) -> Result<DdcEngine<i64>, String> {
    let mut buf = Vec::new();
    engine.save(&mut buf).map_err(|e| format!("save: {e}"))?;
    DdcEngine::load(&mut buf.as_slice(), *engine.config()).map_err(|e| format!("load: {e}"))
}

/// The DDC engine proper under `config`, with a real save/load
/// round-trip through an in-memory buffer. If `config` asks for paged
/// leaves, the leaf arena is converted before any op lands.
pub fn ddc_adapter(
    label: &str,
    init: &BoxState,
    config: DdcConfig,
) -> FixedAdapter<DdcEngine<i64>> {
    let build = move |shape| {
        let mut engine = DdcEngine::with_config(shape, config);
        engine.enable_paging().expect("enable paged leaf arena");
        engine
    };
    FixedAdapter::new(label, init, build).reloading(reload_ddc)
}

/// The lock-guarded [`SharedCube`] behind the engine interface (its own
/// methods take `&self`, so it has no use for the trait).
struct Locked {
    cube: SharedCube<i64>,
    shape: Shape,
    ops: OpCounter,
}

impl Locked {
    fn over(engine: DdcEngine<i64>) -> Self {
        Self {
            shape: engine.shape().clone(),
            cube: SharedCube::from_engine(engine),
            ops: OpCounter::new(),
        }
    }
}

impl RangeSumEngine<i64> for Locked {
    fn name(&self) -> &'static str {
        "shared-cube"
    }
    fn shape(&self) -> &Shape {
        &self.shape
    }
    fn prefix_sum(&self, point: &[usize]) -> i64 {
        self.cube.prefix_sum(point)
    }
    fn apply_delta(&mut self, point: &[usize], delta: i64) {
        self.cube.apply_delta(point, delta);
    }
    fn range_sum(&self, region: &Region) -> i64 {
        self.cube.range_sum(region)
    }
    fn cell(&self, point: &[usize]) -> i64 {
        self.cube.cell(point)
    }
    fn counter(&self) -> &OpCounter {
        &self.ops
    }
    fn heap_bytes(&self) -> usize {
        self.cube.heap_bytes()
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

    fn add(&mut self, point: &[i64], delta: i64) -> Result<(), IoError> {
        self.cube.add(point, delta);
        Ok(())
    }

    fn set(&mut self, point: &[i64], value: i64) -> Result<i64, IoError> {
        Ok(self.cube.set(point, value))
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.cube.cell(point)
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.cube.range_sum(lo, hi)
    }

    fn save_load(&mut self) -> Result<(), String> {
        let mut buf = Vec::new();
        self.cube.save(&mut buf).map_err(|e| format!("save: {e}"))?;
        self.cube = GrowableCube::load(&mut buf.as_slice(), self.config)
            .map_err(|e| format!("load: {e}"))?;
        Ok(())
    }
}

/// The write-ahead-logged cube: the crate's rig (`rig.rs`) on an
/// in-memory disk. Every mutation is an update record appended and
/// synced to `wal.log` *before* it is applied (a set is the update of
/// `value − cell`), [`CheckEngine::save_load`] checkpoints (and
/// proves the checkpoint loadable by re-booting from it),
/// [`CheckEngine::crash`] drops the cube and re-boots it from what the
/// disk holds. Since every op this engine applied was acknowledged,
/// recovery must reproduce the oracle's state exactly.
pub struct DurableEngine {
    label: String,
    /// `Err` when the first boot failed; the first mutation reports it.
    rig: Result<Rig<MemVfs>, String>,
}

impl DurableEngine {
    /// Boots a durable cube of `init`'s rank on `disk`.
    pub fn new(label: &str, disk: MemVfs, init: &BoxState, config: DdcConfig) -> Self {
        Self {
            label: label.to_string(),
            rig: Rig::boot(disk, init.ndim(), config).map_err(|e| format!("boot: {e}")),
        }
    }

    fn rig(&mut self) -> Result<&mut Rig<MemVfs>, IoError> {
        self.rig.as_mut().map_err(|why| IoError::Transient {
            detail: why.clone(),
            retries: 0,
        })
    }
}

impl CheckEngine for DurableEngine {
    fn name(&self) -> &str {
        &self.label
    }

    fn add(&mut self, point: &[i64], delta: i64) -> Result<(), IoError> {
        self.rig()?.durable.add(point, delta)
    }

    fn set(&mut self, point: &[i64], value: i64) -> Result<i64, IoError> {
        self.rig()?.set(point, value)
    }

    fn cell(&self, point: &[i64]) -> i64 {
        (self.rig.as_ref()).map_or(0, |rig| rig.durable.cube().cell(point))
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        (self.rig.as_ref()).map_or(0, |rig| rig.durable.cube().range_sum(lo, hi))
    }

    fn save_load(&mut self) -> Result<(), String> {
        let rig = self.rig().map_err(|e| e.to_string())?;
        rig.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        self.crash()
    }

    fn crash(&mut self) -> Result<(), String> {
        let rig = self.rig().map_err(|e| e.to_string())?;
        rig.crash().map_err(|e| format!("recover: {e}"))
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

    fn add(&mut self, point: &[i64], delta: i64) -> Result<(), IoError> {
        self.cube.add(point, delta);
        Ok(())
    }

    fn set(&mut self, point: &[i64], value: i64) -> Result<i64, IoError> {
        let old = self.cell(point);
        self.cube.add(point, value - old);
        Ok(old)
    }

    fn cell(&self, point: &[i64]) -> i64 {
        self.cube.range_sum(point, point)
    }

    fn range_sum(&self, lo: &[i64], hi: &[i64]) -> i64 {
        self.cube.range_sum(lo, hi)
    }
}

/// Every engine in the workspace, wrapped and ready to replay a trace
/// whose initial covered box is `init`.
pub fn engine_roster(init: &BoxState) -> Vec<Box<dyn CheckEngine>> {
    let paged = DdcConfig::dynamic()
        .with_elision(1)
        .with_paged_leaves(PagerConfig::in_mem(4 * 1024).with_page_bytes(256));
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
        // the differential net: the Basic mode's flat arrays and the
        // blocked B^c faces (`ddc-elide0`), both written inline in the
        // level slabs, and the lazy base store's one-dimensional trees
        // in the level's forest.
        Box::new(ddc_adapter(
            "ddc-basic",
            init,
            DdcConfig::basic().with_elision(0),
        )),
        Box::new(ddc_adapter("ddc-dynamic", init, DdcConfig::dynamic())),
        Box::new(ddc_adapter(
            "ddc-sparse",
            init,
            DdcConfig::sparse().with_elision(0),
        )),
        Box::new(ddc_adapter(
            "ddc-elide0",
            init,
            DdcConfig::dynamic().with_elision(0),
        )),
        // Paged leaf arena over a deliberately tiny in-memory buffer
        // pool: every trace churns through page faults, clock eviction
        // and record re-faulting, differentially checked against all
        // the slab engines above.
        Box::new(ddc_adapter("ddc-paged", init, paged)),
        // The lock-guarded cube; its round trip saves under the read
        // lock.
        Box::new(
            FixedAdapter::new("shared-cube", init, |shape| {
                Locked::over(DdcEngine::with_config(shape, DdcConfig::dynamic()))
            })
            .reloading(|locked| locked.cube.with_read(reload_ddc).map(Locked::over)),
        ),
        // The commit pipeline: a run is one commit per stretch the cube
        // covers.
        Box::new(FixedAdapter::new("sharded", init, |shape| {
            ShardedCube::<i64>::new(shape, DdcConfig::dynamic(), ShardConfig::default())
        })),
        Box::new(GrowableAdapter::new(
            "growable-ddc",
            init,
            DdcConfig::dynamic(),
        )),
        Box::new(GrowableAdapter::new("growable-paged", init, paged)),
        Box::new(DurableEngine::new(
            "durable-wal",
            MemVfs::new(),
            init,
            DdcConfig::dynamic(),
        )),
        // WAL + paged leaves together: recovery replays the log
        // straight onto freshly-faulted pages.
        Box::new(DurableEngine::new(
            "durable-paged",
            MemVfs::new(),
            init,
            paged,
        )),
        Box::new(GrowableDenseAdapter::new(init)),
    ]
}
