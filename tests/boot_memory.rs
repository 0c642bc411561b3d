//! Peak heap of a boot and of a checkpoint, counted by the global
//! allocator. A boot streams its log through one verified chunk at a
//! time and a checkpoint streams its snapshot the same way, so neither
//! may hold heap that grows with the file: two boots that rebuild the
//! same cube from logs of 10 k and 40 k records peak within one chunk of
//! each other, and so do the checkpoints of a small and a large cube
//! (above the heap the cube itself holds). One test, so no other thread
//! of this binary allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ddc_core::vfs::{OpenMode, StdVfs, Vfs, CHUNK_BYTES};
use ddc_core::wal::{self, RetryPolicy, WalWriter};
use ddc_core::DdcConfig;

/// `System`, counting the bytes live and the most ever live at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, size);
        if !q.is_null() {
            match size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => _ = LIVE.fetch_sub(layout.size() - size, Relaxed),
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the most heap live at once while
/// it ran, above what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

/// Writes a log of `records` updates that cycle through `cells` cells
/// of a 1024-wide strip, with positive deltas (no cell returns to zero).
fn write_log(path: &str, records: usize, cells: usize) {
    let file = StdVfs.open(path, OpenMode::Create).expect("create log");
    let mut writer = WalWriter::create(file).expect("log header");
    let updates: Vec<(Vec<i64>, i64)> = (0..records)
        .map(|i| {
            let cell = (i % cells) as i64;
            (vec![cell % 1024, cell / 1024], (i % 9) as i64 + 1)
        })
        .collect();
    for group in updates.chunks(4096) {
        writer
            .append_updates(group, &RetryPolicy::instant())
            .expect("append");
    }
}

#[test]
fn boot_and_checkpoint_heap_does_not_grow_with_the_file() {
    let dir = std::env::temp_dir().join(format!("ddc-boot-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).display().to_string();
    let boot = |log: &str| {
        let config = DdcConfig::dynamic();
        wal::recover_vfs::<i64, _>(&StdVfs, log, None, 2, config, RetryPolicy::instant())
            .expect("boot")
    };
    write_log(&path("short.log"), 10_000, 1_000);
    write_log(&path("long.log"), 40_000, 1_000);
    write_log(&path("wide.log"), 16_000, 16_000);
    // Warm up: the first boot registers the process-wide metrics.
    drop(boot(&path("short.log")));

    let ((short, report), short_peak) = peak_during(|| boot(&path("short.log")));
    assert_eq!(report.replayed, 10_000);
    let ((long, report), long_peak) = peak_during(|| boot(&path("long.log")));
    assert_eq!(report.replayed, 40_000);
    assert_eq!(
        short.cube().populated_cells(),
        long.cube().populated_cells()
    );
    assert!(
        short_peak.abs_diff(long_peak) < CHUNK_BYTES,
        "boot peak heap {short_peak} B for 10 k records, {long_peak} B for 40 k"
    );
    drop((short, long));

    // A checkpoint's heap above the cube's: 1 000 cells against 16 000.
    let (mut small, _) = boot(&path("short.log"));
    let (mut large, _) = boot(&path("wide.log"));
    assert_eq!(large.cube().populated_cells(), 16_000);
    let checkpoint = |cube: &mut wal::DurableCube<i64, std::fs::File>, name: &str| {
        let snapshot = path(&format!("{name}.ddc"));
        peak_during(|| (cube.checkpoint_vfs(&StdVfs, &snapshot, &path(name))).expect("checkpoint"))
    };
    // Warm up: the first checkpoint registers the snapshot metrics.
    checkpoint(&mut small, "short.log");
    let (small_bytes, small_peak) = checkpoint(&mut small, "short.log");
    let (large_bytes, large_peak) = checkpoint(&mut large, "wide.log");
    assert!(large_bytes > small_bytes + 8 * CHUNK_BYTES as u64);
    assert!(
        small_peak.abs_diff(large_peak) < CHUNK_BYTES,
        "checkpoint peak heap {small_peak} B for {small_bytes} B, {large_peak} B for {large_bytes} B"
    );
    drop((small, large));
    std::fs::remove_dir_all(&dir).ok();
}
