//! Integration tests for the observability layer (`ddc_core::obs`): the
//! registry under multi-threaded fire, and end-to-end proof that the
//! instrumented hot paths — engine, commit pipeline, WAL, growth, persistence —
//! actually report into it.

use ddc_array::{RangeSumEngine, Region, Shape};
use ddc_core::{
    obs, wal, DdcConfig, DdcEngine, GrowableCube, RetryPolicy, ShardConfig, ShardedCube, WalWriter,
};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 10_000;

/// Eight threads hammer one counter, one gauge, and one histogram
/// through the registry; the totals must be exact — relaxed atomics
/// lose ordering, never increments.
#[test]
fn registry_is_exact_under_eight_threads() {
    let counter = obs::counter("test.obs.hammer.count");
    let gauge = obs::gauge("test.obs.hammer.gauge");
    let hist = obs::histogram("test.obs.hammer.ns");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                // Re-resolve through the registry on the thread: every
                // thread must get the same underlying metric.
                let counter = obs::counter("test.obs.hammer.count");
                let gauge = obs::gauge("test.obs.hammer.gauge");
                let hist = obs::histogram("test.obs.hammer.ns");
                for i in 0..PER_THREAD {
                    counter.inc();
                    gauge.add(if t % 2 == 0 { 1 } else { -1 });
                    hist.record(i % 1024);
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS * PER_THREAD);
    assert_eq!(gauge.get(), 0, "paired +1/-1 threads must cancel exactly");
    let snap = hist.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(snap.max, 1023);
    assert!(snap.quantile(0.5) > 0);
}

/// Distinct names must resolve to distinct metrics even when registered
/// concurrently.
#[test]
fn concurrent_registration_keeps_names_distinct() {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let names: [&'static str; 8] = [
                    "test.obs.distinct.0",
                    "test.obs.distinct.1",
                    "test.obs.distinct.2",
                    "test.obs.distinct.3",
                    "test.obs.distinct.4",
                    "test.obs.distinct.5",
                    "test.obs.distinct.6",
                    "test.obs.distinct.7",
                ];
                obs::counter(names[t as usize]).add(t + 1);
            });
        }
    });
    for t in 0..THREADS {
        let name: &'static str = match t {
            0 => "test.obs.distinct.0",
            1 => "test.obs.distinct.1",
            2 => "test.obs.distinct.2",
            3 => "test.obs.distinct.3",
            4 => "test.obs.distinct.4",
            5 => "test.obs.distinct.5",
            6 => "test.obs.distinct.6",
            _ => "test.obs.distinct.7",
        };
        assert_eq!(obs::counter(name).get(), t + 1);
    }
}

/// Drives every instrumented subsystem once and asserts each reported:
/// the `ddc stats` acceptance list — engine updates, engine prefix and
/// range sums, commit-lock wait, WAL appends, WAL recovery replay — plus
/// growth and persistence. A prefix or range sum is one observation of
/// its own family however many corners it has: nothing else in this
/// binary queries an engine, so the counts are exact.
#[test]
fn instrumented_hot_paths_report_nonzero() {
    // Engine (both kinds): 8 prefix sums and 8 range sums each.
    let mut basic = DdcEngine::<i64>::basic(Shape::new(&[8, 8]));
    let mut dynamic = DdcEngine::<i64>::dynamic(Shape::new(&[8, 8]));
    for engine in [&mut basic, &mut dynamic] {
        for i in 0..8 {
            engine.apply_delta(&[i, i], 1);
            let _ = engine.prefix_sum(&[i, i]);
            assert_eq!(engine.range_sum(&Region::new(&[0, 1], &[i, 7])), i as i64);
        }
    }

    // The commit pipeline.
    let cube = ShardedCube::<i64>::new(
        Shape::new(&[16, 4]),
        DdcConfig::dynamic(),
        ShardConfig::default(),
    );
    for i in 0..16 {
        cube.update(&[i, i % 4], 1);
    }

    // WAL append + recovery replay.
    let mut writer = WalWriter::create(Vec::new()).expect("wal header");
    for i in 0..4i64 {
        writer
            .append_updates(&[(vec![i, -i], 1)], &RetryPolicy::instant())
            .expect("append");
    }
    let log = writer.into_inner();
    let (_cube, report) =
        wal::recover::<i64>(2, None, &log[..], DdcConfig::dynamic()).expect("recover");
    assert_eq!(report.replayed, 4);

    // Growth and persistence.
    let mut grown = GrowableCube::<i64>::new(2, DdcConfig::sparse());
    grown.add(&[0, 0], 1);
    grown.add(&[-300, 300], 1);
    let mut snapshot = Vec::new();
    grown.save(&mut snapshot).expect("save");
    let reloaded =
        GrowableCube::<i64>::load(&mut snapshot.as_slice(), DdcConfig::sparse()).expect("load");
    assert_eq!(reloaded.total(), 2);
    // Three range sums on the growable cube (`sparse()` is the Dynamic
    // mode): corners and an empty clip count one each.
    assert_eq!(grown.range_sum(&[-400, -400], &[400, 400]), 2);
    assert_eq!(grown.range_sum(&[-300, 1], &[5, 300]), 1);
    assert_eq!(grown.range_sum(&[1 << 20, 0], &[1 << 21, 0]), 0);

    let histograms: std::collections::BTreeMap<&'static str, u64> = obs::registry()
        .histograms()
        .into_iter()
        .map(|(name, snap)| (name, snap.count))
        .collect();
    for name in [
        "engine.update.basic_ddc",
        "engine.update.dynamic_ddc",
        "engine.prefix_sum.basic_ddc",
        "engine.prefix_sum.dynamic_ddc",
        "shard.queue_wait",
        "shard.commit",
        "wal.append",
        "wal.fsync",
        "wal.recover",
        "persist.save",
        "persist.load",
        "growth.grow",
    ] {
        assert!(
            histograms.get(name).copied().unwrap_or(0) > 0,
            "histogram {name:?} recorded nothing; registry: {histograms:?}"
        );
    }
    for (name, count) in [
        ("engine.prefix_sum.basic_ddc", 8),
        ("engine.prefix_sum.dynamic_ddc", 8),
        ("engine.range_sum.basic_ddc", 8),
        ("engine.range_sum.dynamic_ddc", 8 + 3),
    ] {
        assert_eq!(histograms.get(name), Some(&count), "histogram {name:?}");
    }
    assert!(obs::counter("wal.append.records").get() >= 4);
    assert!(obs::counter("wal.recover.records").get() >= 4);
    assert!(obs::counter("growth.doublings").get() > 0);
    assert!(obs::counter("persist.save.bytes").get() > 0);

    // Both renderers include the instrumented families.
    let prom = obs::prometheus_text();
    assert!(prom.contains("ddc_engine_update_dynamic_ddc_count"));
    assert!(prom.contains("ddc_shard_queue_wait_ns{quantile=\"0.99\"}"));
    assert!(prom.contains("ddc_wal_append_records"));
    let json = obs::render_json();
    assert!(json.contains("\"wal.recover.records\""));
    assert!(json.contains("\"shard.commit\""));
}
