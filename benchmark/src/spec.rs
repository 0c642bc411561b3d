//! The four workloads and their fixed sizes.
//!
//! Everything is a count, never a duration: the preload, the ops per
//! cycle and the number of cycles are fixed, so op counts, WAL records
//! and restart work are identical from run to run. `--seconds` only
//! scales the per-cycle counts linearly from their value at
//! [`BASE_SECONDS`], where a run measures for about that long on the
//! two-core box the sizes were chosen on.

/// Where a workload's cube lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A `DdcEngine` inside the benchmark process.
    InProcess,
    /// A `ddc serve --side N --shards 1 --workers 1` child on loopback.
    Serve,
    /// A `ddc serve --durable DIR --dims D --mem-cap BYTES --workers 1`
    /// child on loopback.
    Durable {
        /// The `--mem-cap` handed to the child, in bytes.
        mem_cap: usize,
    },
}

/// Ops per part of one measurement cycle, at [`BASE_SECONDS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleOps {
    /// Ops of the workload's mix, run as one burst: `ops_per_s`.
    pub mixed: usize,
    /// Updates run as one burst: `update_us`.
    pub updates: usize,
    /// Range sums run as one burst: `query_us`.
    pub ranges: usize,
    /// Ops of the mix run one at a time, each timed: the round-trip
    /// diagnostics (p50 and p99 per kind).
    pub singles: usize,
}

/// One workload: shape, preload, op mix and per-cycle counts.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Where the cube lives.
    pub target: Target,
    /// Number of dimensions (at most [`crate::ops::MAX_DIMS`]).
    pub dims: usize,
    /// Side of the cube; a power of two.
    pub side: usize,
    /// Point updates applied before anything is measured.
    pub preload: usize,
    /// Share of updates in the measured mix, in percent.
    pub update_pct: u32,
    /// Share of prefix sums, in percent; the rest are range sums.
    pub prefix_pct: u32,
    /// Ops per cycle at [`BASE_SECONDS`].
    pub cycle: CycleOps,
    /// What the yardstick (the benchmark's own Fenwick tree, checking
    /// the cycle's ops) cost per op on the box the sizes were chosen
    /// on, in nanoseconds. Timings are reported as if every machine ran
    /// the yardstick at this speed; see README, "calibration".
    pub yardstick_ref_ns: f64,
}

/// Measurement cycles per run. Every reported timing is a median
/// across these.
pub const ROUNDS: usize = 100;

/// The `--seconds` value at which [`Spec::cycle`] applies unscaled.
pub const BASE_SECONDS: u64 = 15;

/// Requests per pipelined batch on the wire; two batches are in flight.
pub const WIRE_BATCH: usize = 256;

/// How many times a run sets up from scratch; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Ranges checked against the oracle after the durable restart.
pub const RESTART_SAMPLES: usize = 1000;

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "core_d2_mixed",
        target: Target::InProcess,
        dims: 2,
        side: 1024,
        preload: 1 << 18,
        update_pct: 50,
        prefix_pct: 25,
        cycle: CycleOps {
            mixed: 10_000,
            updates: 4_000,
            ranges: 2_000,
            singles: 3_000,
        },
        yardstick_ref_ns: 490.0,
    },
    Spec {
        name: "core_d3_query",
        target: Target::InProcess,
        dims: 3,
        side: 64,
        preload: 1 << 17,
        update_pct: 10,
        prefix_pct: 0,
        cycle: CycleOps {
            mixed: 500,
            updates: 600,
            ranges: 250,
            singles: 300,
        },
        yardstick_ref_ns: 930.0,
    },
    Spec {
        name: "serve_mixed",
        target: Target::Serve,
        dims: 2,
        side: 256,
        preload: 1 << 18,
        update_pct: 50,
        prefix_pct: 25,
        cycle: CycleOps {
            mixed: 64 * WIRE_BATCH,
            updates: 16 * WIRE_BATCH,
            ranges: 8 * WIRE_BATCH,
            singles: 1_000,
        },
        yardstick_ref_ns: 130.0,
    },
    Spec {
        name: "durable_paged_mixed",
        target: Target::Durable { mem_cap: 16 << 20 },
        dims: 2,
        side: 2048,
        preload: 1 << 18,
        update_pct: 50,
        prefix_pct: 0,
        cycle: CycleOps {
            mixed: 16 * WIRE_BATCH,
            updates: 4 * WIRE_BATCH,
            ranges: 4 * WIRE_BATCH,
            singles: 300,
        },
        yardstick_ref_ns: 1070.0,
    },
];

impl Spec {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Cells in the cube, `side^dims`.
    pub fn cells(&self) -> usize {
        self.side.pow(self.dims as u32)
    }

    /// Distinct cells the preload populates. Measured updates draw from
    /// these only, so no tree node is first materialised under the timer.
    pub fn populated(&self) -> usize {
        self.preload.min(self.cells())
    }

    /// The per-cycle counts for `--seconds`. On the wire a burst is a
    /// whole number of [`WIRE_BATCH`]es, at least two, so that two
    /// batches are in flight.
    pub fn cycle_for(&self, seconds: u64) -> CycleOps {
        let burst = |count: usize| {
            let n = scale(count, seconds);
            match self.target {
                Target::InProcess => n,
                _ => (n / WIRE_BATCH).max(2) * WIRE_BATCH,
            }
        };
        CycleOps {
            mixed: burst(self.cycle.mixed),
            updates: burst(self.cycle.updates),
            ranges: burst(self.cycle.ranges),
            singles: scale(self.cycle.singles, seconds),
        }
    }

    /// Ops the traced run replays at each layer for `--seconds`: about a
    /// mixed burst's worth, but enough for a median of the rarest op
    /// kind and few enough to keep the span file small.
    pub fn trace_ops_for(&self, seconds: u64) -> usize {
        scale(self.cycle.mixed.clamp(4096, 16384), seconds)
    }

    /// The workload to run when the durable directory is not on tmpfs.
    /// There every acknowledged update pays a real `sync_data` (about
    /// 0.4 ms on the box this was sized on, against 1 µs on tmpfs), and
    /// the full-size workload would run for minutes. This smaller one
    /// keeps a run inside the time limit; its numbers say nothing about
    /// the tmpfs ones.
    pub fn off_tmpfs(self) -> Spec {
        let shrink = |n: usize| n / 16;
        Spec {
            preload: self.preload / 64,
            cycle: CycleOps {
                mixed: shrink(self.cycle.mixed),
                updates: shrink(self.cycle.updates),
                ranges: shrink(self.cycle.ranges),
                singles: shrink(self.cycle.singles),
            },
            ..self
        }
    }
}

fn scale(count: usize, seconds: u64) -> usize {
    ((count as u64 * seconds / BASE_SECONDS) as usize).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(Spec::by_name(w.name).map(|s| s.name), Some(w.name));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.side.is_power_of_two() && w.dims <= crate::ops::MAX_DIMS);
            assert!(w.update_pct + w.prefix_pct <= 100);
        }
        assert!(Spec::by_name("nope").is_none());
    }

    #[test]
    fn counts_scale_with_seconds_and_keep_whole_batches() {
        let serve = Spec::by_name("serve_mixed").expect("workload");
        assert_eq!(serve.cycle_for(BASE_SECONDS), serve.cycle);
        assert_eq!(
            serve.cycle_for(2 * BASE_SECONDS).mixed,
            2 * serve.cycle.mixed
        );
        let tiny = serve.cycle_for(1);
        for burst in [tiny.mixed, tiny.updates, tiny.ranges] {
            assert!(burst % WIRE_BATCH == 0 && burst >= 2 * WIRE_BATCH);
        }
        let core = Spec::by_name("core_d2_mixed").expect("workload");
        assert_eq!(
            core.cycle_for(2 * BASE_SECONDS).singles,
            2 * core.cycle.singles
        );
        assert_eq!(core.populated(), 1 << 18);
        assert_eq!(serve.populated(), 256 * 256);
        assert_eq!(serve.off_tmpfs().cycle.mixed, 4 * WIRE_BATCH);
    }
}
