//! Order statistics over rounds and over per-op samples.

/// The `q`-quantile of `samples` by nearest rank (`q` in `[0, 1]`): the
/// smallest sample with at least `q` of the samples at or below it.
/// Reorders `samples`. Zero when empty.
pub fn quantile<T: Copy + Ord + Default>(samples: &mut [T], q: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    let rank = (q * samples.len() as f64).ceil() as usize;
    let index = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(index).1
}

/// Median across rounds: the middle value, or the mean of the two
/// middle values. Zero when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Per-op round-trip times of one cycle's singles, in nanoseconds.
#[derive(Debug, Default)]
pub struct Singles {
    /// One sample per update.
    pub update_ns: Vec<u64>,
    /// One sample per range sum. Prefix sums are timed too, so that the
    /// pacing is the mix's, but kept out: they cost a quarter of a range
    /// sum at d=2, and the median of that bimodal pool would sit on the
    /// boundary between the two modes.
    pub range_ns: Vec<u64>,
}

impl Singles {
    /// Empties both sample sets for the next cycle.
    pub fn clear(&mut self) {
        self.update_ns.clear();
        self.range_ns.clear();
    }
}

/// What one measurement cycle took, in nanoseconds per op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cycle {
    /// The burst of mixed ops.
    pub mixed_ns: f64,
    /// The burst of updates.
    pub update_ns: f64,
    /// The burst of range sums.
    pub range_ns: f64,
    /// The yardstick over all of the cycle's ops.
    pub yardstick_ns: f64,
}

/// The cycles of a whole run; every reported timing is the [`median`]
/// across them of a per-cycle value.
#[derive(Debug, Default)]
pub struct Rounds {
    /// One entry per cycle.
    pub cycles: Vec<Cycle>,
    /// p50 single-update round trip of each cycle, µs.
    pub update_rtt_p50_us: Vec<f64>,
    /// p99 single-update round trip of each cycle, µs.
    pub update_rtt_p99_us: Vec<f64>,
    /// p50 single-range-sum round trip of each cycle, µs.
    pub query_rtt_p50_us: Vec<f64>,
    /// p99 single-range-sum round trip of each cycle, µs.
    pub query_rtt_p99_us: Vec<f64>,
}

/// The timings of a run. The calibrated ones are what `BENCHMARK.json`
/// names; the raw ones and the yardstick are printed beside them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timings {
    /// Mixed ops per second.
    pub ops_per_s: f64,
    /// Microseconds per update.
    pub update_us: f64,
    /// Microseconds per range sum.
    pub query_us: f64,
}

impl Rounds {
    /// Records the quantiles of one cycle's singles.
    pub fn push_singles(&mut self, singles: &mut Singles) {
        let us = |samples: &mut [u64], q: f64| quantile(samples, q) as f64 / 1e3;
        self.update_rtt_p50_us.push(us(&mut singles.update_ns, 0.5));
        self.update_rtt_p99_us
            .push(us(&mut singles.update_ns, 0.99));
        self.query_rtt_p50_us.push(us(&mut singles.range_ns, 0.5));
        self.query_rtt_p99_us.push(us(&mut singles.range_ns, 0.99));
    }

    /// Median yardstick cost across cycles, ns per op: how fast this
    /// machine was during this run.
    pub fn yardstick_ns(&self) -> f64 {
        median(
            &self
                .cycles
                .iter()
                .map(|c| c.yardstick_ns)
                .collect::<Vec<_>>(),
        )
    }

    /// Medians across cycles with each cycle's times multiplied by
    /// `scale(cycle)`.
    fn timings(&self, scale: impl Fn(&Cycle) -> f64) -> Timings {
        let over = |value: fn(&Cycle) -> f64| {
            median(
                &self
                    .cycles
                    .iter()
                    .map(|c| value(c) * scale(c))
                    .collect::<Vec<_>>(),
            )
        };
        Timings {
            ops_per_s: 1e9 / over(|c| c.mixed_ns),
            update_us: over(|c| c.update_ns) / 1e3,
            query_us: over(|c| c.range_ns) / 1e3,
        }
    }

    /// The timings as the clock read them.
    pub fn raw(&self) -> Timings {
        self.timings(|_| 1.0)
    }

    /// The timings as they would read on a machine that runs the
    /// yardstick at `ref_ns` per op: each cycle's times are scaled by
    /// `ref_ns` over what the yardstick cost in that same cycle, so the
    /// machine's speed of the moment cancels out.
    pub fn calibrated(&self, ref_ns: f64) -> Timings {
        self.timings(|c| ref_ns / c.yardstick_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_on_known_vectors() {
        let mut v = [50u64, 10, 40, 20, 30];
        assert_eq!(quantile(&mut v, 0.5), 30);
        assert_eq!(quantile(&mut v, 0.0), 10);
        assert_eq!(quantile(&mut v, 1.0), 50);
        assert_eq!(quantile(&mut v, 0.99), 50);
        assert_eq!(quantile(&mut v, 0.2), 10);
        assert_eq!(quantile(&mut v, 0.21), 20);
        let mut even = [4u64, 1, 3, 2];
        assert_eq!(quantile(&mut even, 0.5), 2);
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut hundred, 0.99), 99);
        assert_eq!(quantile(&mut hundred, 0.5), 50);
        assert_eq!(quantile::<u64>(&mut [], 0.5), 0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
        // One slow round does not move the median.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 900.0]), 10.0);
    }

    #[test]
    fn calibration_cancels_the_speed_of_the_moment() {
        // The same program on a machine that is 1×, 2× and 4× slower
        // from cycle to cycle: raw medians follow the middle cycle,
        // calibrated ones read the same in every cycle.
        let cycle = |slow: f64| Cycle {
            mixed_ns: 4000.0 * slow,
            update_ns: 2000.0 * slow,
            range_ns: 8000.0 * slow,
            yardstick_ns: 100.0 * slow,
        };
        let mut rounds = Rounds::default();
        rounds.cycles.extend([cycle(1.0), cycle(4.0), cycle(2.0)]);
        assert_eq!(rounds.yardstick_ns(), 200.0);
        let raw = rounds.raw();
        assert_eq!(
            (raw.ops_per_s, raw.update_us, raw.query_us),
            (125_000.0, 4.0, 16.0)
        );
        let at_ref = rounds.calibrated(100.0);
        assert_eq!(
            (at_ref.ops_per_s, at_ref.update_us, at_ref.query_us),
            (250_000.0, 2.0, 8.0)
        );
        // A faster reference box scales everything alike.
        assert_eq!(rounds.calibrated(50.0).update_us, 1.0);
    }

    #[test]
    fn singles_become_per_cycle_quantiles() {
        let mut rounds = Rounds::default();
        let mut singles = Singles {
            update_ns: vec![3000, 1000, 2000],
            range_ns: (1..=200).map(|i| i * 100).collect(),
        };
        rounds.push_singles(&mut singles);
        assert_eq!(rounds.update_rtt_p50_us, [2.0]);
        assert_eq!(rounds.update_rtt_p99_us, [3.0]);
        assert_eq!(rounds.query_rtt_p50_us, [10.0]);
        assert_eq!(rounds.query_rtt_p99_us, [19.8]);
        singles.clear();
        assert!(singles.update_ns.is_empty() && singles.range_ns.is_empty());
    }
}
