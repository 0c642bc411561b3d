//! Zero-dependency observability: metrics registry, latency histograms,
//! and a lightweight tracing facade.
//!
//! The ROADMAP's north star is a serving system, and a serving system is
//! blind without per-operation telemetry. This module is the workspace's
//! single substrate for it — in-repo, offline-build-safe, `std`-only:
//!
//! * **[`Counter`] / [`Gauge`]** — relaxed-atomic scalars.
//! * **[`Histogram`]** — log-bucketed (one bucket per power of two, 64
//!   buckets, saturating at the top), recording into relaxed atomics so
//!   the hot path never takes a lock. Quantiles (p50/p90/p99/max) are
//!   estimated by geometric interpolation inside the owning bucket —
//!   exactly the trade Pibiri & Venturini's prefix-sum study motivates:
//!   constant factors dominate engine choice, so per-op latency must be
//!   *measured*, cheaply, everywhere.
//! * **[`Registry`]** — a process-global name → metric map. Lookups take
//!   a `RwLock` read; hot call sites cache the returned `Arc` in a
//!   `OnceLock` so steady-state cost is one pointer load.
//! * **Spans** — [`Histogram::span`] / [`Span::end`] wrap a region,
//!   count it into a histogram, time a sample of them, and (when tracing
//!   is on) push a [`TraceEvent`] onto a bounded ring buffer that
//!   [`trace_dump`] renders — the `TraceDump` hook `ddc-check` attaches
//!   to failing shrunken traces.
//!
//! ## Cost model
//!
//! Counters are always on (one relaxed `fetch_add`). Every span that ends is **counted** exactly, but only a
//! sample is **timed**: a span reads the clock when its histogram had
//! completed fewer than [`SAMPLE_EVERY`] spans, or a multiple of it, at
//! the span's start — so a histogram's first 16 spans and then one in 16.
//! An untimed span is three relaxed loads and one relaxed `fetch_add`; a
//! timed one adds two `Instant::now()` calls and the other three RMWs of
//! [`Histogram::record`]. On a 2-vCPU x86-64 VM where a clock pair costs
//! ~100 ns and a relaxed RMW ~9 ns, spans run back to back on one
//! histogram average ~27 ns (a timed one ~140 ns), where timing every
//! span cost ~145 ns; inside a `core_d2_mixed` update they add ~20 ns
//! over `DDC_OBS=off`. Quantiles, the max and the mean come from the
//! timed sample; `_count` stays exact. A timed span's closing clock read
//! follows a rarely taken branch, so a served cube's sampled p50s read
//! ~10–30 ns above what timing every span read (EXPERIMENTS.md "One span
//! in sixteen"). What leaving timing on
//! costs a served cube is `obs.overhead_ratio` in `BENCHMARK.json` (see
//! EXPERIMENTS.md). Timing defaults **on** (the histograms are what
//! `ddc stats` and `/metrics` exist for) and is disabled either with
//! `DDC_OBS=off` in the environment or [`set_timing_enabled`], which
//! reduces a span to its two flag loads; it then counts nothing.
//!
//! Tracing (the event ring) defaults **off** and is enabled with
//! `DDC_TRACE=1` or [`set_trace_enabled`]; under it every span is timed.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::Instant;

// Observability state is deliberately *untracked* by the model checker
// (`crate::sync::untracked`): metric atomics and the registry's
// internal locks never influence control flow, and keeping them out of
// the model both shrinks the interleaving space and keeps schedule
// points stable across iterations regardless of `OnceLock`
// initialization order.
use crate::sync::untracked::{AtomicI64, AtomicU64, Mutex, Ordering, RwLock};
use crate::sync::{Arc, OnceLock, PoisonError};

/// Number of logarithmic buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Capacity of the trace ring buffer (older events are dropped).
pub const TRACE_RING_CAPACITY: usize = 512;

/// A histogram times its first `SAMPLE_EVERY` spans, then one in
/// `SAMPLE_EVERY` (see [`Histogram::span`]); every span is counted.
pub const SAMPLE_EVERY: u64 = 16;

// ---------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------

/// A monotonically increasing event count (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Bucket index for a recorded value: 0 holds exactly `0`, bucket `b ≥ 1`
/// holds `[2^(b-1), 2^b)`, and the last bucket saturates upward.
fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive value range `[lo, hi]` covered by bucket `b` (the saturated
/// top bucket reports `u64::MAX` as its upper edge).
fn bucket_bounds(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else if b == HISTOGRAM_BUCKETS - 1 {
        (1u64 << (b - 1), u64::MAX)
    } else {
        (1u64 << (b - 1), (1u64 << b) - 1)
    }
}

/// A lock-free log-bucketed latency histogram.
///
/// Values are arbitrary `u64`s; by convention the instrumented paths
/// record **nanoseconds**. `count` is every observation, timed or not;
/// `sum`, `max` and the buckets describe the timed ones. Recording a
/// timed value is wait-free (four relaxed atomic RMWs), counting an
/// untimed one is a single RMW; reading takes a consistent-enough
/// snapshot bucket by bucket.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one timed observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a span that ends in this histogram under `name` (its
    /// registry name, for the trace ring). When timing and tracing are
    /// both off it reads the two flags and nothing else, and is never
    /// counted. Otherwise it loads the completed count `c` (relaxed) and
    /// reads the clock only if `c < SAMPLE_EVERY` or `c` is a multiple
    /// of [`SAMPLE_EVERY`], or tracing is on; the span is counted when it
    /// ends either way.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let clock = if !spans_on() {
            Clock::Off
        } else if sampled(self.count()) || trace_enabled() {
            Clock::Timed(Instant::now())
        } else {
            Clock::Counted
        };
        Span {
            hist: self,
            name,
            clock,
        }
    }

    /// Ends a span the caller timed itself, from `started`, `dur_ns`
    /// long: counted and timed when spans are on, like a timed
    /// [`Span`]. For a site that reads the clock anyway and must not read
    /// it twice.
    pub(crate) fn observe(&self, name: &'static str, started: Instant, dur_ns: u64) {
        if spans_on() {
            self.record_span(name, started, dur_ns);
        }
    }

    /// Out of line: it runs for one span in [`SAMPLE_EVERY`], and keeps
    /// the inlined [`Span::end`] small.
    #[inline(never)]
    fn record_span(&self, name: &'static str, started: Instant, dur_ns: u64) {
        self.record(dur_ns);
        if trace_enabled() {
            push_trace(name, started, dur_ns);
        }
    }

    /// Observations counted so far, timed or not.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the timed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest timed value (0 when none).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy suitable for quantile estimation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let timed = buckets.iter().sum();
        HistogramSnapshot {
            // Relaxed loads of different atomics may see a concurrent
            // record's bucket before its count.
            count: self.count().max(timed),
            timed,
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }

    /// Estimated quantile (see [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A frozen copy of a [`Histogram`]'s state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Observations counted, timed or not (exact).
    pub count: u64,
    /// Observations timed: the sample `sum`, `max` and the buckets
    /// describe (the buckets' total).
    pub timed: u64,
    /// Sum of the timed values.
    pub sum: u64,
    /// Largest timed value: the exact max while every observation is
    /// timed (a histogram's first [`SAMPLE_EVERY`], or under tracing).
    pub max: u64,
    /// Per-bucket counts (see [`Histogram`] for the bucket layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by locating the bucket
    /// holding the target rank and interpolating linearly inside it.
    /// Returns 0 for an empty histogram; the estimate never exceeds the
    /// recorded maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.timed;
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the target observation.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(b);
                let hi = hi.min(self.max.max(lo));
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Mean of the timed values (0 when none).
    pub fn mean(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.sum as f64 / self.timed as f64
        }
    }

    /// The timed sum scaled up to every counted observation: the
    /// sample mean times `count`, rounded.
    fn scaled_sum(&self) -> u64 {
        (self.mean() * self.count as f64).round() as u64
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// A process-global name → metric map.
///
/// Names are `&'static str` by design: every instrumentation site is a
/// fixed code location, and static names make the registry allocation-
/// and hash-free on the lookup path. Dotted lowercase names
/// (`wal.append`) are the convention; [`prometheus_text`] sanitizes
/// them for exposition.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(
    map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
    name: &'static str,
) -> Arc<T> {
    if let Some(m) = map.read().unwrap_or_else(PoisonError::into_inner).get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(w.entry(name).or_default())
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&n, c)| (n, c.get()))
            .collect()
    }

    /// Snapshot of every gauge, sorted by name.
    pub fn gauges(&self) -> Vec<(&'static str, i64)> {
        self.gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&n, g)| (n, g.get()))
            .collect()
    }

    /// Snapshot of every histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&n, h)| (n, h.snapshot()))
            .collect()
    }
}

/// The process-global registry every instrumented path reports into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Shorthand for `registry().counter(name)`.
pub fn counter(name: &'static str) -> Arc<Counter> {
    registry().counter(name)
}

/// Shorthand for `registry().gauge(name)`.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Shorthand for `registry().histogram(name)`.
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    registry().histogram(name)
}

// ---------------------------------------------------------------------
// Timing + tracing toggles
// ---------------------------------------------------------------------

/// `0` = follow the environment default, `1` = forced off, `2` = forced
/// on. One atomic so the hot-path check stays a single load.
static TIMING: AtomicU64 = AtomicU64::new(0);
static TRACING: AtomicU64 = AtomicU64::new(0);

fn env_default(var: &str, default_on: bool) -> bool {
    match std::env::var(var) {
        Ok(v) => !matches!(v.as_str(), "0" | "off" | "false" | "no" | ""),
        Err(_) => default_on,
    }
}

#[inline]
fn flag_state(flag: &AtomicU64, env: &'static str, default_on: bool) -> bool {
    match flag.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => latch(flag, env, default_on),
    }
}

/// Resolves the environment once and latches the answer.
#[cold]
fn latch(flag: &AtomicU64, env: &'static str, default_on: bool) -> bool {
    let on = env_default(env, default_on);
    flag.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Whether span timing (and thus latency histograms) is active. Defaults
/// on; `DDC_OBS=off` (or `0`/`false`/`no`) in the environment disables
/// it, [`set_timing_enabled`] overrides either way.
#[inline]
pub fn timing_enabled() -> bool {
    flag_state(&TIMING, "DDC_OBS", true)
}

/// Forces timing on or off, returning the previous effective state.
pub fn set_timing_enabled(on: bool) -> bool {
    let prev = timing_enabled();
    TIMING.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    prev
}

/// Whether the trace ring records events. Defaults off; `DDC_TRACE=1`
/// enables it, [`set_trace_enabled`] overrides either way.
#[inline]
pub fn trace_enabled() -> bool {
    flag_state(&TRACING, "DDC_TRACE", false)
}

/// Forces tracing on or off, returning the previous effective state.
pub fn set_trace_enabled(on: bool) -> bool {
    let prev = trace_enabled();
    TRACING.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    prev
}

/// Whether a span is counted at all.
#[inline]
fn spans_on() -> bool {
    timing_enabled() || trace_enabled()
}

/// Whether a span that starts after `completed` others ended in its
/// histogram reads the clock.
#[inline]
fn sampled(completed: u64) -> bool {
    completed < SAMPLE_EVERY || completed % SAMPLE_EVERY == 0
}

// ---------------------------------------------------------------------
// Spans and the trace ring
// ---------------------------------------------------------------------

/// One completed span captured by the trace ring.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Instrumentation-site name (a histogram name).
    pub name: &'static str,
    /// Span start, microseconds since the first observed event.
    pub start_us: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn trace_ring() -> &'static Mutex<VecDeque<TraceEvent>> {
    static RING: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(TRACE_RING_CAPACITY)))
}

fn push_trace(name: &'static str, started: Instant, dur_ns: u64) {
    let start_us = started
        .saturating_duration_since(epoch())
        .as_micros()
        .min(u128::from(u64::MAX)) as u64;
    let mut ring = trace_ring().lock().unwrap_or_else(PoisonError::into_inner);
    if ring.len() >= TRACE_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(TraceEvent {
        name,
        start_us,
        dur_ns,
    });
}

/// Drains and returns the trace ring's events, oldest first.
pub fn take_trace() -> Vec<TraceEvent> {
    trace_ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
        .collect()
}

/// Empties the trace ring.
pub fn clear_trace() {
    trace_ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Renders the trace ring as an aligned text table (without draining
/// it): one line per event, oldest first. Empty string when no events
/// were captured.
pub fn trace_dump() -> String {
    let ring = trace_ring().lock().unwrap_or_else(PoisonError::into_inner);
    let mut out = String::new();
    for e in ring.iter() {
        out.push_str(&format!(
            "{:>12.3}ms  {:<28} {:>10}ns\n",
            e.start_us as f64 / 1000.0,
            e.name,
            e.dur_ns
        ));
    }
    out.pop();
    out
}

/// An in-flight span from [`Histogram::span`]. It is counted only when
/// [`Span::end`] is called: a span dropped on an error path leaves its
/// histogram as it was.
#[derive(Debug)]
#[must_use = "a span is only counted when end() is called"]
pub struct Span<'a> {
    hist: &'a Histogram,
    name: &'static str,
    clock: Clock,
}

/// What a [`Span`] does when it ends.
#[derive(Debug)]
enum Clock {
    /// Timing and tracing are off: nothing.
    Off,
    /// Count it.
    Counted,
    /// Count and time it from this start.
    Timed(Instant),
}

impl Span<'_> {
    /// Ends the span: counts it, and when it read the clock at its start
    /// records its duration and, under tracing, pushes a [`TraceEvent`]
    /// onto the ring.
    #[inline]
    pub fn end(self) {
        match self.clock {
            Clock::Off => {}
            Clock::Counted => {
                self.hist.count.fetch_add(1, Ordering::Relaxed);
            }
            Clock::Timed(started) => {
                // Read the clock before the out-of-line record, so the
                // call is not part of the span.
                let dur_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.hist.record_span(self.name, started, dur_ns);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Maps a dotted metric name to a Prometheus-safe identifier:
/// `wal.append` → `ddc_wal_append`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("ddc_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Formats an `f64` for JSON (finite guaranteed by clamping).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders every metric registered in the process-global registry in
/// Prometheus exposition style. This is the one formatter shared by
/// every exposition surface (`ddc stats --prometheus` and the serving
/// layer's `GET /metrics`), so scrapes agree byte-for-byte no matter
/// which door they come in through.
pub fn prometheus_text() -> String {
    prometheus_text_for(registry())
}

/// Renders every metric in `reg` in Prometheus exposition style:
/// counters and gauges as single samples, histograms as the exact
/// `_count`, the sample size `_timed`, `_sum_ns` (the timed sum scaled
/// to `_count`), and the timed sample's `quantile`-labelled samples and
/// `_max_ns`.
/// Output ordering is stable (metrics sort by name within each kind)
/// and names are sanitized (`ddc_` prefix, non-alphanumerics to `_`).
pub fn prometheus_text_for(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, v) in reg.counters() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} counter\n{p} {v}\n"));
    }
    for (name, v) in reg.gauges() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} gauge\n{p} {v}\n"));
    }
    for (name, h) in reg.histograms() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} summary\n"));
        out.push_str(&format!("{p}_count {}\n", h.count));
        out.push_str(&format!("{p}_timed {}\n", h.timed));
        out.push_str(&format!("{p}_sum_ns {}\n", h.scaled_sum()));
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
            out.push_str(&format!(
                "{p}_ns{{quantile=\"{label}\"}} {}\n",
                h.quantile(q)
            ));
        }
        out.push_str(&format!("{p}_max_ns {}\n", h.max));
    }
    out.pop();
    out
}

/// Renders every registered metric as a JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name:
/// {count, timed, sum_ns, mean_ns, p50_ns, p90_ns, p99_ns, max_ns}}}`,
/// with `sum_ns` scaled to `count` as in [`prometheus_text_for`] and the
/// rest from the timed sample.
/// Metric names are static identifiers, so no string escaping is needed.
pub fn render_json() -> String {
    let reg = registry();
    let mut out = String::from("{\n  \"counters\": {");
    let counters = reg.counters();
    for (i, (name, v)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!("{sep}\n    \"{name}\": {v}"));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    let gauges = reg.gauges();
    for (i, (name, v)) in gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!("{sep}\n    \"{name}\": {v}"));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    let hists = reg.histograms();
    for (i, (name, h)) in hists.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!(
            "{sep}\n    \"{name}\": {{\"count\": {}, \"timed\": {}, \"sum_ns\": {}, \
             \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            h.count,
            h.timed,
            h.scaled_sum(),
            json_num(h.mean()),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max
        ));
    }
    out.push_str("\n  }\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that mutate the global timing/tracing flags or the shared
    /// trace ring must not interleave under the parallel test runner.
    fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for b in 1..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_index(lo), b);
            assert_eq!(bucket_index(hi), b);
            assert_eq!(bucket_index(hi + 1), b + 1);
        }
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::default();
        // 100 observations spread evenly through bucket 7 ([64, 127]).
        for i in 0..100u64 {
            h.record(64 + (i * 63) / 99);
        }
        let p50 = h.quantile(0.5);
        assert!((80..=110).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.0) >= 64);
        assert_eq!(h.quantile(1.0), 127);
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 127);
    }

    #[test]
    fn quantile_orders_across_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(10); // bucket 4
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((8..=15).contains(&p50), "p50 = {p50}");
        assert!(p99 > 8_000, "p99 = {p99}");
        assert!(p99 <= 10_000, "p99 = {p99} must not exceed max");
    }

    #[test]
    fn saturation_at_the_top_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(snap.max, u64::MAX);
        // Estimates come from the saturated top bucket, not beyond it.
        assert!(h.quantile(0.99) >= 1u64 << 62);
        assert!(h.quantile(0.5) >= 1u64 << 62);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn registry_returns_the_same_metric_for_a_name() {
        let a = registry().counter("obs.test.same");
        let b = registry().counter("obs.test.same");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        let g = gauge("obs.test.gauge");
        g.set(-5);
        g.add(2);
        assert_eq!(gauge("obs.test.gauge").get(), -3);
    }

    #[test]
    fn renderers_include_registered_metrics() {
        counter("obs.test.render").add(7);
        histogram("obs.test.render_hist").record(1000);
        let prom = prometheus_text();
        assert!(prom.contains("ddc_obs_test_render 7"), "{prom}");
        assert!(prom.contains("ddc_obs_test_render_hist_count 1"), "{prom}");
        assert!(prom.contains("quantile=\"0.99\""), "{prom}");
        let json = render_json();
        assert!(json.contains("\"obs.test.render\": 7"), "{json}");
        assert!(json.contains("\"p99_ns\""), "{json}");
        assert!(json.contains("\"count\": 1, \"timed\": 1,"), "{json}");
    }

    #[test]
    fn prometheus_text_is_byte_exact_with_stable_ordering_and_escaping() {
        // A private registry keeps the expectation independent of
        // whatever the rest of the test binary registered globally.
        let reg = Registry::default();
        reg.counter("serve.requests").add(3);
        reg.counter("a.weird-name").inc(); // '.' and '-' both escape to '_'
        reg.gauge("queue.depth").set(-2);
        let h = reg.histogram("rt");
        h.record(0);
        h.record(1);
        assert_eq!(
            prometheus_text_for(&reg),
            "# TYPE ddc_a_weird_name counter\n\
             ddc_a_weird_name 1\n\
             # TYPE ddc_serve_requests counter\n\
             ddc_serve_requests 3\n\
             # TYPE ddc_queue_depth gauge\n\
             ddc_queue_depth -2\n\
             # TYPE ddc_rt summary\n\
             ddc_rt_count 2\n\
             ddc_rt_timed 2\n\
             ddc_rt_sum_ns 1\n\
             ddc_rt_ns{quantile=\"0.5\"} 0\n\
             ddc_rt_ns{quantile=\"0.9\"} 1\n\
             ddc_rt_ns{quantile=\"0.99\"} 1\n\
             ddc_rt_max_ns 1"
        );
    }

    /// Sets both flags for the life of the guard, restoring them after.
    struct Flags {
        timing: bool,
        tracing: bool,
        _guard: std::sync::MutexGuard<'static, ()>,
    }

    fn flags(timing: bool, tracing: bool) -> Flags {
        let guard = global_state_lock();
        Flags {
            timing: set_timing_enabled(timing),
            tracing: set_trace_enabled(tracing),
            _guard: guard,
        }
    }

    impl Drop for Flags {
        fn drop(&mut self) {
            set_timing_enabled(self.timing);
            set_trace_enabled(self.tracing);
        }
    }

    #[test]
    fn every_span_is_counted_and_one_in_sixteen_is_timed() {
        let _flags = flags(true, false);
        let h = Histogram::default();
        for _ in 0..1000 {
            h.span("obs.test.sampled").end();
        }
        let expected = (0..1000u64)
            .filter(|&c| c < SAMPLE_EVERY || c % SAMPLE_EVERY == 0)
            .count() as u64;
        assert_eq!(expected, 78);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.timed, expected);
    }

    #[test]
    fn traced_spans_are_all_timed_and_pushed_to_the_ring() {
        let _flags = flags(true, true);
        let h = Histogram::default();
        clear_trace();
        for _ in 0..100 {
            h.span("obs.test.span").end();
        }
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.timed), (100, 100));
        let pushed = take_trace()
            .iter()
            .filter(|e| e.name == "obs.test.span")
            .count();
        assert_eq!(pushed, 100);
    }

    #[test]
    fn disabled_spans_count_nothing() {
        let _flags = flags(false, false);
        let h = Histogram::default();
        for _ in 0..100 {
            h.span("obs.test.disabled").end();
        }
        h.observe("obs.test.disabled", Instant::now(), 5);
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().timed, 0);
    }

    #[test]
    fn a_dropped_span_is_not_counted() {
        let _flags = flags(true, false);
        let h = Histogram::default();
        let fallible = |fail: bool| -> Result<(), ()> {
            let span = h.span("obs.test.dropped");
            if fail {
                return Err(());
            }
            span.end();
            Ok(())
        };
        assert!(fallible(true).is_err());
        assert_eq!(h.count(), 0);
        assert!(fallible(false).is_ok());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn renderers_scale_the_sum_to_the_exact_count() {
        let _flags = flags(true, false);
        let reg = Registry::default();
        let h = reg.histogram("scaled");
        for _ in 0..100 {
            h.span("scaled").end();
        }
        let snap = h.snapshot();
        let (count, timed) = (snap.count, snap.timed);
        assert!(timed < count, "{timed} of {count} timed");
        let prom = prometheus_text_for(&reg);
        let line = |suffix: &str| -> u64 {
            let key = format!("ddc_scaled_{suffix} ");
            let line = prom.lines().find_map(|l| l.strip_prefix(&key));
            line.and_then(|v| v.parse().ok()).expect(&key)
        };
        assert_eq!(line("count"), count);
        assert_eq!(line("timed"), timed);
        let mean = line("sum_ns") as f64 / count as f64;
        assert!((mean - snap.mean()).abs() <= 1.0 / count as f64, "{prom}");
    }

    #[test]
    fn trace_ring_is_bounded() {
        let _guard = global_state_lock();
        let prev = set_trace_enabled(true);
        for _ in 0..TRACE_RING_CAPACITY + 10 {
            push_trace("obs.test.bound", Instant::now(), 1);
        }
        set_trace_enabled(prev);
        let events = take_trace();
        assert!(events.len() <= TRACE_RING_CAPACITY);
    }
}
