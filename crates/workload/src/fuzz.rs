//! Differential-check traces: the op model behind the `ddc-check` fuzzer.
//!
//! In a [`CheckTrace`], coordinates are *signed* logical positions
//! inside a covered box that can **grow in any direction** mid-trace
//! (the paper's §5 star-catalog story), and the op set includes
//! persistence round-trips, simulated kills and flush barriers. The
//! format is line-oriented text so a shrunk repro is diffable and
//! replayable by hand:
//!
//! ```text
//! # ddc check trace
//! shape 4 4          # initial covered box extent
//! origin 0 -2        # logical low corner of the box (optional, default 0)
//! U 1 2 5            # add 5 at cell (1, 2)
//! S 1 2 9            # set cell (1, 2) to 9 (answer compared)
//! Q 0 0 3 3          # range sum over [0..=3] × [0..=3] (answer compared)
//! C 1 2              # read one cell (answer compared)
//! G 0 2 low          # grow axis 0 by 2 cells at the low end
//! R                  # save/load round-trip (engines that persist)
//! F                  # flush barrier (a no-op everywhere)
//! K                  # simulated kill + recovery (engines with a log)
//! ```
//!
//! The module also hosts the **trace shrinker**: delta debugging over the
//! op list followed by per-op coordinate/value minimization, driven by an
//! arbitrary "still failing?" predicate so the caller (the differential
//! runner in `ddc-check`) decides what failure means.

use crate::rng::DdcRng;
use ddc_array::Shape;

/// One operation of a differential-check trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOp {
    /// Add `delta` at the signed logical `point`.
    Update {
        /// Target cell.
        point: Vec<i64>,
        /// Added value.
        delta: i64,
    },
    /// Set the cell to `value`; the returned previous value is compared.
    Set {
        /// Target cell.
        point: Vec<i64>,
        /// New value.
        value: i64,
    },
    /// Range sum over the closed logical box `[lo, hi]`; compared.
    Query {
        /// Inclusive lower corner.
        lo: Vec<i64>,
        /// Inclusive upper corner.
        hi: Vec<i64>,
    },
    /// Read one cell; compared.
    Cell {
        /// Target cell.
        point: Vec<i64>,
    },
    /// Grow the covered box by `amount` cells along `axis`, at the low
    /// end when `low` (subsequent ops may use the enlarged box).
    Grow {
        /// Axis to enlarge.
        axis: usize,
        /// Number of cells added.
        amount: usize,
        /// Grow toward negative coordinates when true.
        low: bool,
    },
    /// Save/load round-trip for engines that persist; a round-trip error
    /// or any post-round-trip divergence is a failure.
    SaveLoad,
    /// Flush barrier. No engine queues writes, so every engine treats it
    /// as a no-op; it stays so recorded traces keep parsing and seeded
    /// runs keep drawing the same ops.
    Flush,
    /// Simulated process kill for engines with a durability story: drop
    /// all volatile state and recover from snapshot + WAL. Acknowledged
    /// ops must survive; a recovery error or post-crash divergence is a
    /// failure. Engines without durability treat it as a no-op.
    Crash,
}

/// The covered logical box at some point of a trace: low corner plus
/// extent per axis. Grows as [`CheckOp::Grow`] ops are applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxState {
    /// Signed logical coordinate of the box's low corner.
    pub origin: Vec<i64>,
    /// Extent per axis.
    pub dims: Vec<usize>,
}

impl BoxState {
    /// The box as of the start of `trace`.
    pub fn initial(trace: &CheckTrace) -> Self {
        Self {
            origin: trace.origin.clone(),
            dims: trace.dims.clone(),
        }
    }

    /// Dimensionality.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Applies one growth step.
    pub fn grow(&mut self, axis: usize, amount: usize, low: bool) {
        if low {
            self.origin[axis] -= amount as i64;
        }
        self.dims[axis] += amount;
    }

    /// True if the signed `point` lies inside the box.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.ndim()
            && point
                .iter()
                .zip(self.origin.iter().zip(self.dims.iter()))
                .all(|(&p, (&o, &n))| p >= o && p < o + n as i64)
    }

    /// Total cells currently covered.
    pub fn cells(&self) -> usize {
        self.dims.iter().product()
    }
}

/// A replayable differential-check workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckTrace {
    /// Logical low corner of the initial covered box.
    pub origin: Vec<i64>,
    /// Initial extent per axis.
    pub dims: Vec<usize>,
    /// Operations in order.
    pub ops: Vec<CheckOp>,
}

/// Knobs for [`CheckTrace::generate`].
#[derive(Copy, Clone, Debug)]
pub struct CheckTraceConfig {
    /// Number of operations to generate.
    pub ops: usize,
    /// Growth stops once the covered box reaches this many cells (keeps
    /// the `O(n^d)`-update baselines affordable inside the fuzz loop).
    pub max_cells: usize,
}

impl Default for CheckTraceConfig {
    fn default() -> Self {
        Self {
            ops: 200,
            max_cells: 2048,
        }
    }
}

impl CheckTrace {
    /// Generates a mixed trace over a random small box of `d` dimensions:
    /// updates, sets, range queries, cell reads, growth in random
    /// directions, save/load round-trips, and flush barriers.
    pub fn generate(d: usize, config: CheckTraceConfig, rng: &mut DdcRng) -> Self {
        assert!(d >= 1, "need at least one dimension");
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2usize..=6)).collect();
        let origin: Vec<i64> = (0..d).map(|_| rng.gen_range(-4i64..=4)).collect();
        let mut state = BoxState {
            origin: origin.clone(),
            dims: dims.clone(),
        };
        let mut ops = Vec::with_capacity(config.ops);
        for _ in 0..config.ops {
            ops.push(Self::gen_op(&mut state, config.max_cells, rng));
        }
        Self { origin, dims, ops }
    }

    fn gen_point(state: &BoxState, rng: &mut DdcRng) -> Vec<i64> {
        state
            .origin
            .iter()
            .zip(state.dims.iter())
            .map(|(&o, &n)| o + rng.gen_range(0i64..n as i64))
            .collect()
    }

    fn gen_op(state: &mut BoxState, max_cells: usize, rng: &mut DdcRng) -> CheckOp {
        let roll = rng.gen_range(0usize..100);
        match roll {
            // 40% point updates.
            0..=39 => CheckOp::Update {
                point: Self::gen_point(state, rng),
                delta: rng.gen_range(-100i64..=100),
            },
            // 8% sets (exercise the read-then-delta path).
            40..=47 => CheckOp::Set {
                point: Self::gen_point(state, rng),
                value: rng.gen_range(-100i64..=100),
            },
            // 22% range queries.
            48..=69 => {
                let a = Self::gen_point(state, rng);
                let b = Self::gen_point(state, rng);
                let lo: Vec<i64> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
                let hi: Vec<i64> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
                CheckOp::Query { lo, hi }
            }
            // 10% single-cell reads.
            70..=79 => CheckOp::Cell {
                point: Self::gen_point(state, rng),
            },
            // 6% growth in a random direction (capped).
            80..=85 => {
                let axis = rng.gen_range(0usize..state.ndim());
                let amount = rng.gen_range(1usize..=2);
                let low = rng.gen_bool(0.5);
                let grown = state.cells() / state.dims[axis] * (state.dims[axis] + amount);
                if grown > max_cells {
                    // Too big already: degrade to a harmless read.
                    CheckOp::Cell {
                        point: Self::gen_point(state, rng),
                    }
                } else {
                    state.grow(axis, amount, low);
                    CheckOp::Grow { axis, amount, low }
                }
            }
            // 4% persistence round-trips.
            86..=89 => CheckOp::SaveLoad,
            // 3% simulated kills + recovery.
            90..=92 => CheckOp::Crash,
            // 7% flush barriers.
            _ => CheckOp::Flush,
        }
    }

    /// Checks structural well-formedness: every coordinate has the right
    /// arity and lies inside the covered box *as of its position in the
    /// trace*, query bounds are ordered, growth steps are sane. The
    /// shrinker uses this to discard candidate traces that removal of a
    /// `Grow` op made nonsensical.
    pub fn validate(&self) -> Result<(), String> {
        Shape::try_new(&self.dims).map_err(|e| format!("bad initial shape: {e}"))?;
        if self.origin.len() != self.dims.len() {
            return Err(format!(
                "origin arity {} does not match shape arity {}",
                self.origin.len(),
                self.dims.len()
            ));
        }
        fn in_box(state: &BoxState, i: usize, p: &[i64], what: &str) -> Result<(), String> {
            if state.contains(p) {
                Ok(())
            } else {
                Err(format!(
                    "op {i}: {what} {p:?} outside covered box {state:?}"
                ))
            }
        }
        let mut state = BoxState::initial(self);
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                CheckOp::Update { point, .. } => in_box(&state, i, point, "update point")?,
                CheckOp::Set { point, .. } => in_box(&state, i, point, "set point")?,
                CheckOp::Cell { point } => in_box(&state, i, point, "cell point")?,
                CheckOp::Query { lo, hi } => {
                    in_box(&state, i, lo, "query lo")?;
                    in_box(&state, i, hi, "query hi")?;
                    if lo.iter().zip(hi).any(|(l, h)| l > h) {
                        return Err(format!("op {i}: inverted query bounds {lo:?}..{hi:?}"));
                    }
                }
                CheckOp::Grow { axis, amount, low } => {
                    if *axis >= state.ndim() {
                        return Err(format!("op {i}: grow axis {axis} out of range"));
                    }
                    if *amount == 0 {
                        return Err(format!("op {i}: zero-sized growth"));
                    }
                    let mut dims = state.dims.clone();
                    dims[*axis] += amount;
                    Shape::try_new(&dims).map_err(|e| format!("op {i}: growth overflow: {e}"))?;
                    state.grow(*axis, *amount, *low);
                }
                CheckOp::SaveLoad | CheckOp::Flush | CheckOp::Crash => {}
            }
        }
        Ok(())
    }

    /// The box state after the whole trace (useful for reporting).
    pub fn final_box(&self) -> BoxState {
        let mut state = BoxState::initial(self);
        for op in &self.ops {
            if let CheckOp::Grow { axis, amount, low } = op {
                state.grow(*axis, *amount, *low);
            }
        }
        state
    }

    /// Serializes to the line format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# ddc check trace\n");
        out.push_str("shape");
        for &n in &self.dims {
            out.push_str(&format!(" {n}"));
        }
        out.push('\n');
        if self.origin.iter().any(|&o| o != 0) {
            out.push_str("origin");
            for &o in &self.origin {
                out.push_str(&format!(" {o}"));
            }
            out.push('\n');
        }
        let coords = |out: &mut String, p: &[i64]| {
            for &c in p {
                out.push_str(&format!(" {c}"));
            }
        };
        for op in &self.ops {
            match op {
                CheckOp::Update { point, delta } => {
                    out.push('U');
                    coords(&mut out, point);
                    out.push_str(&format!(" {delta}\n"));
                }
                CheckOp::Set { point, value } => {
                    out.push('S');
                    coords(&mut out, point);
                    out.push_str(&format!(" {value}\n"));
                }
                CheckOp::Query { lo, hi } => {
                    out.push('Q');
                    coords(&mut out, lo);
                    coords(&mut out, hi);
                    out.push('\n');
                }
                CheckOp::Cell { point } => {
                    out.push('C');
                    coords(&mut out, point);
                    out.push('\n');
                }
                CheckOp::Grow { axis, amount, low } => {
                    out.push_str(&format!(
                        "G {axis} {amount} {}\n",
                        if *low { "low" } else { "high" }
                    ));
                }
                CheckOp::SaveLoad => out.push_str("R\n"),
                CheckOp::Flush => out.push_str("F\n"),
                CheckOp::Crash => out.push_str("K\n"),
            }
        }
        out
    }

    /// Parses the line format and validates the result.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut dims: Option<Vec<usize>> = None;
        let mut origin: Option<Vec<i64>> = None;
        let mut ops = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let line = match line.find('#') {
                Some(0) => continue,
                Some(pos) => line[..pos].trim_end(),
                None => line,
            };
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let tag = it.next().expect("non-empty");
            let nums: Result<Vec<i64>, _> = it.map(str::parse::<i64>).collect();
            let nums = match tag {
                "G" => {
                    // `G axis amount low|high` — last token is a word.
                    let toks: Vec<&str> = line.split_whitespace().skip(1).collect();
                    if toks.len() != 3 {
                        return Err(format!("line {}: G wants axis amount low|high", no + 1));
                    }
                    let axis: usize = toks[0]
                        .parse()
                        .map_err(|_| format!("line {}: bad axis '{}'", no + 1, toks[0]))?;
                    let amount: usize = toks[1]
                        .parse()
                        .map_err(|_| format!("line {}: bad amount '{}'", no + 1, toks[1]))?;
                    let low = match toks[2] {
                        "low" => true,
                        "high" => false,
                        other => {
                            return Err(format!("line {}: bad direction '{other}'", no + 1));
                        }
                    };
                    ops.push(CheckOp::Grow { axis, amount, low });
                    continue;
                }
                _ => nums.map_err(|e| format!("line {}: {e}", no + 1))?,
            };
            let d = || -> Result<usize, String> {
                dims.as_ref()
                    .map(Vec::len)
                    .ok_or_else(|| format!("line {}: op before shape", no + 1))
            };
            match tag {
                "shape" => {
                    if nums.is_empty() || nums.iter().any(|&n| n <= 0) {
                        return Err(format!("line {}: bad shape", no + 1));
                    }
                    dims = Some(nums.iter().map(|&n| n as usize).collect());
                }
                "origin" => {
                    if nums.len() != d()? {
                        return Err(format!("line {}: origin arity mismatch", no + 1));
                    }
                    if !ops.is_empty() {
                        return Err(format!("line {}: origin after first op", no + 1));
                    }
                    origin = Some(nums);
                }
                "U" | "S" => {
                    let d = d()?;
                    if nums.len() != d + 1 {
                        return Err(format!("line {}: {tag} wants {d} coords + value", no + 1));
                    }
                    let point = nums[..d].to_vec();
                    ops.push(if tag == "U" {
                        CheckOp::Update {
                            point,
                            delta: nums[d],
                        }
                    } else {
                        CheckOp::Set {
                            point,
                            value: nums[d],
                        }
                    });
                }
                "Q" => {
                    let d = d()?;
                    if nums.len() != 2 * d {
                        return Err(format!("line {}: Q wants 2·{d} coords", no + 1));
                    }
                    ops.push(CheckOp::Query {
                        lo: nums[..d].to_vec(),
                        hi: nums[d..].to_vec(),
                    });
                }
                "C" => {
                    let d = d()?;
                    if nums.len() != d {
                        return Err(format!("line {}: C wants {d} coords", no + 1));
                    }
                    ops.push(CheckOp::Cell {
                        point: nums.to_vec(),
                    });
                }
                "R" => {
                    if !nums.is_empty() {
                        return Err(format!("line {}: R takes no arguments", no + 1));
                    }
                    ops.push(CheckOp::SaveLoad);
                }
                "F" => {
                    if !nums.is_empty() {
                        return Err(format!("line {}: F takes no arguments", no + 1));
                    }
                    ops.push(CheckOp::Flush);
                }
                "K" => {
                    if !nums.is_empty() {
                        return Err(format!("line {}: K takes no arguments", no + 1));
                    }
                    ops.push(CheckOp::Crash);
                }
                other => return Err(format!("line {}: unknown tag '{other}'", no + 1)),
            }
        }
        let dims = dims.ok_or("missing shape line")?;
        let trace = Self {
            origin: origin.unwrap_or_else(|| vec![0; dims.len()]),
            dims,
            ops,
        };
        trace.validate()?;
        Ok(trace)
    }
}

/// Shrinks a failing trace to a (locally) minimal repro.
///
/// Two phases, both driven by `still_fails` (which must be `true` for the
/// input trace):
///
/// 1. **Delta debugging over ops** — repeatedly remove chunks of ops,
///    halving the chunk size down to single ops, keeping any candidate
///    that still validates and still fails.
/// 2. **Coordinate/value minimization** — per surviving op, pull
///    coordinates toward the box's low corner, deltas toward ±1, set
///    values toward 0, and query boxes toward single cells.
///
/// Deterministic: no randomness, so the same failure always shrinks to
/// the same repro.
pub fn shrink_trace(trace: &CheckTrace, still_fails: impl Fn(&CheckTrace) -> bool) -> CheckTrace {
    debug_assert!(still_fails(trace), "shrink input must fail");
    let mut best = trace.clone();
    // Alternate removal and minimization: pulling a coordinate back into
    // the initial box often makes a previously load-bearing Grow op
    // removable, so one pass of each is not a fixpoint.
    for _ in 0..5 {
        let before = best.clone();
        remove_ops(&mut best, &still_fails);
        minimize_values(&mut best, &still_fails);
        if best == before {
            break;
        }
    }
    best
}

/// Simplified ddmin, shared by every shrinker in the repo: removes
/// runs of `items`, halving the run length down to one, keeping each
/// candidate `still_fails` accepts; single-item passes repeat until one
/// removes nothing, so no single item of the result can be dropped.
/// Deterministic.
pub fn ddmin<T: Clone>(items: &[T], still_fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut best = items.to_vec();
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut i = 0;
        let mut reduced = false;
        while i < best.len() {
            let len = chunk.min(best.len() - i);
            let candidate = [&best[..i], &best[i + len..]].concat();
            if still_fails(&candidate) {
                best = candidate; // same index now names the next chunk
                reduced = true;
            } else {
                i += len;
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !reduced {
            return best;
        }
    }
}

/// Phase 1: [`ddmin`] over the ops, keeping only traces that validate.
fn remove_ops(best: &mut CheckTrace, still_fails: &impl Fn(&CheckTrace) -> bool) {
    best.ops = ddmin(&best.ops, |ops| {
        let candidate = CheckTrace {
            origin: best.origin.clone(),
            dims: best.dims.clone(),
            ops: ops.to_vec(),
        };
        candidate.validate().is_ok() && still_fails(&candidate)
    });
}

/// Phase 2: per-op value minimization to a fixpoint (bounded passes).
fn minimize_values(best: &mut CheckTrace, still_fails: &impl Fn(&CheckTrace) -> bool) {
    for _ in 0..4 {
        let mut changed = false;
        for i in 0..best.ops.len() {
            for candidate_op in simpler_variants(best, i) {
                let mut candidate = best.clone();
                candidate.ops[i] = candidate_op;
                if candidate != *best && candidate.validate().is_ok() && still_fails(&candidate) {
                    *best = candidate;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Candidate simplifications of op `i`, most aggressive first.
fn simpler_variants(trace: &CheckTrace, i: usize) -> Vec<CheckOp> {
    // The initial origin is the "simplest" coordinate: it is inside the
    // box at every point in the trace (growth only extends the box), so
    // pulling coordinates toward it never creates a dependency on an
    // earlier Grow op — and often removes one, letting the next removal
    // pass delete the Grow.
    let floor = trace.origin.clone();
    let toward_floor = |p: &[i64]| -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        // All the way down, then halfway per axis.
        if p != floor.as_slice() {
            out.push(floor.clone());
        }
        let half: Vec<i64> = p
            .iter()
            .zip(&floor)
            .map(|(&c, &f)| f + (c - f) / 2)
            .collect();
        if half != p {
            out.push(half);
        }
        out
    };
    match &trace.ops[i] {
        CheckOp::Update { point, delta } => {
            let mut v: Vec<CheckOp> = toward_floor(point)
                .into_iter()
                .map(|p| CheckOp::Update {
                    point: p,
                    delta: *delta,
                })
                .collect();
            for d in [1i64, -1, delta / 2] {
                if d != 0 && d != *delta {
                    v.push(CheckOp::Update {
                        point: point.clone(),
                        delta: d,
                    });
                }
            }
            v
        }
        CheckOp::Set { point, value } => {
            let mut v: Vec<CheckOp> = toward_floor(point)
                .into_iter()
                .map(|p| CheckOp::Set {
                    point: p,
                    value: *value,
                })
                .collect();
            for val in [0i64, 1, value / 2] {
                if val != *value {
                    v.push(CheckOp::Set {
                        point: point.clone(),
                        value: val,
                    });
                }
            }
            v
        }
        CheckOp::Query { lo, hi } => {
            let mut v = Vec::new();
            if lo != hi {
                // Collapse to a point query at either corner.
                v.push(CheckOp::Query {
                    lo: lo.clone(),
                    hi: lo.clone(),
                });
                v.push(CheckOp::Query {
                    lo: hi.clone(),
                    hi: hi.clone(),
                });
            }
            if lo == hi {
                // A point query moves as a unit, like a Cell probe.
                for p in toward_floor(lo) {
                    v.push(CheckOp::Query {
                        lo: p.clone(),
                        hi: p,
                    });
                }
            }
            for l in toward_floor(lo) {
                if l.iter().zip(hi).all(|(a, b)| a <= b) {
                    v.push(CheckOp::Query {
                        lo: l,
                        hi: hi.clone(),
                    });
                }
            }
            v
        }
        CheckOp::Cell { point } => toward_floor(point)
            .into_iter()
            .map(|p| CheckOp::Cell { point: p })
            .collect(),
        CheckOp::Grow { axis, amount, low } if *amount > 1 => vec![CheckOp::Grow {
            axis: *axis,
            amount: 1,
            low: *low,
        }],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::rng;

    #[test]
    fn generated_traces_validate_and_roundtrip() {
        for seed in 0..8 {
            let mut r = rng(seed);
            let d = (seed as usize % 3) + 1;
            let t = CheckTrace::generate(d, CheckTraceConfig::default(), &mut r);
            t.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let text = t.to_text();
            let parsed = CheckTrace::parse(&text).unwrap();
            assert_eq!(parsed, t, "seed {seed}");
        }
    }

    #[test]
    fn growth_extends_the_valid_box() {
        let t =
            CheckTrace::parse("shape 2 2\norigin 0 0\nG 0 2 low\nU -2 0 5\nQ -2 0 1 1\n").unwrap();
        assert_eq!(t.ops.len(), 3);
        assert_eq!(t.final_box().origin, vec![-2, 0]);
        assert_eq!(t.final_box().dims, vec![4, 2]);
    }

    #[test]
    fn validate_rejects_out_of_box_and_misordered_ops() {
        // Point outside the initial box.
        assert!(CheckTrace::parse("shape 2 2\nU 5 0 1\n").is_err());
        // Valid only *after* growth — removal of G must invalidate.
        let t = CheckTrace::parse("shape 2 2\nG 0 1 high\nU 2 0 1\n").unwrap();
        let mut broken = t.clone();
        broken.ops.remove(0);
        assert!(broken.validate().is_err());
        // Inverted query bounds.
        assert!(CheckTrace::parse("shape 4\nQ 3 1\n").is_err());
        // Grow axis out of range.
        assert!(CheckTrace::parse("shape 4\nG 7 1 low\n").is_err());
    }

    #[test]
    fn parse_errors_are_specific() {
        assert!(CheckTrace::parse("U 1 1 1")
            .unwrap_err()
            .contains("before shape"));
        assert!(CheckTrace::parse("shape 4\nR 9")
            .unwrap_err()
            .contains("no arguments"));
        assert!(CheckTrace::parse("shape 4\nG 0 1 sideways")
            .unwrap_err()
            .contains("bad direction"));
        assert!(CheckTrace::parse("shape 4\nX 1")
            .unwrap_err()
            .contains("unknown tag"));
        assert!(CheckTrace::parse("# nothing")
            .unwrap_err()
            .contains("missing shape"));
    }

    #[test]
    fn shrinker_reduces_to_minimal_failing_core() {
        // Synthetic failure: "fails" iff the trace still contains an
        // update with delta 42 followed (anywhere later) by a query.
        let mut r = rng(7);
        let mut t = CheckTrace::generate(
            2,
            CheckTraceConfig {
                ops: 120,
                max_cells: 512,
            },
            &mut r,
        );
        let origin = t.origin.clone();
        t.ops.insert(
            60,
            CheckOp::Update {
                point: origin.clone(),
                delta: 42,
            },
        );
        let fails = |c: &CheckTrace| {
            let upd = c
                .ops
                .iter()
                .position(|o| matches!(o, CheckOp::Update { delta: 42, .. }));
            match upd {
                Some(i) => c.ops[i..]
                    .iter()
                    .any(|o| matches!(o, CheckOp::Query { .. })),
                None => false,
            }
        };
        assert!(fails(&t));
        let small = shrink_trace(&t, fails);
        assert!(fails(&small));
        assert!(
            small.ops.len() <= 2,
            "expected a 2-op repro, got {}: {}",
            small.ops.len(),
            small.to_text()
        );
        small.validate().unwrap();
    }

    #[test]
    fn shrinker_respects_growth_dependencies() {
        // The failing op sits outside the initial box, so the shrinker
        // must keep the Grow op that makes it reachable.
        let t = CheckTrace::parse("shape 2 2\nU 0 0 1\nG 0 1 high\nU 2 0 42\nC 1 1\nQ 0 0 2 1\n")
            .unwrap();
        // The bug is pinned to the grown cell: moving the update back into
        // the initial box must not count as a repro.
        let fails = |c: &CheckTrace| {
            c.ops
                .iter()
                .any(|o| matches!(o, CheckOp::Update { delta: 42, point } if point == &[2, 0]))
        };
        let small = shrink_trace(&t, fails);
        small.validate().unwrap();
        assert!(fails(&small));
        assert!(
            small.ops.iter().any(|o| matches!(o, CheckOp::Grow { .. })),
            "growth dependency dropped: {}",
            small.to_text()
        );
        assert_eq!(small.ops.len(), 2, "{}", small.to_text());
    }
}
