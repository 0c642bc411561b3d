//! Differential-check traces: the op model behind the `ddc-check` fuzzer.
//!
//! In a [`CheckTrace`], coordinates are *signed* logical positions
//! inside a covered box that can **grow in any direction** mid-trace
//! (the paper's §5 star-catalog story), and the op set includes
//! persistence round-trips, simulated kills and disk faults. The
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
//! K                  # simulated kill + recovery (engines with a log)
//! X 2 sync           # the 3rd file op from here fails (durable rig only)
//! ```
//!
//! An `X after kind [arg]` line is a [`CheckOp::Fault`]: the `after`-th
//! file operation counted from the next op (0 = its first) fails with
//! `kind` — `write`, `short KEEP`, `nospace`, `sync`, `read` or
//! `flip BIT` (see [`FaultKind`]). Only the durable rig on a
//! fault-injecting disk takes them; `ddc check disk` writes the faults a
//! failing run realised this way, so a disk repro is a trace like any
//! other and shrinks with [`shrink_trace`].
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
    /// Simulated process kill for engines with a durability story: drop
    /// all volatile state and recover from snapshot + WAL. Acknowledged
    /// ops must survive; a recovery error or post-crash divergence is a
    /// failure. Engines without durability treat it as a no-op.
    Crash,
    /// A disk fault: the `after`-th file operation from here (0 = the
    /// first one the next op makes) fails with `kind`. Only the durable
    /// rig on a fault-injecting disk can take it.
    Fault {
        /// File operations that pass before the one that fails.
        after: u64,
        /// How it fails.
        kind: FaultKind,
    },
}

/// The injectable disk faults, one per file operation. A kind fires
/// only on the operation it applies to: the first three on a write,
/// `SyncFail` on a sync, the last two on a read.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `write_all` fails with EIO; nothing is written.
    WriteErr,
    /// `write_all` persists only the first `keep` bytes, then fails
    /// with EIO — a torn append.
    ShortWrite {
        /// Bytes that land before the failure.
        keep: u32,
    },
    /// `write_all` fails with ENOSPC; nothing is written.
    NoSpace,
    /// `sync` fails with EIO. The preceding writes reached the store,
    /// so the frame's durability is ambiguous — the classic commit
    /// window the WAL's truncate-on-retry protocol exists for.
    SyncFail,
    /// `read_at` fails with EIO.
    ReadErr,
    /// `read_at` succeeds but bit `bit` (counting from the start of the
    /// returned buffer) is flipped in the copy handed to the caller;
    /// the stored bytes are untouched, so a re-read sees clean data.
    ReadCorrupt {
        /// Bit index within the bytes returned by this read.
        bit: u32,
    },
}

impl FaultKind {
    /// The trace text after `X after`: `write`, `short KEEP`, `nospace`,
    /// `sync`, `read` or `flip BIT`.
    fn to_text(self) -> String {
        match self {
            Self::WriteErr => "write".to_string(),
            Self::ShortWrite { keep } => format!("short {keep}"),
            Self::NoSpace => "nospace".to_string(),
            Self::SyncFail => "sync".to_string(),
            Self::ReadErr => "read".to_string(),
            Self::ReadCorrupt { bit } => format!("flip {bit}"),
        }
    }

    /// Parses the words [`FaultKind::to_text`] writes.
    fn parse(words: &[&str]) -> Result<Self, String> {
        let arg = |what: &str| match words {
            [_, n] => n.parse().map_err(|_| format!("bad {what} '{n}'")),
            _ => Err(format!("{} wants one {what}", words[0])),
        };
        let bare = |kind: Self| match words {
            [_] => Ok(kind),
            _ => Err(format!("{} takes no argument", words[0])),
        };
        match words.first().copied() {
            Some("write") => bare(Self::WriteErr),
            Some("short") => Ok(Self::ShortWrite {
                keep: arg("length")?,
            }),
            Some("nospace") => bare(Self::NoSpace),
            Some("sync") => bare(Self::SyncFail),
            Some("read") => bare(Self::ReadErr),
            Some("flip") => Ok(Self::ReadCorrupt { bit: arg("bit")? }),
            Some(other) => Err(format!("bad fault kind '{other}'")),
            None => Err("X wants a fault kind".to_string()),
        }
    }
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
    /// Op rolls to draw. 7 % of rolls yield no op (see
    /// [`CheckTrace::generate`]), so a trace holds about 93 % of this many.
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
    /// directions, save/load round-trips and kills; never a disk fault.
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
            ops.extend(Self::gen_op(&mut state, config.max_cells, rng));
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

    fn gen_op(state: &mut BoxState, max_cells: usize, rng: &mut DdcRng) -> Option<CheckOp> {
        let roll = rng.gen_range(0usize..100);
        Some(match roll {
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
            // 7%: no op and no further draw. The band held the flush
            // barrier, a no-op everywhere; keeping the roll keeps every
            // other op of a seeded trace, so pinned runs stay comparable.
            _ => return None,
        })
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
                CheckOp::SaveLoad | CheckOp::Crash | CheckOp::Fault { .. } => {}
            }
        }
        Ok(())
    }

    /// How many of the ops are disk faults.
    pub fn faults(&self) -> usize {
        (self.ops.iter())
            .filter(|op| matches!(op, CheckOp::Fault { .. }))
            .count()
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
        let line = |tag: &str, nums: &[i64]| {
            nums.iter()
                .fold(tag.to_string(), |line, n| format!("{line} {n}"))
                + "\n"
        };
        let dims: Vec<i64> = self.dims.iter().map(|&n| n as i64).collect();
        let mut out = format!("# ddc check trace\n{}", line("shape", &dims));
        if self.origin.iter().any(|&o| o != 0) {
            out += &line("origin", &self.origin);
        }
        for op in &self.ops {
            out += &match op {
                CheckOp::Update { point, delta } => line("U", &[&point[..], &[*delta]].concat()),
                CheckOp::Set { point, value } => line("S", &[&point[..], &[*value]].concat()),
                CheckOp::Query { lo, hi } => line("Q", &[&lo[..], hi].concat()),
                CheckOp::Cell { point } => line("C", point),
                CheckOp::Grow { axis, amount, low } => {
                    format!("G {axis} {amount} {}\n", if *low { "low" } else { "high" })
                }
                CheckOp::SaveLoad => "R\n".to_string(),
                CheckOp::Crash => "K\n".to_string(),
                CheckOp::Fault { after, kind } => format!("X {after} {}\n", kind.to_text()),
            };
        }
        out
    }

    /// Parses the line format and validates the result.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (mut dims, mut origin, mut ops) = (None, None, Vec::new());
        for (no, line) in text.lines().enumerate() {
            // A `#` starts a comment.
            let line = line.split('#').next().unwrap_or_default().trim();
            if !line.is_empty() {
                Self::parse_line(line, &mut dims, &mut origin, &mut ops)
                    .map_err(|e| format!("line {}: {e}", no + 1))?;
            }
        }
        let dims: Vec<usize> = dims.ok_or("missing shape line")?;
        let trace = Self {
            origin: origin.unwrap_or_else(|| vec![0; dims.len()]),
            dims,
            ops,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// One non-empty line of [`CheckTrace::parse`]: a header or an op.
    fn parse_line(
        line: &str,
        dims: &mut Option<Vec<usize>>,
        origin: &mut Option<Vec<i64>>,
        ops: &mut Vec<CheckOp>,
    ) -> Result<(), String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let (tag, args) = (words[0], &words[1..]);
        let bad = |what: &str, tok: &str| format!("bad {what} '{tok}'");
        let op = match (tag, args) {
            // The two ops with words among their arguments.
            ("G", [axis, amount, low]) => CheckOp::Grow {
                axis: axis.parse().map_err(|_| bad("axis", axis))?,
                amount: amount.parse().map_err(|_| bad("amount", amount))?,
                low: match *low {
                    "low" => true,
                    "high" => false,
                    other => return Err(bad("direction", other)),
                },
            },
            ("G", _) => return Err("G wants axis amount low|high".to_string()),
            ("X", _) => {
                let (after, kind) = args.split_first().ok_or("X wants after kind")?;
                CheckOp::Fault {
                    after: after.parse().map_err(|_| bad("after", after))?,
                    kind: FaultKind::parse(kind)?,
                }
            }
            _ => {
                let nums = (args.iter().map(|w| w.parse::<i64>()))
                    .collect::<Result<Vec<i64>, _>>()
                    .map_err(|e| e.to_string())?;
                let d = || dims.as_ref().map(Vec::len).ok_or("op before shape");
                let arity = |want: usize, what: &str| match nums.len() == want {
                    true => Ok(()),
                    false => Err(format!("{tag} wants {what}")),
                };
                match tag {
                    "shape" => {
                        if nums.is_empty() || nums.iter().any(|&n| n <= 0) {
                            return Err("bad shape".to_string());
                        }
                        *dims = Some(nums.iter().map(|&n| n as usize).collect());
                        return Ok(());
                    }
                    "origin" => {
                        if nums.len() != d()? {
                            return Err("origin arity mismatch".to_string());
                        }
                        if !ops.is_empty() {
                            return Err("origin after first op".to_string());
                        }
                        *origin = Some(nums);
                        return Ok(());
                    }
                    "U" | "S" => {
                        let d = d()?;
                        arity(d + 1, &format!("{d} coords + value"))?;
                        let (point, value) = (nums[..d].to_vec(), nums[d]);
                        match tag {
                            "U" => CheckOp::Update {
                                point,
                                delta: value,
                            },
                            _ => CheckOp::Set { point, value },
                        }
                    }
                    "Q" => {
                        let d = d()?;
                        arity(2 * d, &format!("2·{d} coords"))?;
                        let (lo, hi) = nums.split_at(d);
                        CheckOp::Query {
                            lo: lo.to_vec(),
                            hi: hi.to_vec(),
                        }
                    }
                    "C" => {
                        arity(d()?, &format!("{} coords", d()?))?;
                        CheckOp::Cell { point: nums }
                    }
                    "R" | "K" => {
                        arity(0, "no arguments")?;
                        match tag {
                            "R" => CheckOp::SaveLoad,
                            _ => CheckOp::Crash,
                        }
                    }
                    other => return Err(format!("unknown tag '{other}'")),
                }
            }
        };
        ops.push(op);
        Ok(())
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
///    values toward 0, query boxes toward single cells, and a fault's
///    `after`, torn length and flipped bit toward 0.
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

/// Simplified ddmin, the shrinker's op-removal phase: removes
/// runs of `items`, halving the run length down to one, keeping each
/// candidate `still_fails` accepts; single-item passes repeat until one
/// removes nothing, so no single item of the result can be dropped.
/// Deterministic.
fn ddmin<T: Clone>(items: &[T], still_fails: impl Fn(&[T]) -> bool) -> Vec<T> {
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
        // A fault moves toward the next op's first file operation, a torn
        // length and a flipped bit toward 0.
        CheckOp::Fault { after, kind } => {
            let smaller = |n: u64| [0, n / 2].into_iter().filter(move |&m| m < n);
            let fault = |after, kind| CheckOp::Fault { after, kind };
            let mut v: Vec<CheckOp> = smaller(*after).map(|a| fault(a, *kind)).collect();
            v.extend(match *kind {
                FaultKind::ShortWrite { keep } => smaller(keep.into())
                    .map(|k| fault(*after, FaultKind::ShortWrite { keep: k as u32 }))
                    .collect(),
                FaultKind::ReadCorrupt { bit } => smaller(bit.into())
                    .map(|b| fault(*after, FaultKind::ReadCorrupt { bit: b as u32 }))
                    .collect(),
                _ => Vec::new(),
            });
            v.dedup();
            v
        }
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
        // Every fault kind, as `ddc check disk` writes them.
        let text = "shape 3\nX 5 write\nX 4 short 17\nX 3 nospace\nX 2 sync\nX 1 read\n\
                    X 0 flip 203\nU 1 5\n";
        let t = CheckTrace::parse(text).unwrap();
        assert_eq!(t.to_text(), format!("# ddc check trace\n{text}"));
        use FaultKind::*;
        let kinds = [
            WriteErr,
            ShortWrite { keep: 17 },
            NoSpace,
            SyncFail,
            ReadErr,
        ];
        let faults = kinds.into_iter().chain([ReadCorrupt { bit: 203 }]);
        let want = faults
            .zip((0..6).rev())
            .map(|(kind, after)| CheckOp::Fault { after, kind });
        assert_eq!(t.ops[..6], want.collect::<Vec<_>>());
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
        for (text, error) in [
            ("U 1 1 1", "line 1: op before shape"),
            ("shape 4\nR 9", "line 2: R wants no arguments"),
            ("shape 4\nG 0 1 sideways", "bad direction 'sideways'"),
            // `F` was the flush barrier; no op takes its place.
            ("shape 4\nF", "unknown tag 'F'"),
            ("shape 4\nX 1 gremlin", "bad fault kind 'gremlin'"),
            ("shape 4\nX 1 short", "short wants one length"),
            ("shape 4\nX 0 flip x", "bad bit 'x'"),
            ("shape 4\nX 2 sync 9", "sync takes no argument"),
            ("shape 4\nX sync", "bad after 'sync'"),
            ("shape 4\nX 3", "X wants a fault kind"),
            ("shape 4\nX", "X wants after kind"),
            ("# nothing", "missing shape"),
        ] {
            let got = CheckTrace::parse(text).unwrap_err();
            assert!(got.contains(error), "{text:?}: {got}");
        }
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
