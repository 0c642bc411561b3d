//! The seeded op stream every workload consumes.
//!
//! One long stream per run, generated from `--seed` and consumed
//! sequentially, a round's worth at a time (outside the timer). It is
//! never replayed: replaying a short list keeps the touched tree paths
//! cache-resident and inflated throughput from 230k to 320k op/s when
//! tried. The same `(spec, seed)` always yields the same ops.

use crate::spec::Spec;
use ddc_workload::DdcRng;

/// Most dimensions a workload may have.
pub const MAX_DIMS: usize = 3;

/// What an [`Op`] asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Add `delta` to the cell at `hi`.
    Update,
    /// Sum of `[0, hi]`.
    Prefix,
    /// Sum of `[lo, hi]`.
    Range,
}

/// One operation. Coordinates beyond the workload's `dims` are zero;
/// `lo` is zero for updates and prefix sums, so every query is the box
/// `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Operation kind.
    pub kind: Kind,
    /// Low corner (queries).
    pub lo: [u32; MAX_DIMS],
    /// High corner (queries) or the cell (updates).
    pub hi: [u32; MAX_DIMS],
    /// Delta added by an update; never zero. Zero for queries.
    pub delta: i32,
}

impl Op {
    /// Appends the line-protocol spelling of the op, newline included.
    pub fn render(&self, dims: usize, out: &mut Vec<u8>) {
        match self.kind {
            Kind::Update => {
                out.extend_from_slice(b"u ");
                push_point(&self.hi[..dims], out);
                out.push(b' ');
                push_int(i64::from(self.delta), out);
            }
            Kind::Prefix => {
                out.extend_from_slice(b"p ");
                push_point(&self.hi[..dims], out);
            }
            Kind::Range => {
                out.extend_from_slice(b"q ");
                push_point(&self.lo[..dims], out);
                out.push(b' ');
                push_point(&self.hi[..dims], out);
            }
        }
        out.push(b'\n');
    }
}

fn push_point(point: &[u32], out: &mut Vec<u8>) {
    for (i, &c) in point.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_int(i64::from(c), out);
    }
}

fn push_int(v: i64, out: &mut Vec<u8>) {
    use std::io::Write as _;
    write!(out, "{v}").expect("writing to a Vec cannot fail");
}

/// A bijection on `[0, 2^bits)`: multiply by an odd constant, fold the
/// high half onto the low half, multiply again. It turns the index of a
/// preloaded cell into that cell, so the populated set is `n` distinct
/// scattered cells and a measured update can pick one in O(1).
#[derive(Clone, Copy, Debug)]
struct CellPerm {
    bits: u32,
    mul_a: u64,
    mul_b: u64,
}

impl CellPerm {
    fn apply(&self, index: u64) -> u64 {
        let mask = (1u64 << self.bits) - 1;
        let mut x = index.wrapping_mul(self.mul_a) & mask;
        x ^= x >> (self.bits / 2 + 1);
        x.wrapping_mul(self.mul_b) & mask
    }
}

/// Generator of one workload's ops for one seed.
#[derive(Clone, Debug)]
pub struct OpStream {
    spec: Spec,
    seed: u64,
    perm: CellPerm,
    rng: DdcRng,
}

impl OpStream {
    /// The stream of `spec` under `seed`, positioned at its first op.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let mut keys = DdcRng::seed_from_u64(seed ^ 0x5EED_0000);
        let perm = CellPerm {
            bits: spec.cells().trailing_zeros(),
            mul_a: keys.next_u64() | 1,
            mul_b: keys.next_u64() | 1,
        };
        Self {
            spec,
            seed,
            perm,
            rng: DdcRng::seed_from_u64(seed),
        }
    }

    fn cell(&self, index: u64) -> [u32; MAX_DIMS] {
        let cells = self.spec.cells() as u64;
        let mut linear = self.perm.apply(index % cells);
        let side = self.spec.side as u64;
        let mut point = [0u32; MAX_DIMS];
        for c in point.iter_mut().take(self.spec.dims) {
            *c = (linear % side) as u32;
            linear /= side;
        }
        point
    }

    /// The preload: `spec.preload` updates with deltas in `1..=9`, over
    /// `spec.populated()` distinct cells. The same on every call.
    pub fn preload(&self) -> impl Iterator<Item = Op> + '_ {
        let mut rng = DdcRng::seed_from_u64(self.seed ^ 0x5EED_0001);
        (0..self.spec.preload as u64).map(move |i| Op {
            kind: Kind::Update,
            lo: [0; MAX_DIMS],
            hi: self.cell(i),
            delta: rng.gen_range(1usize..=9) as i32,
        })
    }

    /// Replaces `buf` with the next `n` ops of the stream, in the
    /// workload's mix.
    pub fn fill(&mut self, buf: &mut Vec<Op>, n: usize) {
        buf.clear();
        buf.extend((0..n).map(|_| self.next_op()));
    }

    /// Replaces `buf` with the next `n` ops of the stream, all of `kind`.
    pub fn fill_kind(&mut self, buf: &mut Vec<Op>, n: usize, kind: Kind) {
        buf.clear();
        buf.extend((0..n).map(|_| self.op_of(kind)));
    }

    fn next_op(&mut self) -> Op {
        let roll = self.rng.gen_range(0usize..100) as u32;
        let kind = if roll < self.spec.update_pct {
            Kind::Update
        } else if roll < self.spec.update_pct + self.spec.prefix_pct {
            Kind::Prefix
        } else {
            Kind::Range
        };
        self.op_of(kind)
    }

    fn op_of(&mut self, kind: Kind) -> Op {
        let spec = self.spec;
        if kind == Kind::Update {
            let index = self.rng.gen_range(0usize..spec.populated()) as u64;
            return Op {
                kind,
                lo: [0; MAX_DIMS],
                hi: self.cell(index),
                delta: self.rng.gen_range(1usize..=9) as i32,
            };
        }
        let mut lo = [0u32; MAX_DIMS];
        let mut hi = [0u32; MAX_DIMS];
        for axis in 0..spec.dims {
            let a = self.rng.gen_range(0usize..spec.side) as u32;
            if kind == Kind::Prefix {
                hi[axis] = a;
            } else {
                let b = self.rng.gen_range(0usize..spec.side) as u32;
                lo[axis] = a.min(b);
                hi[axis] = a.max(b);
            }
        }
        Op {
            kind,
            lo,
            hi,
            delta: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::collections::HashSet;

    fn wire(spec: Spec, seed: u64, n: usize) -> Vec<u8> {
        let mut stream = OpStream::new(spec, seed);
        let mut ops = Vec::new();
        stream.fill(&mut ops, n);
        let mut out = Vec::new();
        for op in stream.preload().take(n).chain(ops) {
            op.render(spec.dims, &mut out);
        }
        out
    }

    #[test]
    fn stream_is_byte_identical_per_seed_and_differs_across_seeds() {
        for spec in WORKLOADS {
            assert_eq!(wire(spec, 7, 2000), wire(spec, 7, 2000), "{}", spec.name);
            assert_ne!(wire(spec, 7, 2000), wire(spec, 8, 2000), "{}", spec.name);
        }
    }

    #[test]
    fn fill_continues_the_stream_instead_of_replaying_it() {
        let spec = WORKLOADS[0];
        let mut whole = OpStream::new(spec, 3);
        let mut parts = OpStream::new(spec, 3);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        whole.fill(&mut a, 300);
        parts.fill(&mut b, 100);
        parts.fill(&mut c, 200);
        assert_eq!(a[..100], b[..]);
        assert_eq!(a[100..], c[..]);
        assert_ne!(b[..], c[..100]);
        parts.fill_kind(&mut b, 50, Kind::Range);
        assert!(b.len() == 50 && b.iter().all(|op| op.kind == Kind::Range));
        parts.fill_kind(&mut b, 50, Kind::Update);
        assert!(b.iter().all(|op| op.kind == Kind::Update && op.delta != 0));
    }

    #[test]
    fn preload_cells_are_distinct_and_updates_stay_inside_them() {
        for spec in WORKLOADS {
            let mut stream = OpStream::new(spec, 11);
            let populated: HashSet<_> = stream.preload().map(|op| op.hi).collect();
            assert_eq!(populated.len(), spec.populated(), "{}", spec.name);
            let mut ops = Vec::new();
            stream.fill(&mut ops, 5000);
            for op in &ops {
                let side = spec.side as u32;
                assert!(op.hi.iter().all(|&c| c < side));
                assert!(op.lo.iter().zip(&op.hi).all(|(l, h)| l <= h));
                match op.kind {
                    Kind::Update => assert!(populated.contains(&op.hi) && op.delta != 0),
                    Kind::Prefix => assert_eq!(op.lo, [0; MAX_DIMS]),
                    Kind::Range => {}
                }
            }
        }
    }

    #[test]
    fn mix_matches_the_spec_within_a_few_percent() {
        for spec in WORKLOADS {
            let mut stream = OpStream::new(spec, 5);
            let mut ops = Vec::new();
            stream.fill(&mut ops, 20_000);
            let updates = ops.iter().filter(|o| o.kind == Kind::Update).count();
            let prefixes = ops.iter().filter(|o| o.kind == Kind::Prefix).count();
            let share = |n: usize| (n * 100) as f64 / ops.len() as f64;
            assert!((share(updates) - f64::from(spec.update_pct)).abs() < 2.0);
            assert!((share(prefixes) - f64::from(spec.prefix_pct)).abs() < 2.0);
        }
    }

    #[test]
    fn render_spells_the_line_protocol() {
        let mut out = Vec::new();
        let op = |kind, lo, hi, delta| Op {
            kind,
            lo,
            hi,
            delta,
        };
        op(Kind::Update, [0; 3], [3, 5, 0], 7).render(2, &mut out);
        op(Kind::Prefix, [0; 3], [9, 9, 0], 0).render(2, &mut out);
        op(Kind::Range, [1, 2, 3], [4, 5, 6], 0).render(3, &mut out);
        assert_eq!(out, b"u 3,5 7\np 9,9\nq 1,2,3 4,5,6\n");
    }
}
