//! Implicit blocked cumulative store — the B^c tree flattened into one
//! run of words (Pibiri–Venturini's truncated-tree layout).
//!
//! The paper's B^c tree (§4.1) groups values into fanout-sized blocks
//! with cumulative counts above them; this layout keeps exactly that
//! shape but drops the pointers. A store of `len` values is the
//! contiguous run
//!
//! ```text
//! [ raw_0 … raw_{len−1} | summary_1 … summary_{blocks−1} ]
//! ```
//!
//! of [`words_for`]`(len)` words: the raw values in blocks of
//! [`DEFAULT_BLOCK`], then one implicit 1-based Fenwick layout over the
//! per-block totals (absent when everything fits one block; the Fenwick
//! root is never read, so it is not stored). A prefix sum reads
//! `O(log(len / B))` summary slots — the descent loop clears one bit per
//! step (`i &= i - 1`), no compare-and-branch — then sums at most `B`
//! raw slots from one contiguous block (the truncated tail). Updates
//! touch one raw slot plus the summary path.
//!
//! The arithmetic lives once, as the slice kernels [`prefix`], [`add`]
//! and [`fill`]: `ddc-core` runs them over face runs written in place in
//! its level slabs, and [`BlockedBc`] is the same kernels over a `Vec`
//! of its own with an [`OpCounter`] attached.
//!
//! Compared to the pointer-based [`crate::BcTree`] this loses positional
//! insertion (growth requires a rebuild, like [`crate::Fenwick`]) and
//! wins the constant factor: every access is an index walk over one
//! flat run.

use crate::store::CumulativeStore;
use ddc_array::{AbelianGroup, OpCounter};

/// Raw slots per dense leaf block (power of two; the truncated tail
/// sums at most this many raw values per query).
pub const DEFAULT_BLOCK: usize = 16;

/// Words a blocked run of `len` values occupies: the values, then the
/// summary positions `1..blocks`.
pub const fn words_for(len: usize) -> usize {
    len + len.div_ceil(DEFAULT_BLOCK).saturating_sub(1)
}

/// Cumulative sum of positions `0..=index` of the blocked run `words`
/// holding `len` values, and the number of stored values read.
///
/// # Panics
///
/// Panics if `index >= len` or `words` is shorter than
/// [`words_for`]`(len)`.
#[inline]
pub fn prefix<G: AbelianGroup>(words: &[G], len: usize, index: usize) -> (G, u64) {
    assert!(index < len, "prefix index {index} beyond length {len}");
    let (raw, summary) = words.split_at(len);
    let block = index / DEFAULT_BLOCK;
    // Whole blocks before the target: implicit Fenwick prefix
    // (position `p` lives at `summary[p - 1]`).
    let mut acc = G::ZERO;
    let mut i = block;
    let mut reads = 0;
    while i > 0 {
        acc = acc.add(summary[i - 1]);
        reads += 1;
        i &= i - 1;
    }
    // Truncated tail: contiguous raw slots of the target's block.
    let base = block * DEFAULT_BLOCK;
    for &v in &raw[base..=index] {
        acc = acc.add(v);
    }
    (acc, reads + (index - base + 1) as u64)
}

/// Adds `delta` to position `index` of the blocked run `words` holding
/// `len` values; returns the number of stored values written.
///
/// # Panics
///
/// Panics if `index >= len` or `words` is shorter than
/// [`words_for`]`(len)`.
#[inline]
pub fn add<G: AbelianGroup>(words: &mut [G], len: usize, index: usize, delta: G) -> u64 {
    assert!(index < len, "index {index} beyond length {len}");
    let (raw, summary) = words.split_at_mut(len);
    raw[index] = raw[index].add(delta);
    let mut writes = 1;
    let blocks = len.div_ceil(DEFAULT_BLOCK);
    // Queries Fenwick-walk the blocks *before* the target and then
    // scan the target block raw, so no prefix ever reads a summary
    // position ≥ `blocks`; the update path stops there (no summary
    // work at all for single-block runs).
    let mut i = index / DEFAULT_BLOCK + 1;
    while i < blocks {
        summary[i - 1] = summary[i - 1].add(delta);
        writes += 1;
        i += i & i.wrapping_neg();
    }
    writes
}

/// Overwrites the blocked run `words` with `values` in `O(len)`: one
/// copy plus the Fenwick parent-propagation pass over the block totals.
///
/// # Panics
///
/// Panics if `words.len() != words_for(values.len())`.
pub fn fill<G: AbelianGroup>(words: &mut [G], values: &[G]) {
    let len = values.len();
    assert_eq!(words.len(), words_for(len), "blocked run size mismatch");
    let (raw, summary) = words.split_at_mut(len);
    raw.copy_from_slice(values);
    summary.fill(G::ZERO);
    let blocks = len.div_ceil(DEFAULT_BLOCK);
    for pos in 1..blocks {
        let sum = raw[(pos - 1) * DEFAULT_BLOCK..pos * DEFAULT_BLOCK]
            .iter()
            .fold(G::ZERO, |acc, &v| acc.add(v));
        summary[pos - 1] = summary[pos - 1].add(sum);
        let parent = pos + (pos & pos.wrapping_neg());
        if parent < blocks {
            summary[parent - 1] = summary[parent - 1].add(summary[pos - 1]);
        }
    }
}

/// An implicit blocked B^c layout over group values, 0-based external
/// indices: the slice kernels of this module over an owned run.
///
/// # Examples
///
/// ```
/// use ddc_btree::{BlockedBc, CumulativeStore};
///
/// let mut b = BlockedBc::from_values(&[3i64, 1, 4, 1, 5]);
/// assert_eq!(b.prefix(2), 8);
/// b.add(1, 10);
/// assert_eq!(b.range(1, 3), 16);
/// assert_eq!(b.total(), 24);
/// ```
#[derive(Debug)]
pub struct BlockedBc<G: AbelianGroup> {
    /// The blocked run: `len` raw values, then the summary.
    words: Vec<G>,
    len: usize,
    counter: OpCounter,
}

impl<G: AbelianGroup> Clone for BlockedBc<G> {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            len: self.len,
            counter: OpCounter::new(),
        }
    }
}

impl<G: AbelianGroup> BlockedBc<G> {
    /// A store of `len` zero values.
    pub fn zeroed(len: usize) -> Self {
        Self {
            words: vec![G::ZERO; words_for(len)],
            len,
            counter: OpCounter::new(),
        }
    }

    /// Builds from raw values in `O(k)` (see [`fill`]).
    pub fn from_values(values: &[G]) -> Self {
        let mut store = Self::zeroed(values.len());
        fill(&mut store.words, values);
        store
    }
}

impl<G: AbelianGroup> CumulativeStore<G> for BlockedBc<G> {
    fn name(&self) -> &'static str {
        "blocked-bc"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn prefix(&self, index: usize) -> G {
        let (v, reads) = prefix(&self.words, self.len, index);
        self.counter.read(reads);
        v
    }

    fn value(&self, index: usize) -> G {
        assert!(index < self.len, "index {index} beyond length {}", self.len);
        self.counter.read(1);
        self.words[index]
    }

    fn add(&mut self, index: usize, delta: G) {
        assert!(index < self.len, "index {index} beyond length {}", self.len);
        if delta.is_zero() {
            return;
        }
        let writes = add(&mut self.words, self.len, index, delta);
        self.counter.write(writes);
    }

    fn counter(&self) -> &OpCounter {
        &self.counter
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.capacity() * std::mem::size_of::<G>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matches_scan() {
        let values: Vec<i64> = (0..300).map(|i| (i * 31 % 97) - 48).collect();
        let b = BlockedBc::from_values(&values);
        let mut acc = 0;
        for (i, &v) in values.iter().enumerate() {
            acc += v;
            assert_eq!(b.prefix(i), acc, "prefix({i})");
            assert_eq!(b.value(i), v, "value({i})");
        }
    }

    #[test]
    fn updates_match_scan() {
        let mut values = vec![0i64; 50];
        let mut b = BlockedBc::<i64>::zeroed(50);
        for step in 0..300 {
            let idx = (step * 7) % 50;
            let delta = (step as i64 % 11) - 5;
            values[idx] += delta;
            b.add(idx, delta);
        }
        for i in 0..50 {
            let expect: i64 = values[..=i].iter().sum();
            assert_eq!(b.prefix(i), expect);
        }
    }

    #[test]
    fn lengths_straddling_block_boundaries() {
        for len in [
            1,
            DEFAULT_BLOCK - 1,
            DEFAULT_BLOCK,
            DEFAULT_BLOCK + 1,
            3 * DEFAULT_BLOCK + 5,
        ] {
            let values: Vec<i64> = (0..len as i64).map(|i| i * 3 - 7).collect();
            let b = BlockedBc::from_values(&values);
            assert_eq!(b.len(), len);
            let mut acc = 0;
            for (i, &v) in values.iter().enumerate() {
                acc += v;
                assert_eq!(b.prefix(i), acc, "len {len} prefix({i})");
            }
            assert_eq!(b.total(), acc, "len {len} total");
        }
    }

    #[test]
    fn set_and_range() {
        let mut b = BlockedBc::from_values(&[10i64, 20, 30]);
        assert_eq!(b.set(1, 25), 20);
        assert_eq!(b.range(0, 2), 65);
        assert_eq!(b.range(1, 1), 25);
    }

    #[test]
    fn query_cost_is_summary_path_plus_one_block() {
        let b = BlockedBc::<i64>::zeroed(1 << 20);
        b.reset_ops();
        let _ = b.prefix((1 << 20) - 1);
        // ≤ log2(2^20 / B) summary reads + B raw reads.
        let bound = (20 - DEFAULT_BLOCK.trailing_zeros() as u64) + DEFAULT_BLOCK as u64;
        assert!(b.ops().reads <= bound, "read {} values", b.ops().reads);
    }

    #[test]
    fn matches_the_pointer_based_bc_tree() {
        use crate::BcTree;
        let values: Vec<i64> = (0..200).map(|i| (i * 13 % 53) - 26).collect();
        let blocked = BlockedBc::from_values(&values);
        let pointered = BcTree::from_values(4, &values);
        for i in 0..values.len() {
            assert_eq!(blocked.prefix(i), pointered.prefix(i), "prefix({i})");
        }
    }

    /// The kernels over a face run written in place inside a larger
    /// slab (how `ddc-core` uses them) against the owned store: same
    /// values, same read/write counts, neighbours untouched.
    #[test]
    fn in_slab_run_matches_owned_store_value_and_count() {
        for len in [1usize, 2, 15, 16, 17, 512] {
            let fw = words_for(len);
            // Record layout of a level slab: [guard | run | guard].
            let mut slab = vec![7i64; fw + 2];
            slab[1..=fw].fill(0);
            let mut owned = BlockedBc::<i64>::zeroed(len);
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ len as u64;
            for step in 0..400usize {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let index = (rng >> 33) as usize % len;
                if step % 3 == 0 {
                    let before = owned.ops();
                    let want = owned.prefix(index);
                    let (got, reads) = prefix(&slab[1..=fw], len, index);
                    assert_eq!(got, want, "len {len} prefix({index})");
                    assert_eq!(reads, (owned.ops() - before).reads, "len {len} reads");
                } else {
                    let delta = (rng >> 40) as i64 % 50 + 1;
                    let before = owned.ops();
                    owned.add(index, delta);
                    let writes = add(&mut slab[1..=fw], len, index, delta);
                    assert_eq!(writes, (owned.ops() - before).writes, "len {len} writes");
                }
            }
            assert_eq!((slab[0], slab[fw + 1]), (7, 7), "len {len} guards");
            // A bulk fill of the same values lands on the same words.
            let values = owned.to_values();
            let mut refilled = vec![0i64; fw];
            fill(&mut refilled, &values);
            assert_eq!(refilled, slab[1..=fw], "len {len} fill");
        }
    }
}
