//! Engine selection: every method of the paper behind one constructor.

use ddc_array::{AbelianGroup, RangeSumEngine, Shape};
use ddc_baselines::{MultiFenwick, NaiveEngine, PrefixSumEngine, RelativePrefixEngine};
use ddc_core::{DdcConfig, DdcEngine, ShardConfig, ShardedCube, MAX_RANK};

/// Which range-sum method backs a cube — the five rows of the paper's
/// comparison (§2, Table 1). The two DDC rows are the structures as the
/// paper counts them: the full tree, `with_elision(0)`, so every table
/// and slope measured through them is independent of the leaf-block
/// side [`DdcConfig::dynamic`] derives for production use
/// (`CustomDdc(DdcConfig::dynamic())` builds that one).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum EngineKind {
    /// Scan array `A` directly: `O(n^d)` query, `O(1)` update.
    Naive,
    /// Prefix Sum \[HAMS97\]: `O(1)` query, `O(n^d)` update.
    PrefixSum,
    /// Relative Prefix Sum \[GAES99\]: `O(1)` query, `O(n^{d/2})` update.
    RelativePrefix,
    /// Basic Dynamic Data Cube (§3): `O(log n)` query, `O(n^{d-1})` update.
    BasicDdc,
    /// The Dynamic Data Cube (§4): `O(log^d n)` query and update.
    DynamicDdc,
    /// A Dynamic Data Cube with an explicit configuration (base store,
    /// level elision).
    CustomDdc(DdcConfig),
    /// A dense d-dimensional Fenwick tree: same `O(log^d n)` asymptotics
    /// as the DDC on static cubes, flat-array constants, but no growth,
    /// no sparsity, no insertion (the novelty-band comparator; not part
    /// of the paper's Table 1 and therefore not in [`EngineKind::ALL`]).
    FenwickNd,
    /// A Dynamic Data Cube behind the commit pipeline — the concurrent
    /// deployment of §1 (not a paper method, so not in
    /// [`EngineKind::ALL`]).
    Sharded,
}

impl EngineKind {
    /// All standard kinds in the paper's Table 1 order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Naive,
        EngineKind::PrefixSum,
        EngineKind::RelativePrefix,
        EngineKind::BasicDdc,
        EngineKind::DynamicDdc,
    ];

    /// Builds an all-zero engine of this kind over `shape`.
    pub fn build<G: AbelianGroup>(&self, shape: Shape) -> Box<dyn RangeSumEngine<G>> {
        match self {
            EngineKind::Naive => Box::new(NaiveEngine::zeroed(shape)),
            EngineKind::PrefixSum => Box::new(PrefixSumEngine::zeroed(shape)),
            EngineKind::RelativePrefix => Box::new(RelativePrefixEngine::zeroed(shape)),
            EngineKind::BasicDdc => Box::new(DdcEngine::with_config(
                shape,
                DdcConfig::basic().with_elision(0),
            )),
            EngineKind::DynamicDdc => Box::new(DdcEngine::with_config(
                shape,
                DdcConfig::dynamic().with_elision(0),
            )),
            EngineKind::CustomDdc(config) => Box::new(DdcEngine::with_config(shape, *config)),
            EngineKind::FenwickNd => Box::new(MultiFenwick::zeroed(shape)),
            EngineKind::Sharded => Box::new(ShardedCube::new(
                shape,
                DdcConfig::dynamic(),
                ShardConfig::default(),
            )),
        }
    }

    /// The largest rank this kind builds: [`MAX_RANK`] for the kinds
    /// backed by a Dynamic Data Cube, `None` for the flat baselines.
    pub fn max_rank(&self) -> Option<usize> {
        match self {
            EngineKind::Naive
            | EngineKind::PrefixSum
            | EngineKind::RelativePrefix
            | EngineKind::FenwickNd => None,
            EngineKind::BasicDdc
            | EngineKind::DynamicDdc
            | EngineKind::CustomDdc(_)
            | EngineKind::Sharded => Some(MAX_RANK),
        }
    }

    /// Stable label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Naive => "naive",
            EngineKind::PrefixSum => "prefix-sum",
            EngineKind::RelativePrefix => "relative-prefix",
            EngineKind::BasicDdc => "basic-ddc",
            EngineKind::DynamicDdc => "dynamic-ddc",
            EngineKind::CustomDdc(_) => "custom-ddc",
            EngineKind::FenwickNd => "fenwick-nd",
            EngineKind::Sharded => "sharded-ddc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_array::Region;

    #[test]
    fn every_kind_builds_and_agrees() {
        let shape = Shape::new(&[8, 8]);
        let updates = [
            ([1usize, 2usize], 5i64),
            ([0, 0], 3),
            ([7, 7], -2),
            ([4, 3], 9),
        ];
        let mut engines: Vec<Box<dyn RangeSumEngine<i64>>> = EngineKind::ALL
            .iter()
            .map(|k| k.build(shape.clone()))
            .collect();
        engines
            .push(EngineKind::CustomDdc(DdcConfig::sparse().with_elision(1)).build(shape.clone()));
        for e in engines.iter_mut() {
            for (p, v) in updates {
                e.apply_delta(&p, v);
            }
        }
        let q = Region::new(&[0, 0], &[5, 5]);
        let expect = engines[0].range_sum(&q);
        for e in &engines {
            assert_eq!(e.range_sum(&q), expect, "{}", e.name());
            assert_eq!(e.prefix_sum(&[7, 7]), 15, "{}", e.name());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = EngineKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
