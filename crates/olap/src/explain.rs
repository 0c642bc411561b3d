//! Query plans: how a range query decomposes and what it should cost.
//!
//! [`DataCube::explain`] resolves the per-dimension specs to the dense
//! region, counts its Figure-4 prefix terms, and attaches the paper's
//! analytic cost predictions (Table 1 formulas) so users can see *why*
//! an engine choice matters before running anything.

use ddc_array::{AbelianGroup, Region};
use ddc_costmodel::table1;

use crate::cube::DataCube;
use crate::dimension::{EncodeError, RangeSpec};

/// The resolved plan for one range-sum query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPlan {
    /// The dense index region the specs resolve to.
    pub region: Region,
    /// Number of signed prefix terms Figure 4's inclusion–exclusion
    /// produces (1 ≤ terms ≤ 2^d; origin-anchored dimensions drop
    /// terms). Engines that answer a range through prefix sums combine
    /// exactly these. For the Data Cube engines it is Figure 4's upper
    /// bound, not the terms they combine: they answer a range by one
    /// walk of the tree, whose reads stay below these terms' over a
    /// workload.
    pub prefix_terms: usize,
    /// Cells a naive scan of the region would read.
    pub naive_cells: usize,
    /// Predicted cost (values touched) per engine for the *query*, from
    /// the paper's formulas on the cube's geometry.
    pub predicted_query: Vec<(&'static str, f64)>,
    /// Predicted cost per engine for one *update* to this cube —
    /// constant per cube, printed for contrast (Table 1).
    pub predicted_update: Vec<(&'static str, f64)>,
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "region          : {:?}..{:?}",
            self.region.lo(),
            self.region.hi()
        )?;
        writeln!(f, "prefix terms    : {}", self.prefix_terms)?;
        writeln!(f, "naive scan cells: {}", self.naive_cells)?;
        writeln!(f, "predicted query cost (values read):")?;
        for (name, cost) in &self.predicted_query {
            writeln!(f, "  {name:<16} {cost:>14.0}")?;
        }
        writeln!(f, "predicted worst-case update cost (Table 1):")?;
        for (name, cost) in &self.predicted_update {
            writeln!(f, "  {name:<16} {cost:>14.0}")?;
        }
        Ok(())
    }
}

impl<G: AbelianGroup> DataCube<G> {
    /// Builds the plan for a range query without executing it.
    pub fn explain(&self, ranges: &[RangeSpec<'_>]) -> Result<QueryPlan, EncodeError> {
        if ranges.len() != self.dimensions().len() {
            return Err(EncodeError::ArityMismatch {
                expected: self.dimensions().len(),
                got: ranges.len(),
            });
        }
        let mut lo = Vec::with_capacity(ranges.len());
        let mut hi = Vec::with_capacity(ranges.len());
        for (spec, dim) in ranges.iter().zip(self.dimensions()) {
            let (l, h) = spec.resolve(dim)?;
            lo.push(l);
            hi.push(h);
        }
        let region = Region::new(&lo, &hi);
        let terms = region.prefix_decomposition().len();

        let d = self.dimensions().len() as u32;
        let n = self
            .dimensions()
            .iter()
            .map(|dim| dim.size())
            .max()
            .expect("at least one dimension") as f64;
        let logd = n.log2().max(1.0).powi(d as i32);
        let t = terms as f64;
        let predicted_query = vec![
            ("naive", region.cells() as f64),
            ("prefix-sum", t),
            ("relative-prefix", t * 2f64.powi(d as i32)),
            (
                "basic-ddc",
                t * n.log2().max(1.0) * (2f64.powi(d as i32) - 1.0),
            ),
            ("dynamic-ddc", t * logd),
        ];
        let predicted_update = vec![
            ("naive", 1.0),
            ("prefix-sum", table1::prefix_sum_update(n, d)),
            ("relative-prefix", table1::relative_prefix_update(n, d)),
            (
                "basic-ddc",
                ddc_costmodel::complexity::basic_update_cost(n.max(2.0), d.max(2)),
            ),
            ("dynamic-ddc", table1::ddc_update(n, d)),
        ];
        Ok(QueryPlan {
            region,
            prefix_terms: terms,
            naive_cells: 0, // set below to keep field ordering obvious
            predicted_query,
            predicted_update,
        }
        .with_naive_cells())
    }
}

impl QueryPlan {
    fn with_naive_cells(mut self) -> Self {
        self.naive_cells = self.region.cells();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{CubeBuilder, SumCountCube};
    use crate::dimension::Dimension;
    use crate::engines::EngineKind;

    fn cube() -> SumCountCube {
        CubeBuilder::new()
            .dimension(Dimension::int_range("age", 0, 99))
            .dimension(Dimension::int_range("day", 1, 365))
            .engine(EngineKind::DynamicDdc)
            .build()
    }

    #[test]
    fn plan_reflects_the_region() {
        let c = cube();
        let plan = c
            .explain(&[
                RangeSpec::Between(27.into(), 45.into()),
                RangeSpec::Between(341.into(), 365.into()),
            ])
            .unwrap();
        assert_eq!(plan.region.lo(), &[27, 340]);
        assert_eq!(plan.region.hi(), &[45, 364]);
        assert_eq!(plan.prefix_terms, 4);
        assert_eq!(plan.naive_cells, 19 * 25);
    }

    #[test]
    fn origin_anchored_queries_drop_terms() {
        let c = cube();
        let plan = c
            .explain(&[RangeSpec::Between(0.into(), 45.into()), RangeSpec::All])
            .unwrap();
        assert_eq!(plan.prefix_terms, 1);
    }

    #[test]
    fn predictions_rank_engines_sensibly() {
        let c = cube();
        let plan = c.explain(&[RangeSpec::All, RangeSpec::All]).unwrap();
        let get = |rows: &[(&str, f64)], k: &str| {
            rows.iter().find(|(n, _)| *n == k).map(|(_, v)| *v).unwrap()
        };
        // Query: prefix-sum cheapest, naive most expensive.
        assert!(get(&plan.predicted_query, "prefix-sum") < get(&plan.predicted_query, "naive"));
        // Update: the ordering of Table 1.
        let upd = &plan.predicted_update;
        assert!(get(upd, "dynamic-ddc") < get(upd, "relative-prefix"));
        assert!(get(upd, "relative-prefix") < get(upd, "prefix-sum"));
        // Display renders every engine line.
        let text = plan.to_string();
        assert!(text.contains("dynamic-ddc"), "{text}");
        assert!(text.contains("prefix terms"), "{text}");
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let c = cube();
        assert!(c.explain(&[RangeSpec::All]).is_err());
    }
}
