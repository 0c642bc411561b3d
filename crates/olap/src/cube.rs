//! [`DataCube`]: the user-facing OLAP layer.
//!
//! Wires named [`Dimension`]s and value encoders onto a range-sum engine,
//! reproducing the paper's usage model: "construct a data cube from the
//! database with SALES as a measure attribute and CUSTOMER_AGE and
//! DATE_AND_TIME as dimensions … find the average daily sales to
//! customers between the ages of 27 and 45 during the time period
//! December 7 to December 31" (§1).

use ddc_array::{AbelianGroup, Pair, RangeSumEngine, Region, Shape};

use crate::dimension::{DimValue, Dimension, EncodeError, RangeSpec};
use crate::engines::EngineKind;

/// A multidimensional data cube with one measure attribute.
///
/// # Examples
///
/// ```
/// use ddc_olap::{CubeBuilder, Dimension, EngineKind, RangeSpec, SumCountCube};
///
/// let mut cube: SumCountCube = CubeBuilder::new()
///     .dimension(Dimension::int_range("customer_age", 18, 99))
///     .dimension(Dimension::int_range("day", 1, 365))
///     .engine(EngineKind::DynamicDdc)
///     .build();
///
/// cube.add_observation(&[37.into(), 220.into()], 120)?;
/// cube.add_observation(&[45.into(), 350.into()], 300)?;
///
/// let window = [
///     RangeSpec::Between(27.into(), 45.into()),
///     RangeSpec::Between(341.into(), 365.into()),
/// ];
/// assert_eq!(cube.sum(&window)?, 300);
/// assert_eq!(cube.average(&window)?, Some(300.0));
/// # Ok::<(), ddc_olap::EncodeError>(())
/// ```
pub struct DataCube<G: AbelianGroup> {
    dims: Vec<Dimension>,
    engine: Box<dyn RangeSumEngine<G>>,
}

impl<G: AbelianGroup> std::fmt::Debug for DataCube<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataCube")
            .field(
                "dims",
                &self.dims.iter().map(Dimension::name).collect::<Vec<_>>(),
            )
            .field("engine", &self.engine.name())
            .finish()
    }
}

/// Builder for [`DataCube`].
#[derive(Debug, Default)]
pub struct CubeBuilder {
    dims: Vec<Dimension>,
    engine: Option<EngineKind>,
}

impl CubeBuilder {
    /// Starts an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a dimension.
    pub fn dimension(mut self, dim: Dimension) -> Self {
        self.dims.push(dim);
        self
    }

    /// Selects the backing method (default: the Dynamic Data Cube in its
    /// production layout, [`ddc_core::DdcConfig::dynamic`]).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = Some(kind);
        self
    }

    /// Builds the (all-zero) cube.
    ///
    /// # Panics
    ///
    /// Panics if no dimensions were declared.
    pub fn build<G: AbelianGroup>(self) -> DataCube<G> {
        assert!(
            !self.dims.is_empty(),
            "a data cube needs at least one dimension"
        );
        let shape = Shape::new(&self.dims.iter().map(Dimension::size).collect::<Vec<_>>());
        let kind = self
            .engine
            .unwrap_or(EngineKind::CustomDdc(ddc_core::DdcConfig::dynamic()));
        DataCube {
            dims: self.dims,
            engine: kind.build(shape),
        }
    }
}

impl<G: AbelianGroup> DataCube<G> {
    /// Starts building a cube.
    pub fn builder() -> CubeBuilder {
        CubeBuilder::new()
    }

    /// The cube's dimensions, in coordinate order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dims
    }

    /// The backing engine's name.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Approximate heap bytes held by the backing structure.
    pub fn heap_bytes(&self) -> usize {
        self.engine.heap_bytes()
    }

    /// The backing engine's extra metrics report, if it keeps one (the
    /// sharded engine reports per-shard commit and lock statistics).
    pub fn metrics_text(&self) -> Option<String> {
        self.engine.metrics_text()
    }

    fn encode_point(&self, coords: &[DimValue<'_>]) -> Result<Vec<usize>, EncodeError> {
        if coords.len() != self.dims.len() {
            return Err(EncodeError::ArityMismatch {
                expected: self.dims.len(),
                got: coords.len(),
            });
        }
        coords
            .iter()
            .zip(self.dims.iter())
            .map(|(v, d)| d.encode(v))
            .collect()
    }

    fn encode_region(&self, ranges: &[RangeSpec<'_>]) -> Result<Region, EncodeError> {
        if ranges.len() != self.dims.len() {
            return Err(EncodeError::ArityMismatch {
                expected: self.dims.len(),
                got: ranges.len(),
            });
        }
        let mut lo = Vec::with_capacity(self.dims.len());
        let mut hi = Vec::with_capacity(self.dims.len());
        for (spec, dim) in ranges.iter().zip(self.dims.iter()) {
            let (l, h) = spec.resolve(dim)?;
            lo.push(l);
            hi.push(h);
        }
        Ok(Region::new(&lo, &hi))
    }

    /// Adds `delta` to the aggregate at the given coordinates (a record
    /// ingestion, e.g. "a sale of $120 to a 37-year-old on day 220").
    pub fn add(&mut self, coords: &[DimValue<'_>], delta: G) -> Result<(), EncodeError> {
        let p = self.encode_point(coords)?;
        self.engine.apply_delta(&p, delta);
        Ok(())
    }

    /// Replaces the aggregate at the given coordinates, returning the
    /// previous value.
    pub fn set(&mut self, coords: &[DimValue<'_>], value: G) -> Result<G, EncodeError> {
        let p = self.encode_point(coords)?;
        Ok(self.engine.set(&p, value))
    }

    /// Reads one cell's aggregate.
    pub fn cell(&self, coords: &[DimValue<'_>]) -> Result<G, EncodeError> {
        let p = self.encode_point(coords)?;
        Ok(self.engine.cell(&p))
    }

    /// The paper's range-sum query: the aggregate over the selected
    /// hyper-rectangle, one [`RangeSpec`] per dimension.
    pub fn range_sum(&self, ranges: &[RangeSpec<'_>]) -> Result<G, EncodeError> {
        let region = self.encode_region(ranges)?;
        Ok(self.engine.range_sum(&region))
    }

    /// Sum over the whole cube.
    pub fn total(&self) -> G {
        self.engine.range_sum(&Region::full(self.engine.shape()))
    }
}

/// A cube that maintains (sum, count) pairs so SUM, COUNT, and AVERAGE
/// queries are all exact under updates — the paper's §2 observation that
/// any operator with an inverse is supported.
pub type SumCountCube = DataCube<Pair<i64, i64>>;

impl SumCountCube {
    /// Records one observation of `value` at the given coordinates.
    pub fn add_observation(
        &mut self,
        coords: &[DimValue<'_>],
        value: i64,
    ) -> Result<(), EncodeError> {
        self.add(coords, Pair::new(value, 1))
    }

    /// Retracts one previously recorded observation (inverse operator).
    pub fn retract_observation(
        &mut self,
        coords: &[DimValue<'_>],
        value: i64,
    ) -> Result<(), EncodeError> {
        self.add(coords, Pair::new(-value, -1))
    }

    /// SUM over the selected range.
    pub fn sum(&self, ranges: &[RangeSpec<'_>]) -> Result<i64, EncodeError> {
        Ok(self.range_sum(ranges)?.a)
    }

    /// COUNT over the selected range.
    pub fn count(&self, ranges: &[RangeSpec<'_>]) -> Result<i64, EncodeError> {
        Ok(self.range_sum(ranges)?.b)
    }

    /// AVERAGE over the selected range (`None` when the range is empty).
    pub fn average(&self, ranges: &[RangeSpec<'_>]) -> Result<Option<f64>, EncodeError> {
        let p = self.range_sum(ranges)?;
        Ok((p.b != 0).then(|| p.a as f64 / p.b as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cube of the paper's introduction: SALES by CUSTOMER_AGE and
    /// day-of-year, with the §1 query "average daily sales to customers
    /// between the ages of 27 and 45 during the period December 7 to
    /// December 31" (days 341..=365 of a non-leap year).
    fn sales_cube() -> SumCountCube {
        CubeBuilder::new()
            .dimension(Dimension::int_range("customer_age", 0, 99))
            .dimension(Dimension::int_range("day", 1, 365))
            .engine(EngineKind::DynamicDdc)
            .build()
    }

    #[test]
    fn paper_intro_average_query() {
        let mut cube = sales_cube();
        // Sales inside the target window.
        cube.add_observation(&[30.into(), 341.into()], 100).unwrap();
        cube.add_observation(&[45.into(), 350.into()], 250).unwrap();
        cube.add_observation(&[27.into(), 365.into()], 130).unwrap();
        // Sales outside it.
        cube.add_observation(&[26.into(), 350.into()], 999).unwrap();
        cube.add_observation(&[30.into(), 340.into()], 999).unwrap();
        let window = [
            RangeSpec::Between(27.into(), 45.into()),
            RangeSpec::Between(341.into(), 365.into()),
        ];
        assert_eq!(cube.sum(&window).unwrap(), 480);
        assert_eq!(cube.count(&window).unwrap(), 3);
        assert_eq!(cube.average(&window).unwrap(), Some(160.0));
        // Total sales to 37-year-olds on day 220 (paper's cell example).
        cube.add_observation(&[37.into(), 220.into()], 75).unwrap();
        assert_eq!(
            cube.cell(&[37.into(), 220.into()]).unwrap(),
            Pair::new(75, 1)
        );
    }

    #[test]
    fn retraction_inverts_ingestion() {
        let mut cube = sales_cube();
        cube.add_observation(&[50.into(), 100.into()], 10).unwrap();
        cube.retract_observation(&[50.into(), 100.into()], 10)
            .unwrap();
        assert_eq!(cube.total(), Pair::new(0, 0));
        assert_eq!(
            cube.average(&[RangeSpec::All, RangeSpec::All]).unwrap(),
            None
        );
    }

    #[test]
    fn categorical_dimension_queries() {
        let mut cube: DataCube<i64> = CubeBuilder::new()
            .dimension(Dimension::categorical(
                "region",
                &["north", "south", "east", "west"],
            ))
            .dimension(Dimension::int_range("month", 1, 12))
            .build();
        cube.add(&["north".into(), 1.into()], 10).unwrap();
        cube.add(&["south".into(), 6.into()], 20).unwrap();
        cube.add(&["west".into(), 12.into()], 40).unwrap();
        assert_eq!(
            cube.range_sum(&[RangeSpec::Eq("south".into()), RangeSpec::All])
                .unwrap(),
            20
        );
        assert_eq!(
            cube.range_sum(&[RangeSpec::All, RangeSpec::Between(1.into(), 6.into())])
                .unwrap(),
            30
        );
        assert_eq!(cube.total(), 70);
    }

    #[test]
    fn every_engine_kind_answers_identically() {
        let mut totals = Vec::new();
        for kind in EngineKind::ALL {
            let mut cube: DataCube<i64> = CubeBuilder::new()
                .dimension(Dimension::int_range("x", 0, 15))
                .dimension(Dimension::int_range("y", 0, 15))
                .engine(kind)
                .build();
            for i in 0..16i64 {
                cube.add(&[i.into(), ((i * 7) % 16).into()], i * i).unwrap();
            }
            let v = cube
                .range_sum(&[
                    RangeSpec::Between(2.into(), 12.into()),
                    RangeSpec::Between(0.into(), 9.into()),
                ])
                .unwrap();
            totals.push((kind.label(), v));
        }
        let first = totals[0].1;
        for (label, v) in totals {
            assert_eq!(v, first, "{label}");
        }
    }

    #[test]
    fn error_paths() {
        let mut cube: DataCube<i64> = CubeBuilder::new()
            .dimension(Dimension::int_range("x", 0, 9))
            .build();
        assert!(matches!(
            cube.add(&[], 1),
            Err(EncodeError::ArityMismatch {
                expected: 1,
                got: 0
            })
        ));
        assert!(cube.add(&[100.into()], 1).is_err());
        assert!(cube.range_sum(&[RangeSpec::Eq("nope".into())]).is_err());
        assert!(cube
            .range_sum(&[RangeSpec::Between(5.into(), 2.into())])
            .is_err());
    }

    #[test]
    fn set_returns_previous_aggregate() {
        let mut cube: DataCube<i64> = CubeBuilder::new()
            .dimension(Dimension::int_range("x", 0, 7))
            .engine(EngineKind::PrefixSum)
            .build();
        assert_eq!(cube.set(&[3.into()], 11).unwrap(), 0);
        assert_eq!(cube.set(&[3.into()], 4).unwrap(), 11);
        assert_eq!(cube.total(), 4);
    }

    #[test]
    fn debug_format_mentions_engine() {
        let cube: DataCube<i64> = CubeBuilder::new()
            .dimension(Dimension::int_range("x", 0, 7))
            .build();
        let s = format!("{cube:?}");
        assert!(s.contains("dynamic-ddc"), "{s}");
    }
}
