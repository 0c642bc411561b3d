//! Construction costs: bulk bottom-up build vs per-cell incremental
//! insertion, against the baselines' build paths. Batch-load time is the paper's §1 "first batch load data"
//! phase — the one cost the prefix-sum family optimizes for.
//!
//! ```text
//! cargo bench -p ddc-bench --features bench-ext --bench build
//! ```

use ddc_baselines::{PrefixSumEngine, RelativePrefixEngine};
use ddc_bench::timer::{report, time_quick};
use ddc_core::{DdcConfig, DdcEngine};
use ddc_workload::{rng, uniform_array};

fn main() {
    for n in [64usize, 256] {
        let shape = ddc_array::Shape::cube(2, n);
        let base = uniform_array(&shape, -50, 50, &mut rng(21));
        let t = time_quick(|| {
            std::hint::black_box(DdcEngine::<i64>::from_array_with(
                &base,
                DdcConfig::dynamic(),
            ));
        });
        report("build", "ddc-bulk", n, &t);
        let t = time_quick(|| {
            std::hint::black_box(DdcEngine::<i64>::from_array_incremental(
                &base,
                DdcConfig::dynamic(),
            ));
        });
        report("build", "ddc-incremental", n, &t);
        let t = time_quick(|| {
            std::hint::black_box(PrefixSumEngine::from_array(&base));
        });
        report("build", "prefix-sum", n, &t);
        let t = time_quick(|| {
            std::hint::black_box(RelativePrefixEngine::from_array(&base));
        });
        report("build", "relative-prefix", n, &t);
    }
}
