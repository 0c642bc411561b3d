//! The `ddc` shell's interpreter: named cubes, command execution, and
//! script-format save/load.
//!
//! Snapshots are *replayable scripts*: `save` writes the cube's `create`
//! line (with the cube name abstracted to `@`) followed by one `pair`
//! line per populated cell, so a snapshot loads into any cube name and is
//! human-readable and diffable.

use std::collections::HashMap;
use std::fmt::Write as _;

use ddc_olap::{CubeBuilder, DimValue, Dimension, EngineKind, RangeSpec, SumCountCube};

use crate::command::{Aggregate, Command, DimSpec, RangeToken};

/// Result of executing one command.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Text to show the user (possibly multi-line).
    Text(String),
    /// Nothing to show.
    Silent,
    /// The session should end.
    Quit,
}

/// An interactive session holding named cubes.
#[derive(Default)]
pub struct Session {
    cubes: HashMap<String, Slot>,
}

struct Slot {
    /// The `create` command that produced the cube, with its name
    /// replaced by `@` (the save-script format).
    create_line: String,
    cube: SumCountCube,
}

const HELP: &str = "\
commands:
  create <cube> engine=<naive|prefix|relative|basic|dynamic|sparse|sharded[N]> \\
         dims=<name:int:lo:hi | name:cat:a|b|c>,…
  add    <cube> <coord…> <amount>      record one observation
  set    <cube> <coord…> <amount>      overwrite a cell's sum
  cell   <cube> <coord…>               read one cell
  sum|count|avg <cube> <range…>        range is *, value, or lo..hi
  pair   <cube> <coord…> <sum> <count> raw (sum,count) delta (snapshots)
  sql    <cube> SELECT SUM|COUNT|AVG [WHERE dim=v | dim BETWEEN a AND b [AND …]] [GROUP BY dim]
  explain <cube> <range…>              show the query plan and predicted costs
  ingest <cube> <csv> [delim=<c>] [header=yes|no]
  groupby <cube> <dim-name> <range…>   one aggregate row per bucket
  rolling <cube> <dim-name> <w> <range…>  trailing windows of width w
  stats  <cube>                        engine, shape, memory
  metrics <cube>                       per-shard commit statistics (sharded engines)
  save   <cube> <path>   /  load <cube> <path>
  help   /  quit";

impl Session {
    /// A fresh session with no cubes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and executes one line.
    pub fn execute_line(&mut self, line: &str) -> Result<Output, String> {
        // Raw `pair` lines are part of the snapshot format, handled here
        // so the public command language stays small.
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("pair ") {
            return self.execute_pair(rest);
        }
        let cmd = crate::command::parse(line).map_err(|e| e.to_string())?;
        self.execute(cmd, trimmed)
    }

    fn execute(&mut self, cmd: Command, raw_line: &str) -> Result<Output, String> {
        match cmd {
            Command::Nothing => Ok(Output::Silent),
            Command::Help => Ok(Output::Text(HELP.to_string())),
            Command::Quit => Ok(Output::Quit),
            Command::Create { name, engine, dims } => {
                if self.cubes.contains_key(&name) {
                    return Err(format!("cube '{name}' already exists"));
                }
                let kind = engine_kind(&engine)?;
                if let Some(max) = kind.max_rank().filter(|&max| dims.len() > max) {
                    return Err(format!(
                        "engine {engine} has at most MAX_RANK = {max} dimensions, got {}",
                        dims.len()
                    ));
                }
                // Validate the cell count before the builder allocates:
                // user-typed domains like x:int:0:9223372036854775807 must
                // produce an error, not a panic or an absurd allocation.
                let mut sizes = Vec::with_capacity(dims.len());
                for d in &dims {
                    match d {
                        DimSpec::Int { name, lo, hi } => {
                            let width = hi
                                .checked_sub(*lo)
                                .and_then(|w| w.checked_add(1))
                                .and_then(|w| usize::try_from(w).ok())
                                .ok_or_else(|| format!("domain of '{name}' is too large"))?;
                            sizes.push(width);
                        }
                        DimSpec::Cat { labels, .. } => sizes.push(labels.len()),
                    }
                }
                ddc_array::Shape::try_new(&sizes)
                    .map_err(|e| format!("invalid dimensions: {e}"))?;
                let mut builder = CubeBuilder::new().engine(kind);
                for d in &dims {
                    builder = builder.dimension(match d {
                        DimSpec::Int { name, lo, hi } => Dimension::int_range(name, *lo, *hi),
                        DimSpec::Cat { name, labels } => {
                            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                            Dimension::categorical(name, &refs)
                        }
                    });
                }
                let cube: SumCountCube = builder.build();
                let create_line = raw_line.replacen(&format!("create {name}"), "create @", 1);
                self.cubes.insert(name.clone(), Slot { create_line, cube });
                Ok(Output::Text(format!("created cube '{name}'")))
            }
            Command::Add {
                cube,
                coords,
                amount,
            } => {
                let slot = self.slot_mut(&cube)?;
                let vals = to_values(&slot.cube, &coords)?;
                slot.cube
                    .add_observation(&vals, amount)
                    .map_err(|e| e.to_string())?;
                Ok(Output::Silent)
            }
            Command::Set {
                cube,
                coords,
                amount,
            } => {
                let slot = self.slot_mut(&cube)?;
                let vals = to_values(&slot.cube, &coords)?;
                let old = slot
                    .cube
                    .set(&vals, ddc_array::Pair::new(amount, i64::from(amount != 0)));
                let old = old.map_err(|e| e.to_string())?;
                Ok(Output::Text(format!("was sum={} count={}", old.a, old.b)))
            }
            Command::Cell { cube, coords } => {
                let slot = self.slot(&cube)?;
                let vals = to_values(&slot.cube, &coords)?;
                let v = slot.cube.cell(&vals).map_err(|e| e.to_string())?;
                Ok(Output::Text(format!("sum={} count={}", v.a, v.b)))
            }
            Command::Query { agg, cube, ranges } => {
                let slot = self.slot(&cube)?;
                let specs = to_specs(&slot.cube, &ranges)?;
                let text = match agg {
                    Aggregate::Sum => {
                        format!("{}", slot.cube.sum(&specs).map_err(|e| e.to_string())?)
                    }
                    Aggregate::Count => {
                        format!("{}", slot.cube.count(&specs).map_err(|e| e.to_string())?)
                    }
                    Aggregate::Avg => match slot.cube.average(&specs).map_err(|e| e.to_string())? {
                        Some(a) => format!("{a:.4}"),
                        None => "no observations".to_string(),
                    },
                };
                Ok(Output::Text(text))
            }
            Command::Stats { cube } => {
                let slot = self.slot(&cube)?;
                let dims: Vec<String> = slot
                    .cube
                    .dimensions()
                    .iter()
                    .map(|d| format!("{}({})", d.name(), d.size()))
                    .collect();
                Ok(Output::Text(format!(
                    "engine {} | dims {} | heap {} KiB",
                    slot.cube.engine_name(),
                    dims.join(" × "),
                    slot.cube.heap_bytes() / 1024
                )))
            }
            Command::Metrics { cube } => {
                let slot = self.slot(&cube)?;
                match slot.cube.metrics_text() {
                    Some(text) => Ok(Output::Text(text.trim_end().to_string())),
                    None => Ok(Output::Text(format!(
                        "engine {} keeps no extra metrics (try a sharded engine)",
                        slot.cube.engine_name()
                    ))),
                }
            }
            Command::Explain { cube, ranges } => {
                let slot = self.slot(&cube)?;
                let specs = to_specs(&slot.cube, &ranges)?;
                let plan = slot.cube.explain(&specs).map_err(|e| e.to_string())?;
                Ok(Output::Text(plan.to_string()))
            }
            Command::Sql { cube, query } => {
                let slot = self.slot(&cube)?;
                match slot.cube.query(&query)? {
                    ddc_olap::SqlResult::Scalar(v) => Ok(Output::Text(format!("{v}"))),
                    ddc_olap::SqlResult::Average(Some(a)) => Ok(Output::Text(format!("{a:.4}"))),
                    ddc_olap::SqlResult::Average(None) => {
                        Ok(Output::Text("no observations".to_string()))
                    }
                    ddc_olap::SqlResult::Rows(rows) => {
                        let mut out = String::new();
                        for (label, sum, count) in rows {
                            out.push_str(&format!("{label:<12} sum {sum:>10}  count {count:>7}\n"));
                        }
                        out.pop();
                        Ok(Output::Text(out))
                    }
                }
            }
            Command::Ingest {
                cube,
                path,
                delimiter,
                has_header,
            } => {
                let data =
                    std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
                let slot = self.slot_mut(&cube)?;
                let opts = ddc_olap::IngestOptions {
                    delimiter,
                    has_header,
                };
                let n = ddc_olap::load_records(&mut slot.cube, &data, &opts)
                    .map_err(|e| e.to_string())?;
                Ok(Output::Text(format!("ingested {n} records into '{cube}'")))
            }
            Command::GroupBy { cube, dim, ranges } => {
                let slot = self.slot(&cube)?;
                let axis = axis_of(&slot.cube, &dim)?;
                let specs = to_specs(&slot.cube, &ranges)?;
                let rows = slot
                    .cube
                    .group_by(axis, &specs)
                    .map_err(|e| e.to_string())?;
                Ok(Output::Text(render_rows(&rows)))
            }
            Command::Rolling {
                cube,
                dim,
                window,
                ranges,
            } => {
                let slot = self.slot(&cube)?;
                let axis = axis_of(&slot.cube, &dim)?;
                let specs = to_specs(&slot.cube, &ranges)?;
                let rows = slot
                    .cube
                    .rolling_sum(axis, window, &specs)
                    .map_err(|e| e.to_string())?;
                Ok(Output::Text(render_rows(&rows)))
            }
            Command::Save { cube, path } => {
                let script = self.snapshot_script(&cube)?;
                std::fs::write(&path, script).map_err(|e| format!("write {path}: {e}"))?;
                Ok(Output::Text(format!("saved '{cube}' to {path}")))
            }
            Command::Load { cube, path } => {
                let script =
                    std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
                self.replay_script(&cube, &script)?;
                Ok(Output::Text(format!("loaded '{cube}' from {path}")))
            }
        }
    }

    fn execute_pair(&mut self, rest: &str) -> Result<Output, String> {
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        if tokens.len() < 4 {
            return Err("pair needs: <cube> <coord…> <sum> <count>".to_string());
        }
        let cube = tokens[0];
        let sum: i64 = tokens[tokens.len() - 2]
            .parse()
            .map_err(|_| format!("bad sum '{}'", tokens[tokens.len() - 2]))?;
        let count: i64 = tokens[tokens.len() - 1]
            .parse()
            .map_err(|_| format!("bad count '{}'", tokens[tokens.len() - 1]))?;
        let coords: Vec<String> = tokens[1..tokens.len() - 2]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let slot = self.slot_mut(cube)?;
        let vals = to_values(&slot.cube, &coords)?;
        slot.cube
            .add(&vals, ddc_array::Pair::new(sum, count))
            .map_err(|e| e.to_string())?;
        Ok(Output::Silent)
    }

    /// Renders the replayable snapshot script of a cube.
    pub fn snapshot_script(&self, cube: &str) -> Result<String, String> {
        let slot = self.slot(cube)?;
        let mut out = String::new();
        out.push_str("# ddc snapshot (replayable script)\n");
        out.push_str(&slot.create_line);
        out.push('\n');
        // Enumerate populated cells via per-dimension GROUP BY recursion:
        // cheap and engine-agnostic thanks to range sums.
        let dims = slot.cube.dimensions().len();
        let mut coords: Vec<usize> = vec![0; dims];
        self.dump_cells(&slot.cube, 0, &mut coords, &mut out)?;
        Ok(out)
    }

    #[allow(clippy::only_used_in_recursion)]
    fn dump_cells(
        &self,
        cube: &SumCountCube,
        axis: usize,
        coords: &mut Vec<usize>,
        out: &mut String,
    ) -> Result<(), String> {
        // Prune empty subtrees with one COUNT query per prefix.
        let spec: Vec<RangeSpec<'_>> = (0..cube.dimensions().len())
            .map(|i| {
                if i < axis {
                    RangeSpec::Index(coords[i])
                } else {
                    RangeSpec::All
                }
            })
            .collect();
        let agg = cube.range_sum(&spec).map_err(|e| e.to_string())?;
        if agg.a == 0 && agg.b == 0 {
            return Ok(());
        }
        if axis == cube.dimensions().len() {
            let labels: Vec<String> = coords
                .iter()
                .enumerate()
                .map(|(i, &c)| cube.dimensions()[i].label(c))
                .collect();
            let _ = writeln!(out, "pair @ {} {} {}", labels.join(" "), agg.a, agg.b);
            return Ok(());
        }
        for c in 0..cube.dimensions()[axis].size() {
            coords[axis] = c;
            self.dump_cells(cube, axis + 1, coords, out)?;
        }
        coords.truncate(cube.dimensions().len());
        Ok(())
    }

    fn replay_script(&mut self, cube: &str, script: &str) -> Result<(), String> {
        if self.cubes.contains_key(cube) {
            return Err(format!("cube '{cube}' already exists"));
        }
        for line in script.lines() {
            let line = line.replace('@', cube);
            match self.execute_line(&line)? {
                Output::Quit => return Err("snapshot scripts may not quit".to_string()),
                _ => continue,
            }
        }
        if !self.cubes.contains_key(cube) {
            return Err("snapshot did not create the cube (bad file?)".to_string());
        }
        Ok(())
    }

    fn slot(&self, name: &str) -> Result<&Slot, String> {
        self.cubes
            .get(name)
            .ok_or_else(|| format!("no cube named '{name}'"))
    }

    fn slot_mut(&mut self, name: &str) -> Result<&mut Slot, String> {
        self.cubes
            .get_mut(name)
            .ok_or_else(|| format!("no cube named '{name}'"))
    }
}

fn axis_of(cube: &SumCountCube, dim: &str) -> Result<usize, String> {
    cube.dimensions()
        .iter()
        .position(|d| d.name() == dim)
        .ok_or_else(|| format!("no dimension named '{dim}'"))
}

fn render_rows(rows: &[ddc_olap::GroupRow<ddc_array::Pair<i64, i64>>]) -> String {
    let mut out = String::new();
    for row in rows {
        let avg = if row.value.b == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", row.value.a as f64 / row.value.b as f64)
        };
        out.push_str(&format!(
            "{:<12} sum {:>10}  count {:>7}  avg {:>10}\n",
            row.label, row.value.a, row.value.b, avg
        ));
    }
    out.pop();
    out
}

fn engine_kind(word: &str) -> Result<EngineKind, String> {
    Ok(match word {
        "naive" => EngineKind::Naive,
        "prefix" => EngineKind::PrefixSum,
        "relative" => EngineKind::RelativePrefix,
        "basic" => EngineKind::BasicDdc,
        "dynamic" => EngineKind::CustomDdc(ddc_core::DdcConfig::dynamic()),
        "sparse" => EngineKind::CustomDdc(ddc_core::DdcConfig::sparse()),
        other => match other.strip_prefix("sharded") {
            // `sharded` (default shard count) or `shardedN` (explicit).
            Some("") => EngineKind::Sharded {
                shards: ddc_core::ShardConfig::default().shards,
            },
            Some(n) => {
                let shards: usize = n
                    .parse()
                    .map_err(|_| format!("bad shard count '{n}' in '{other}'"))?;
                if shards == 0 {
                    return Err("shard count must be at least 1".to_string());
                }
                EngineKind::Sharded { shards }
            }
            None => return Err(format!("unknown engine '{other}'")),
        },
    })
}

/// Interprets coordinate tokens by the cube's dimension types: numeric
/// dimensions parse integers, categorical dimensions take the token as a
/// label.
fn to_values<'a>(cube: &SumCountCube, coords: &'a [String]) -> Result<Vec<DimValue<'a>>, String> {
    if coords.len() != cube.dimensions().len() {
        return Err(format!(
            "expected {} coordinates, got {}",
            cube.dimensions().len(),
            coords.len()
        ));
    }
    coords
        .iter()
        .zip(cube.dimensions())
        .map(|(tok, dim)| match dim.encoder() {
            ddc_olap::Encoder::Categorical { .. } => Ok(DimValue::Str(tok)),
            _ => tok
                .parse::<i64>()
                .map(DimValue::Int)
                .map_err(|_| format!("bad numeric coordinate '{tok}' for '{}'", dim.name())),
        })
        .collect()
}

fn to_specs<'a>(
    cube: &SumCountCube,
    ranges: &'a [RangeToken],
) -> Result<Vec<RangeSpec<'a>>, String> {
    if ranges.len() != cube.dimensions().len() {
        return Err(format!(
            "expected {} ranges, got {}",
            cube.dimensions().len(),
            ranges.len()
        ));
    }
    let one = |tok: &'a str, dim: &Dimension| -> Result<DimValue<'a>, String> {
        match dim.encoder() {
            ddc_olap::Encoder::Categorical { .. } => Ok(DimValue::Str(tok)),
            _ => tok
                .parse::<i64>()
                .map(DimValue::Int)
                .map_err(|_| format!("bad numeric bound '{tok}' for '{}'", dim.name())),
        }
    };
    ranges
        .iter()
        .zip(cube.dimensions())
        .map(|(tok, dim)| match tok {
            RangeToken::All => Ok(RangeSpec::All),
            RangeToken::Eq(v) => Ok(RangeSpec::Eq(one(v, dim)?)),
            RangeToken::Between(a, b) => Ok(RangeSpec::Between(one(a, dim)?, one(b, dim)?)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &mut Session, line: &str) -> Output {
        session
            .execute_line(line)
            .unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    #[test]
    fn end_to_end_paper_scenario() {
        let mut s = Session::new();
        run(
            &mut s,
            "create sales engine=dynamic dims=age:int:0:99,day:int:1:365",
        );
        run(&mut s, "add sales 37 220 120");
        run(&mut s, "add sales 37 220 80");
        run(&mut s, "add sales 45 350 300");
        assert_eq!(
            run(&mut s, "sum sales 37 220"),
            Output::Text("200".to_string())
        );
        assert_eq!(
            run(&mut s, "avg sales 27..45 341..365"),
            Output::Text("300.0000".to_string())
        );
        assert_eq!(
            run(&mut s, "count sales * *"),
            Output::Text("3".to_string())
        );
    }

    #[test]
    fn categorical_coordinates() {
        let mut s = Session::new();
        run(
            &mut s,
            "create m engine=sparse dims=region:cat:north|south,week:int:1:52",
        );
        run(&mut s, "add m north 10 500");
        run(&mut s, "add m south 10 100");
        assert_eq!(
            run(&mut s, "sum m north *"),
            Output::Text("500".to_string())
        );
        assert_eq!(
            run(&mut s, "sum m * 1..26"),
            Output::Text("600".to_string())
        );
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut s = Session::new();
        assert!(s.execute_line("sum nope *").is_err());
        run(&mut s, "create c engine=naive dims=x:int:0:9");
        assert!(s.execute_line("add c 99 5").is_err());
        assert!(s.execute_line("add c 1").is_err());
        assert!(s
            .execute_line("create c engine=naive dims=x:int:0:9")
            .is_err());
        assert!(s
            .execute_line("create d engine=warp dims=x:int:0:9")
            .is_err());
    }

    #[test]
    fn create_refuses_more_dimensions_than_a_ddc_engine_builds() {
        let dims = |n: usize| {
            (0..n)
                .map(|i| format!("x{i}:int:0:1"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut s = Session::new();
        for engine in ["basic", "dynamic", "sparse", "sharded2"] {
            let err = s
                .execute_line(&format!("create c engine={engine} dims={}", dims(9)))
                .expect_err("nine dimensions");
            assert!(err.contains("MAX_RANK = 8"), "{err}");
            run(
                &mut s,
                &format!("create {engine} engine={engine} dims={}", dims(8)),
            );
        }
        // A flat baseline has no rank bound.
        run(&mut s, &format!("create n engine=naive dims={}", dims(9)));
    }

    #[test]
    fn snapshot_script_roundtrip() {
        let mut s = Session::new();
        run(
            &mut s,
            "create src engine=dynamic dims=r:cat:a|b,x:int:0:15",
        );
        run(&mut s, "add src a 3 10");
        run(&mut s, "add src a 3 20");
        run(&mut s, "add src b 15 7");
        let script = s.snapshot_script("src").unwrap();
        assert!(script.contains("create @"));
        assert!(script.contains("pair @ a 3 30 2"));

        s.replay_script("dst", &script).unwrap();
        assert_eq!(run(&mut s, "sum dst * *"), Output::Text("37".to_string()));
        assert_eq!(
            run(&mut s, "cell dst a 3"),
            Output::Text("sum=30 count=2".to_string())
        );
    }

    #[test]
    fn save_load_via_filesystem() {
        let dir = std::env::temp_dir().join(format!("ddc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cube.ddc");
        let path_str = path.to_str().unwrap();

        let mut s = Session::new();
        run(&mut s, "create c engine=dynamic dims=x:int:0:7");
        run(&mut s, "add c 5 42");
        run(&mut s, &format!("save c {path_str}"));
        run(&mut s, &format!("load c2 {path_str}"));
        assert_eq!(run(&mut s, "sum c2 *"), Output::Text("42".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn set_reports_previous() {
        let mut s = Session::new();
        run(&mut s, "create c engine=dynamic dims=x:int:0:7");
        run(&mut s, "add c 3 9");
        assert_eq!(
            run(&mut s, "set c 3 100"),
            Output::Text("was sum=9 count=1".to_string())
        );
        assert_eq!(run(&mut s, "sum c *"), Output::Text("100".to_string()));
    }

    #[test]
    fn ingest_groupby_rolling_pipeline() {
        let dir = std::env::temp_dir().join(format!("ddc-cli-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("sales.csv");
        std::fs::write(
            &csv,
            "region,day,amount\nnorth,1,100\nsouth,1,40\nnorth,2,60\nnorth,3,30\n",
        )
        .unwrap();

        let mut s = Session::new();
        run(
            &mut s,
            "create sales engine=dynamic dims=region:cat:north|south,day:int:1:31",
        );
        let out = run(&mut s, &format!("ingest sales {}", csv.display()));
        assert_eq!(
            out,
            Output::Text("ingested 4 records into 'sales'".to_string())
        );

        let Output::Text(g) = run(&mut s, "groupby sales region * *") else {
            panic!("expected text");
        };
        assert!(g.contains("north"), "{g}");
        assert!(g.contains("190"), "{g}");

        let Output::Text(rl) = run(&mut s, "rolling sales day 2 north 1..3") else {
            panic!("expected text");
        };
        // Windows ending day 2 (100+60) and day 3 (60+30).
        assert!(rl.contains("160"), "{rl}");
        assert!(rl.contains("90"), "{rl}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_prints_a_plan() {
        let mut s = Session::new();
        run(
            &mut s,
            "create c engine=dynamic dims=age:int:0:99,day:int:1:365",
        );
        let Output::Text(plan) = run(&mut s, "explain c 27..45 341..365") else {
            panic!("expected plan text");
        };
        assert!(plan.contains("prefix terms    : 4"), "{plan}");
        assert!(plan.contains("dynamic-ddc"), "{plan}");
        assert!(s.execute_line("explain c 27..45").is_err()); // arity
    }

    #[test]
    fn sql_queries_through_the_shell() {
        let mut s = Session::new();
        run(
            &mut s,
            "create sales engine=dynamic dims=age:int:0:99,region:cat:north|south",
        );
        run(&mut s, "add sales 30 north 100");
        run(&mut s, "add sales 45 south 250");
        run(&mut s, "add sales 27 north 130");
        assert_eq!(
            run(&mut s, "sql sales SELECT SUM WHERE age BETWEEN 27 AND 45"),
            Output::Text("480".to_string())
        );
        assert_eq!(
            run(&mut s, "sql sales SELECT AVG WHERE region = north"),
            Output::Text("115.0000".to_string())
        );
        let Output::Text(rows) = run(&mut s, "sql sales SELECT SUM GROUP BY region") else {
            panic!("expected rows");
        };
        assert!(rows.contains("north"), "{rows}");
        assert!(rows.contains("250"), "{rows}");
        assert!(s.execute_line("sql sales SELECT MAX").is_err());
    }

    #[test]
    fn ingest_option_errors() {
        let mut s = Session::new();
        assert!(s.execute_line("ingest c file.csv delim=ab").is_err());
        assert!(s.execute_line("ingest c file.csv header=maybe").is_err());
        run(&mut s, "create c engine=naive dims=x:int:0:9");
        assert!(s.execute_line("groupby c nope *").is_err());
        assert!(s.execute_line("rolling c x 0 *").is_err());
    }

    #[test]
    fn sharded_engine_in_the_shell() {
        let mut s = Session::new();
        run(
            &mut s,
            "create sales engine=sharded4 dims=age:int:0:99,day:int:1:365",
        );
        run(&mut s, "add sales 37 220 120");
        run(&mut s, "add sales 37 220 80");
        run(&mut s, "add sales 45 350 300");
        assert_eq!(
            run(&mut s, "sum sales 37 220"),
            Output::Text("200".to_string())
        );
        assert_eq!(
            run(&mut s, "count sales * *"),
            Output::Text("3".to_string())
        );

        let Output::Text(stats) = run(&mut s, "stats sales") else {
            panic!("expected stats text");
        };
        assert!(stats.contains("sharded-ddc"), "{stats}");

        let Output::Text(m) = run(&mut s, "metrics sales") else {
            panic!("expected metrics text");
        };
        assert!(m.contains("shard"), "{m}");
        assert!(
            m.lines().count() >= 5,
            "one header plus four shard rows: {m}"
        );

        // Default shard count and the non-sharded fallback message.
        run(&mut s, "create plain engine=sharded dims=x:int:0:9");
        run(&mut s, "create d engine=dynamic dims=x:int:0:9");
        let Output::Text(none) = run(&mut s, "metrics d") else {
            panic!("expected fallback text");
        };
        assert!(none.contains("no extra metrics"), "{none}");
        assert!(s
            .execute_line("create bad engine=sharded0 dims=x:int:0:9")
            .is_err());
        assert!(s
            .execute_line("create bad engine=shardedx dims=x:int:0:9")
            .is_err());
    }

    #[test]
    fn help_and_quit() {
        let mut s = Session::new();
        assert!(matches!(run(&mut s, "help"), Output::Text(t) if t.contains("create")));
        assert_eq!(run(&mut s, "quit"), Output::Quit);
        assert_eq!(run(&mut s, "# comment"), Output::Silent);
    }
}
