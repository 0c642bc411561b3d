//! Command language of the `ddc` shell.
//!
//! A tiny line-oriented language, equally usable interactively and in
//! batch scripts (`ddc script.ddc`):
//!
//! ```text
//! create sales engine=dynamic dims=age:int:0:99,day:int:1:365
//! add sales 37 220 120
//! sum sales 27..45 341..365
//! avg sales * 341..365
//! cell sales 37 220
//! set sales 37 220 0
//! save sales /tmp/sales.ddc
//! load sales2 /tmp/sales.ddc
//! stats sales
//! help | quit
//! ```

use std::fmt;

/// A parsed shell command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `create <cube> engine=<kind> dims=<name:int:lo:hi | name:cat:a|b|c>,…`
    Create {
        /// Cube name.
        name: String,
        /// Engine keyword (`naive`, `prefix`, `relative`, `basic`, `dynamic`,
        /// `sparse`, or `sharded[N]` for an `N`-way sharded dynamic cube).
        engine: String,
        /// Dimension specs.
        dims: Vec<DimSpec>,
    },
    /// `add <cube> <coord…> <amount>` — record one observation.
    Add {
        /// Cube name.
        cube: String,
        /// One coordinate token per dimension.
        coords: Vec<String>,
        /// Observation value.
        amount: i64,
    },
    /// `set <cube> <coord…> <amount>` — overwrite a cell's sum.
    Set {
        /// Cube name.
        cube: String,
        /// One coordinate token per dimension.
        coords: Vec<String>,
        /// New value.
        amount: i64,
    },
    /// `cell <cube> <coord…>` — read one cell.
    Cell {
        /// Cube name.
        cube: String,
        /// One coordinate token per dimension.
        coords: Vec<String>,
    },
    /// `sum|count|avg <cube> <range…>` where a range is `*`, `v`, or `lo..hi`.
    Query {
        /// Aggregate to compute.
        agg: Aggregate,
        /// Cube name.
        cube: String,
        /// One range token per dimension.
        ranges: Vec<RangeToken>,
    },
    /// `stats <cube>` — engine, shape, memory.
    Stats {
        /// Cube name.
        cube: String,
    },
    /// `metrics <cube>` — per-shard commit statistics (sharded engines).
    Metrics {
        /// Cube name.
        cube: String,
    },
    /// `save <cube> <path>` / `load <cube> <path>`.
    Save {
        /// Cube name.
        cube: String,
        /// Destination path.
        path: String,
    },
    /// Loads a snapshot into a (new) cube name.
    Load {
        /// Cube name to create.
        cube: String,
        /// Source path.
        path: String,
    },
    /// `ingest <cube> <csv-path> [delim=<char>] [header=<yes|no>]`.
    Ingest {
        /// Cube name.
        cube: String,
        /// CSV path.
        path: String,
        /// Field delimiter.
        delimiter: char,
        /// Whether the first line is a header.
        has_header: bool,
    },
    /// `groupby <cube> <dim-name> <range…>` — one row per bucket.
    GroupBy {
        /// Cube name.
        cube: String,
        /// Dimension to group on (by name).
        dim: String,
        /// One range token per dimension.
        ranges: Vec<RangeToken>,
    },
    /// `rolling <cube> <dim-name> <window> <range…>` — trailing windows.
    Rolling {
        /// Cube name.
        cube: String,
        /// Dimension to roll along (by name).
        dim: String,
        /// Window width in buckets.
        window: usize,
        /// One range token per dimension.
        ranges: Vec<RangeToken>,
    },
    /// `explain <cube> <range…>` — show the query plan without running it.
    Explain {
        /// Cube name.
        cube: String,
        /// One range token per dimension.
        ranges: Vec<RangeToken>,
    },
    /// `sql <cube> SELECT …` — run a SQL-style aggregate query.
    Sql {
        /// Cube name.
        cube: String,
        /// The query text after the cube name.
        query: String,
    },
    /// `help`.
    Help,
    /// `quit` / `exit`.
    Quit,
    /// Blank line or comment.
    Nothing,
}

/// Aggregates the shell can compute.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// SUM of the measure.
    Sum,
    /// COUNT of observations.
    Count,
    /// AVERAGE (sum / count).
    Avg,
}

/// One dimension declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum DimSpec {
    /// `name:int:lo:hi`
    Int {
        /// Dimension name.
        name: String,
        /// Lowest value.
        lo: i64,
        /// Highest value.
        hi: i64,
    },
    /// `name:cat:a|b|c`
    Cat {
        /// Dimension name.
        name: String,
        /// Category labels.
        labels: Vec<String>,
    },
}

/// One per-dimension range token of a query.
#[derive(Clone, Debug, PartialEq)]
pub enum RangeToken {
    /// `*` — the whole dimension.
    All,
    /// A single value token.
    Eq(String),
    /// `lo..hi` (inclusive).
    Between(String, String),
}

/// A parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parses one input line.
pub fn parse(line: &str) -> Result<Command, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Command::Nothing);
    }
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().expect("non-empty line");
    let rest: Vec<&str> = tokens.collect();
    match verb {
        "help" => Ok(Command::Help),
        "quit" | "exit" => Ok(Command::Quit),
        "create" => parse_create(&rest),
        "add" | "set" => {
            if rest.len() < 3 {
                return err(format!("{verb} needs: <cube> <coord…> <amount>"));
            }
            let cube = rest[0].to_string();
            let amount: i64 = rest[rest.len() - 1]
                .parse()
                .map_err(|_| ParseError(format!("bad amount '{}'", rest[rest.len() - 1])))?;
            let coords = rest[1..rest.len() - 1]
                .iter()
                .map(|s| s.to_string())
                .collect();
            if verb == "add" {
                Ok(Command::Add {
                    cube,
                    coords,
                    amount,
                })
            } else {
                Ok(Command::Set {
                    cube,
                    coords,
                    amount,
                })
            }
        }
        "cell" => {
            if rest.len() < 2 {
                return err("cell needs: <cube> <coord…>");
            }
            Ok(Command::Cell {
                cube: rest[0].to_string(),
                coords: rest[1..].iter().map(|s| s.to_string()).collect(),
            })
        }
        "sum" | "count" | "avg" => {
            if rest.is_empty() {
                return err(format!("{verb} needs: <cube> <range…>"));
            }
            let agg = match verb {
                "sum" => Aggregate::Sum,
                "count" => Aggregate::Count,
                _ => Aggregate::Avg,
            };
            let ranges = rest[1..]
                .iter()
                .map(|t| parse_range(t))
                .collect::<Result<_, _>>()?;
            Ok(Command::Query {
                agg,
                cube: rest[0].to_string(),
                ranges,
            })
        }
        "stats" => {
            if rest.len() != 1 {
                return err("stats needs: <cube>");
            }
            Ok(Command::Stats {
                cube: rest[0].to_string(),
            })
        }
        "metrics" => {
            if rest.len() != 1 {
                return err("metrics needs: <cube>");
            }
            Ok(Command::Metrics {
                cube: rest[0].to_string(),
            })
        }
        "explain" => {
            if rest.is_empty() {
                return err("explain needs: <cube> <range…>");
            }
            let ranges = rest[1..]
                .iter()
                .map(|t| parse_range(t))
                .collect::<Result<_, _>>()?;
            Ok(Command::Explain {
                cube: rest[0].to_string(),
                ranges,
            })
        }
        "sql" => {
            if rest.len() < 2 {
                return err("sql needs: <cube> SELECT …");
            }
            Ok(Command::Sql {
                cube: rest[0].to_string(),
                query: rest[1..].join(" "),
            })
        }
        "ingest" => {
            if rest.len() < 2 {
                return err("ingest needs: <cube> <csv-path> [delim=<c>] [header=<yes|no>]");
            }
            let mut delimiter = ',';
            let mut has_header = true;
            for opt in &rest[2..] {
                if let Some(v) = opt.strip_prefix("delim=") {
                    let mut chars = v.chars();
                    match (chars.next(), chars.next()) {
                        (Some(c), None) => delimiter = c,
                        _ => return err(format!("delimiter must be one character, got '{v}'")),
                    }
                } else if let Some(v) = opt.strip_prefix("header=") {
                    has_header = match v {
                        "yes" => true,
                        "no" => false,
                        _ => return err(format!("header must be yes or no, got '{v}'")),
                    };
                } else {
                    return err(format!("unknown ingest option '{opt}'"));
                }
            }
            Ok(Command::Ingest {
                cube: rest[0].to_string(),
                path: rest[1].to_string(),
                delimiter,
                has_header,
            })
        }
        "groupby" => {
            if rest.len() < 2 {
                return err("groupby needs: <cube> <dim-name> <range…>");
            }
            let ranges = rest[2..]
                .iter()
                .map(|t| parse_range(t))
                .collect::<Result<_, _>>()?;
            Ok(Command::GroupBy {
                cube: rest[0].to_string(),
                dim: rest[1].to_string(),
                ranges,
            })
        }
        "rolling" => {
            if rest.len() < 3 {
                return err("rolling needs: <cube> <dim-name> <window> <range…>");
            }
            let window: usize = rest[2]
                .parse()
                .map_err(|_| ParseError(format!("bad window '{}'", rest[2])))?;
            if window == 0 {
                return err("window must be at least 1");
            }
            let ranges = rest[3..]
                .iter()
                .map(|t| parse_range(t))
                .collect::<Result<_, _>>()?;
            Ok(Command::Rolling {
                cube: rest[0].to_string(),
                dim: rest[1].to_string(),
                window,
                ranges,
            })
        }
        "save" | "load" => {
            if rest.len() != 2 {
                return err(format!("{verb} needs: <cube> <path>"));
            }
            let cube = rest[0].to_string();
            let path = rest[1].to_string();
            if verb == "save" {
                Ok(Command::Save { cube, path })
            } else {
                Ok(Command::Load { cube, path })
            }
        }
        other => err(format!("unknown command '{other}' (try 'help')")),
    }
}

fn parse_range(token: &str) -> Result<RangeToken, ParseError> {
    if token == "*" {
        return Ok(RangeToken::All);
    }
    if let Some((lo, hi)) = token.split_once("..") {
        if lo.is_empty() || hi.is_empty() {
            return err(format!("bad range '{token}' (want lo..hi)"));
        }
        return Ok(RangeToken::Between(lo.to_string(), hi.to_string()));
    }
    Ok(RangeToken::Eq(token.to_string()))
}

fn parse_create(rest: &[&str]) -> Result<Command, ParseError> {
    if rest.is_empty() {
        return err("create needs: <cube> engine=<kind> dims=<specs>");
    }
    let name = rest[0].to_string();
    let mut engine = "dynamic".to_string();
    let mut dims = Vec::new();
    for opt in &rest[1..] {
        if let Some(v) = opt.strip_prefix("engine=") {
            engine = v.to_string();
        } else if let Some(v) = opt.strip_prefix("dims=") {
            for spec in v.split(',') {
                dims.push(parse_dim(spec)?);
            }
        } else {
            return err(format!("unknown option '{opt}'"));
        }
    }
    if dims.is_empty() {
        return err("create needs at least one dimension (dims=…)");
    }
    Ok(Command::Create { name, engine, dims })
}

fn parse_dim(spec: &str) -> Result<DimSpec, ParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        [name, "int", lo, hi] => {
            let lo: i64 = lo
                .parse()
                .map_err(|_| ParseError(format!("bad bound '{lo}'")))?;
            let hi: i64 = hi
                .parse()
                .map_err(|_| ParseError(format!("bad bound '{hi}'")))?;
            if lo > hi {
                return err(format!("empty domain {lo}..{hi} for '{name}'"));
            }
            Ok(DimSpec::Int {
                name: name.to_string(),
                lo,
                hi,
            })
        }
        [name, "cat", labels] => {
            let labels: Vec<String> = labels.split('|').map(|l| l.to_string()).collect();
            if labels.iter().any(|l| l.is_empty()) {
                return err(format!("empty label in '{spec}'"));
            }
            Ok(DimSpec::Cat {
                name: name.to_string(),
                labels,
            })
        }
        _ => err(format!(
            "bad dimension spec '{spec}' (want name:int:lo:hi or name:cat:a|b)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create() {
        let c = parse("create sales engine=dynamic dims=age:int:0:99,region:cat:n|s").unwrap();
        assert_eq!(
            c,
            Command::Create {
                name: "sales".into(),
                engine: "dynamic".into(),
                dims: vec![
                    DimSpec::Int {
                        name: "age".into(),
                        lo: 0,
                        hi: 99
                    },
                    DimSpec::Cat {
                        name: "region".into(),
                        labels: vec!["n".into(), "s".into()]
                    },
                ],
            }
        );
    }

    #[test]
    fn parses_queries() {
        assert_eq!(
            parse("sum sales 27..45 *").unwrap(),
            Command::Query {
                agg: Aggregate::Sum,
                cube: "sales".into(),
                ranges: vec![
                    RangeToken::Between("27".into(), "45".into()),
                    RangeToken::All
                ],
            }
        );
        assert_eq!(
            parse("avg s x").unwrap(),
            Command::Query {
                agg: Aggregate::Avg,
                cube: "s".into(),
                ranges: vec![RangeToken::Eq("x".into())],
            }
        );
    }

    #[test]
    fn parses_mutations() {
        assert_eq!(
            parse("add sales 37 220 120").unwrap(),
            Command::Add {
                cube: "sales".into(),
                coords: vec!["37".into(), "220".into()],
                amount: 120
            }
        );
        assert_eq!(
            parse("set sales 37 220 0").unwrap(),
            Command::Set {
                cube: "sales".into(),
                coords: vec!["37".into(), "220".into()],
                amount: 0
            }
        );
    }

    #[test]
    fn comments_and_blanks_are_nothing() {
        assert_eq!(parse("").unwrap(), Command::Nothing);
        assert_eq!(parse("  # a comment").unwrap(), Command::Nothing);
    }

    #[test]
    fn error_messages_are_specific() {
        assert!(parse("frobnicate")
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse("add sales 3").unwrap_err().0.contains("needs"));
        assert!(parse("create c dims=x:int:9:1")
            .unwrap_err()
            .0
            .contains("empty domain"));
        assert!(parse("sum s 5..").unwrap_err().0.contains("bad range"));
    }

    #[test]
    fn save_load_stats() {
        assert_eq!(
            parse("save c /tmp/x").unwrap(),
            Command::Save {
                cube: "c".into(),
                path: "/tmp/x".into()
            }
        );
        assert_eq!(
            parse("load c2 /tmp/x").unwrap(),
            Command::Load {
                cube: "c2".into(),
                path: "/tmp/x".into()
            }
        );
        assert_eq!(
            parse("stats c").unwrap(),
            Command::Stats { cube: "c".into() }
        );
        assert_eq!(
            parse("metrics c").unwrap(),
            Command::Metrics { cube: "c".into() }
        );
        assert!(parse("metrics").unwrap_err().0.contains("needs"));
        assert_eq!(parse("quit").unwrap(), Command::Quit);
    }
}
