//! The one argument reader of the `ddc` subcommands: `--flag VALUE`
//! pairs and bare `--switch`es, checked against what the subcommand
//! accepts, so that a misspelt flag is a usage error and not a silently
//! served default.

use std::str::FromStr;

use ddc_core::MAX_RANK;

/// One subcommand's arguments, every one of them known to it.
pub(crate) struct Flags<'a> {
    args: &'a [String],
    values: &'a [&'a str],
}

impl<'a> Flags<'a> {
    /// Walks `args`: each must be one of `values` followed by its value,
    /// or one of `switches`. Anything else — a misspelling, a stray
    /// value, a flag the subcommand does not take — is refused by name.
    pub(crate) fn parse(
        args: &'a [String],
        values: &'a [&'a str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut i = 0;
        while let Some(arg) = args.get(i) {
            if values.contains(&arg.as_str()) {
                if i + 1 == args.len() {
                    return Err(format!("{arg} needs a value"));
                }
                i += 2;
            } else if switches.contains(&arg.as_str()) {
                i += 1;
            } else {
                let valued = values.iter().map(|v| format!("{v} VALUE"));
                let accepted: Vec<String> = switches
                    .iter()
                    .map(|s| s.to_string())
                    .chain(valued)
                    .collect();
                return Err(format!(
                    "unknown argument {arg}; accepted: {}",
                    match accepted.is_empty() {
                        true => "none".to_string(),
                        false => accepted.join(" "),
                    }
                ));
            }
        }
        Ok(Self { args, values })
    }

    /// Where `name` first stands as a flag (a flag's value is never
    /// mistaken for one).
    fn position(&self, name: &str) -> Option<usize> {
        let mut i = 0;
        while let Some(arg) = self.args.get(i) {
            if arg == name {
                return Some(i);
            }
            i += if self.values.contains(&arg.as_str()) {
                2
            } else {
                1
            };
        }
        None
    }

    /// The value following the first `name`, if it was given.
    pub(crate) fn value(&self, name: &str) -> Option<&'a str> {
        let at = self.position(name)?;
        self.args.get(at + 1).map(String::as_str)
    }

    /// [`Flags::value`], parsed.
    pub(crate) fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// [`Flags::num`] for a cube's rank: refused outside
    /// `1..=MAX_RANK`, the ranks a tree is built for.
    pub(crate) fn rank(&self, name: &str) -> Result<Option<usize>, String> {
        let d = self.num::<usize>(name)?;
        match d {
            Some(d) if !(1..=MAX_RANK).contains(&d) => Err(format!(
                "{name} {d} outside 1..={MAX_RANK}: a cube has at most MAX_RANK = \
                 {MAX_RANK} dimensions"
            )),
            _ => Ok(d),
        }
    }

    /// Whether the bare switch `name` was given.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.position(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn values_switches_and_refusals() {
        let given = args(&["--seed", "7", "--paged", "--out", "--seed"]);
        let flags = Flags::parse(&given, &["--seed", "--out"], &["--paged", "--quick"]).unwrap();
        assert_eq!(flags.num::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(flags.value("--out"), Some("--seed"));
        assert!(flags.has("--paged") && !flags.has("--quick"));
        let given = args(&["--out", "--paged"]);
        let flags = Flags::parse(&given, &["--out"], &["--paged"]).unwrap();
        assert!(!flags.has("--paged"));
        assert_eq!(flags.num::<u64>("--cases"), Ok(None));

        let refused = |words: &[&str]| {
            Flags::parse(&args(words), &["--seed"], &["--paged"])
                .map(|_| ())
                .unwrap_err()
        };
        assert_eq!(
            refused(&["--pagd"]),
            "unknown argument --pagd; accepted: --paged --seed VALUE"
        );
        assert!(refused(&["--seed", "1", "2"]).starts_with("unknown argument 2;"));
        assert_eq!(refused(&["--paged", "--seed"]), "--seed needs a value");
        let given = args(&["--seed", "x"]);
        let flags = Flags::parse(&given, &["--seed"], &[]).unwrap();
        assert!(flags
            .num::<u64>("--seed")
            .unwrap_err()
            .starts_with("--seed: "));
    }
}
