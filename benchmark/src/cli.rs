//! The command line both binaries take:
//! `--workload NAME --seed N --seconds N --trace 0|1`.

use crate::spec::Spec;

/// Parsed arguments.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload to run.
    pub spec: Spec,
    /// Seed of the op stream.
    pub seed: u64,
    /// Scales the per-round op counts; see [`crate::spec`].
    pub seconds: u64,
}

/// Parses `args` (without the program name). `trace` is the value
/// `--trace` must have for the calling binary: the end-to-end binary
/// runs with tracing off, the layers binary with tracing on.
pub fn parse(args: &[String], trace: bool) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => {
                if number()? != u64::from(trace) {
                    return Err(format!(
                        "this binary runs with --trace {}; benchmark/run.sh picks the binary",
                        u8::from(trace)
                    ));
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(
            &words("--workload serve_mixed --seed 9 --seconds 20 --trace 0"),
            false,
        )
        .expect("valid");
        assert_eq!((a.spec.name, a.seed, a.seconds), ("serve_mixed", 9, 20));
        assert!(parse(
            &words("--workload serve_mixed --seed 9 --seconds 20 --trace 1"),
            true
        )
        .is_ok());
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve_mixed --seed x --seconds 1",
            "--workload serve_mixed --seed 1",
            "--workload serve_mixed --seed 1 --seconds",
            "--workload serve_mixed --seed 1 --seconds 1 --trace 1",
            "--workload serve_mixed --seed 1 --seconds 1 --frobnicate 1",
        ] {
            assert!(parse(&words(bad), false).is_err(), "{bad}");
        }
    }
}
