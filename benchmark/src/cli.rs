//! The command line.
//!
//! Two spellings reach the same run: the benchmark contract's
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` and the
//! shorter `run <name> [--seed <n>] [--traced] [--smoke]`.

use crate::bench::Options;
use crate::workload::{Spec, REFERENCE_SECONDS, SPECS};

/// How to call the program.
pub fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: dsmbench run <workload> [--seed <u64>] [--seconds <1..60>] [--traced] [--smoke]\n\
         \x20      dsmbench --workload <workload> --seed <u64> --seconds <1..60> --trace <0|1>\n\
         workloads: {}",
        names.join(", ")
    )
}

fn value<'a>(flag: &str, args: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
}

/// Parse the arguments after the program name.
pub fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Options, String> {
    let mut args = args.into_iter();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = REFERENCE_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    while let Some(arg) = args.next() {
        match arg {
            "run" | "--workload" => workload = Some(value(arg, &mut args)?),
            "--seed" => seed = number(arg, value(arg, &mut args)?)?,
            "--seconds" => {
                seconds = number(arg, value(arg, &mut args)?)?;
                if !(1..=60).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=60"));
                }
            }
            "--trace" => {
                traced = match value(arg, &mut args)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("no workload named")?;
    let spec = Spec::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(Options {
        spec,
        seed,
        seconds,
        traced,
        smoke,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_spellings_reach_the_same_options() {
        let contract = parse([
            "--workload",
            "thr-read-n2",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        let short = parse(["run", "thr-read-n2", "--seed", "9", "--traced"]).unwrap();
        for o in [contract, short] {
            assert_eq!(o.spec.name, "thr-read-n2");
            assert_eq!((o.seed, o.seconds, o.traced, o.smoke), (9, 10, true, false));
        }
        assert!(parse(["run", "sim-mesh-n8", "--smoke"]).unwrap().smoke);
    }

    #[test]
    fn bad_arguments_are_refused_with_a_reason() {
        for bad in [
            vec![],
            vec!["run"],
            vec!["run", "no-such-workload"],
            vec!["run", "sim-mesh-n8", "--seed", "x"],
            vec!["run", "sim-mesh-n8", "--seconds", "0"],
            vec!["run", "sim-mesh-n8", "--seconds", "61"],
            vec!["run", "sim-mesh-n8", "--trace", "2"],
            vec!["run", "sim-mesh-n8", "--frobnicate"],
        ] {
            assert!(parse(bad.iter().copied()).is_err(), "{bad:?}");
        }
        assert!(usage().contains("sim-grid-n64"));
    }
}
