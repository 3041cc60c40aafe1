//! `dsmbench` entry point: parse, refuse what the host cannot measure,
//! run, print the result line, exit non-zero on any failed check.

use dsmbench::bench::{run_traced, run_untraced};
use dsmbench::report::result_line;
use dsmbench::{cli, host};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(args.iter().map(String::as_str)) {
        Ok(opts) => opts,
        Err(reason) => {
            eprintln!("dsmbench: {reason}\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    if opts.spec.is_threaded() && host::cores() < 2 {
        eprintln!(
            "dsmbench: {} needs at least 2 cores ({} workers and the driver run at once), \
             this host offers {}; a run here would measure the scheduler, not the backend",
            opts.spec.name,
            opts.spec.procs,
            host::cores(),
        );
        return ExitCode::from(2);
    }
    let outcome = if opts.traced {
        run_traced(&opts)
    } else {
        run_untraced(&opts)
    };
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::from(outcome.exit_code())
}
