//! Layered census benchmark.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload <census_embedded|census_uncertain|wsd_small|service_mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's closed loop with tracing off and prints
//! the end-to-end metrics; `--trace 1` replays the same seeded request
//! stream with spans around every call, then times each layer's public
//! functions from kernel to wire and prints the per-layer metrics.  Human
//! readable lines start with `#`; the last line is the JSON result.
//! `--workload all` runs every workload, each in its own process, both ways.

mod inputs;
mod layers;
mod report;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Duration;

use report::{END_TO_END, PER_LAYER};
use workloads::{Workload, BENCH_SIZES};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let budget = Duration::from_secs(args.seconds);
    let (outcome, table) = if args.trace {
        (
            layers::run(workload, BENCH_SIZES, args.seed, budget)?,
            PER_LAYER,
        )
    } else {
        (
            workloads::run(workload, BENCH_SIZES, args.seed, budget)?,
            END_TO_END,
        )
    };
    for (name, value, unit) in outcome.checked(table)? {
        println!("# {name:<30} {value:>14.3} {unit}");
    }
    println!(
        "# attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.json(table)?);
    Ok(())
}

/// Every workload, untraced then traced, each in a process of its own so
/// `peak_rss_mb` is per workload.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", trace])
                .output()
                .map_err(|e| format!("running {}: {e}", workload.name()))?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            println!("## {} --trace {trace}", workload.name());
            print!("{}", String::from_utf8_lossy(&out.stdout));
            if !out.status.success() {
                return Err(format!(
                    "{} --trace {trace} failed: {}",
                    workload.name(),
                    out.status
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "all" => run_all(&args),
        name => match Workload::parse(name) {
            Some(workload) => run_one(workload, &args),
            None => Err(format!("unknown workload {name}")),
        },
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}
