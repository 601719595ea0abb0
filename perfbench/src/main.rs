//! The astrx-oblx benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <synth_small|synth_large|service_open|cluster_drain>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload seed is the only input. It orders the synthesis jobs,
//! whose annealing seeds are fixed, and it derives the spool workloads'
//! annealing seeds, arrival schedule and job mix. Every run checks the
//! program's outputs and counts failed operations against attempted
//! ones. With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` the run is repeated with the benchmark's
//! own timers around each layer's public entry points (and the
//! program's telemetry counters on) and the last line carries the
//! per-layer metrics. The process exits non-zero when any check fails.
//! README.md in this directory defines every metric.

mod cluster;
mod common;
mod http;
mod jobs;
mod service;
mod synth;

use common::Report;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed wants an unsigned integer".to_string())?,
        seconds,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace wants 0 or 1".to_string()),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = common::Scratch::new(&args.workload, args.seed);
    let report: Report = match args.workload.as_str() {
        "synth_small" => synth::run(synth::SMALL, args.seed, args.seconds, args.trace),
        "synth_large" => synth::run(synth::LARGE, args.seed, args.seconds, args.trace),
        "service_open" => service::run(&scratch, args.seed, args.seconds, args.trace),
        "cluster_drain" => cluster::run(&scratch, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    drop(scratch);
    report.print(args.trace)
}
