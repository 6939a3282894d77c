//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out-dir DIR] [--commit ID]
//! ```
//!
//! Run from the repository root (it reads `examples/programs`). Prints
//! human-readable lines, then one JSON result line. Exits 1 when a
//! correctness check fails and 2 on a usage or setup error (no result
//! line).

use perfbench::{measure, Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(Opts, String), String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench/target/out");
    let mut commit = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val()?)?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(val()?),
            "--commit" => commit = val()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let mut o = Opts::new(workload, seed, root, out_dir);
    o.seconds = seconds;
    o.trace = trace;
    Ok((o, commit))
}

fn main() -> ExitCode {
    let (opts, commit) = match parse() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match measure(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("commit: {commit}");
    for line in &report.notes {
        println!("{line}");
    }
    for p in &report.problems {
        println!("check failed: {p}");
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
