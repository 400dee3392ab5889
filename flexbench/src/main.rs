//! `flexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use flexbench::{run, RunConfig, WORKLOADS};

const USAGE: &str =
    "usage: flexbench --workload <chaos-campaign|room-drill|milp-exact> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err(bad(&"not a non-negative number"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flexbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(result) = run(&workload, &cfg) else {
        eprintln!("flexbench: unknown workload {workload}");
        return ExitCode::from(2);
    };
    for msg in &result.tally.messages {
        eprintln!("flexbench: failed operation: {msg}");
    }
    for (name, value, unit) in result.metrics.rows() {
        eprintln!("{workload:>14}  {name:<28} {value:>14.6} {unit}");
    }
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}
