//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints each metric as
//! `workload/metric value unit`, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones.

use std::process::ExitCode;

use xoar_perfbench::harness::{self, Outcome};
use xoar_perfbench::workloads::{
    blk_rw::BlkRw, clone_churn::CloneChurn, fabric_fanout::FabricFanout,
    migrate_dirty::MigrateDirty,
};
use xoar_perfbench::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        harness::per_layer::<W>(args.seed, args.seconds)
    } else {
        harness::end_to_end::<W>(args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        BlkRw::NAME => run::<BlkRw>(&args),
        FabricFanout::NAME => run::<FabricFanout>(&args),
        CloneChurn::NAME => run::<CloneChurn>(&args),
        MigrateDirty::NAME => run::<MigrateDirty>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!("{}/{} {} {}", args.workload, m.name, m.value, m.unit);
    }
    for p in &outcome.check.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", harness::result_line(&outcome));
    ExitCode::SUCCESS
}
