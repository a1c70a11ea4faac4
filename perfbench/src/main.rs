//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--golden-dir DIR] [--out-dir DIR]
//! perfbench --regen-goldens [--golden-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every operation succeeded with the expected output.

use perfbench::sim::SimWorkload;
use perfbench::{fault, golden, result_line, serve, sim, Args, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig7_sim|grid_setup|fault_campaign|serve_mix> \
--seed <n> --seconds <s> --trace <0|1> [--golden-dir DIR] [--out-dir DIR]\n       \
perfbench --regen-goldens [--golden-dir DIR]";

fn parse() -> Result<(Args, bool), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        golden_dir: PathBuf::from("perfbench/golden"),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut regen = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--regen-goldens" {
            regen = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--golden-dir" => args.golden_dir = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !regen && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok((args, regen))
}

fn regen_goldens(args: &Args) -> Result<(), String> {
    let goldens = golden::generate()?;
    let text = serde_json::to_string_pretty(&goldens).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&args.golden_dir).map_err(|e| e.to_string())?;
    let path = args.golden_dir.join(golden::FILE);
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let (args, regen) = match parse() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if regen {
        return match regen_goldens(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("perfbench: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "fig7_sim" => sim::run(SimWorkload::Fig7Sim, &args),
        "grid_setup" => sim::run(SimWorkload::GridSetup, &args),
        "fault_campaign" => fault::run(&args),
        _ => serve::run(&args),
    };
    let (phase, metrics) = match outcome {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for e in &phase.errors {
        eprintln!("perfbench: {e}");
    }
    let correct = phase.failed == 0 && phase.errors.is_empty();
    println!(
        "{}",
        result_line(correct, phase.attempted, phase.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
