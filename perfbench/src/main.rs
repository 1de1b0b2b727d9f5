//! The repository benchmark: end-to-end metrics of the served path and
//! of the model checker, and a traced run that times each layer from
//! outside by calling its public functions.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_split|serve_gate|check_ram|check_disk> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It prints a table, then one JSON line:
//! the `--trace 0` run carries the end-to-end metrics, the `--trace 1` run
//! the per-layer ones (see `report.rs` for the catalogue).

mod check;
mod hist;
mod report;
mod serve;
mod sys;

use std::process::ExitCode;

/// The command line, checked.
pub struct Args {
    pub workload: String,
    /// Draws the served-path client pids; checker configurations are fixed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    pub trace: bool,
    /// `--probe setup`: print only this process's set-up time (the
    /// benchmark runs itself this way to sample set-up in fresh processes).
    pub probe: bool,
}

const WORKLOADS: [&str; 4] = ["serve_split", "serve_gate", "check_ram", "check_disk"];

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut probe = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            "--probe" if value == "setup" => probe = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: must be 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace,
        probe,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        let setup_s = match args.workload.as_str() {
            "serve_split" | "serve_gate" => serve::probe_setup(&args),
            _ => check::probe_setup(&args),
        };
        println!("{setup_s}");
        return ExitCode::SUCCESS;
    }
    let result = match args.workload.as_str() {
        "serve_split" => serve::run_split(&args),
        "serve_gate" => serve::run_gate(&args),
        "check_ram" => check::run_ram(&args),
        "check_disk" => check::run_disk(&args),
        _ => unreachable!("workload names are checked in parse"),
    };
    match result {
        Ok(mut report) => {
            report.meta.insert(
                0,
                format!(
                    "workload={} seed={} seconds={} trace={} host_cores={} commit={}",
                    args.workload,
                    args.seed,
                    args.seconds,
                    u8::from(args.trace),
                    sys::host_cores(),
                    sys::commit()
                ),
            );
            report.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
