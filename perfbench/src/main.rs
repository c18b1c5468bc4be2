//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-sweep|utility-scale> --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in this process (so `peak_rss_mb` belongs to it),
//! checks every output, prints a per-layer table with `--trace 1`, and
//! prints one JSON result object as the last line of standard output:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! `perfbench/run.py` builds this binary and is the command to run.

mod calib;
mod compile_wl;
mod corpus;
mod layers;
mod quality;
mod report;
mod stats;
mod trace;

use std::cell::Cell;
use std::path::PathBuf;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// This run's directory for spans and the scratch store.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <paper-sweep|utility-scale> \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-sweep", "utility-scale"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(RunArgs {
        out_dir: PathBuf::from(".bench_out").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

thread_local! {
    /// Set while a job runs under [`catch_job`]: its panics are counted
    /// failures, not crashes, so the panic hook stays quiet for them.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Runs one job, turning a panic into `Err(message)`.
pub fn catch_job<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    IN_JOB.with(|c| c.set(true));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    IN_JOB.with(|c| c.set(false));
    r.map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        format!("panicked: {msg}")
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !IN_JOB.with(Cell::get) {
            default_hook(info);
        }
    }));
    std::fs::create_dir_all(&args.out_dir).expect("output directory can be created");

    let corpus = match args.workload.as_str() {
        "paper-sweep" => corpus::paper_sweep(args.seed),
        _ => corpus::utility_scale(args.seed),
    };
    let outcome = compile_wl::run(&args.workload, &corpus, &args);

    // Keep the span file; drop the scratch store.
    if let Ok(entries) = std::fs::read_dir(&args.out_dir) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let _ = std::fs::remove_dir(&args.out_dir);

    for f in &outcome.failures {
        println!("failed: {f}");
    }
    for m in &outcome.metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json_line());
}
