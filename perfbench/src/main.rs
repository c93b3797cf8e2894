//! The repository benchmark: one workload per run, inputs from `--seed`.
//!
//! ```text
//! perfbench --workload <hot_history|push_durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced (no `PipelineObs` attached) and
//! reports the end-to-end metrics. With `--trace 1` the same workload runs
//! twice, untraced and then traced, and the run reports the per-layer
//! metrics. Either way the run checks its outputs. Human-readable lines
//! (every metric with its sample count) go first; the last line of
//! standard output is one JSON object.

mod check;
mod gen;
mod host;
mod hot_history;
mod phase;
mod push_durable;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use stats::Report;

/// What a workload run needs to know from the command line.
pub struct Args {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for durable stores, inside the working directory.
    pub work: PathBuf,
}

const WORKLOADS: [&str; 2] = ["hot_history", "push_durable"];

fn parse() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or(format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = num("--seed")?;
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Args {
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
            work,
        },
    ))
}

fn json_result(report: &Report, correct: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let (workload, args) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {workload}, seed {}, {} s, trace {}, {cores} cores",
        args.seed,
        args.seconds.as_secs(),
        args.trace
    );
    let run = match workload.as_str() {
        "hot_history" => hot_history::run(&args),
        _ => push_durable::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    // Succeeds only when no other run is using it.
    let _ = std::fs::remove_dir(".perfbench_work");
    let (report, listed, spans) = run;
    for m in report.metrics.iter().chain(&listed.metrics) {
        println!(
            "  {:<40} {:>16.6} {:<7} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  attempted {} failed {} fail_ratio {:.6}",
        report.attempted,
        report.failed,
        stats::ratio(report.failed as f64, report.attempted as f64)
    );
    for f in &report.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    if let Some(spans) = spans {
        let dir = PathBuf::from(".perfbench_out");
        let path = dir.join(format!("{workload}-seed{}.spans.jsonl", args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let correct = report.failed == 0 && report.check_failures.is_empty();
    println!("{}", json_result(&report, correct));
    if !correct {
        std::process::exit(1);
    }
}
