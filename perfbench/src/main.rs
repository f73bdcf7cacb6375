//! `perfbench`: runs one or every benchmark workload for a time budget
//! and prints its metrics, ending with one JSON line.
//!
//! ```text
//! perfbench --workload <name|all> --seed N --seconds N --trace 0|1 [--node-host PATH]
//! ```
//!
//! Each run deploys, drives and tears down the chain several times
//! ("reps"); the first rep warms the process up, and only its checks
//! and its peak memory count. `--trace 0` reports the end-to-end metrics of untraced reps;
//! `--trace 1` alternates untraced and traced reps and reports the
//! per-layer metrics. The exit code is non-zero when any correctness
//! check fails.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::harness::{end_to_end, per_layer, run_rep, workloads, Metric, Rep, Workload};
use perfbench::stats::quantile;

/// Reps run before measuring, whose figures are discarded.
const WARMUP_REPS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    node_host: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        node_host: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => args.trace = number(&value)? != 0,
            "--node-host" => args.node_host = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The seed of rep `i`, derived from the run's seed.
fn rep_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Runs reps of `workload` until the budget is spent and returns them,
/// warm-up first. With `trace`, measured reps alternate untraced and
/// traced and end on a traced one.
fn run_workload(workload: &Workload, args: &Args) -> Vec<Rep> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut last = Duration::ZERO;
    loop {
        let i = reps.len();
        let traced = args.trace && i >= WARMUP_REPS && (i - WARMUP_REPS) % 2 == 1;
        let began = Instant::now();
        let rep = run_rep(
            workload,
            rep_seed(args.seed, i),
            traced,
            args.node_host.as_deref(),
        );
        last = last.max(began.elapsed());
        let failed = !rep.errors.is_empty();
        reps.push(rep);
        let measured = reps.len() - WARMUP_REPS.min(reps.len());
        let enough = if args.trace {
            measured >= 2 && measured % 2 == 0
        } else {
            measured >= 1
        };
        // Stop on a failed check, or before a rep that would overrun.
        if failed || (enough && start.elapsed() + last > budget) {
            return reps;
        }
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Prints the metrics, then the result line; returns whether every check
/// passed.
fn report(workload: &Workload, reps: &[Rep], trace: bool) -> bool {
    let errors: Vec<&String> = reps.iter().flat_map(|r| &r.errors).collect();
    let measured: Vec<&Rep> = reps.iter().skip(WARMUP_REPS).collect();
    let untraced: Vec<&Rep> = measured
        .iter()
        .copied()
        .filter(|r| r.trace.is_none())
        .collect();
    let traced: Vec<&Rep> = measured
        .iter()
        .copied()
        .filter(|r| r.trace.is_some())
        .collect();
    let metrics: Vec<Metric> = match (errors.is_empty(), trace) {
        (false, _) => Vec::new(),
        (true, false) => end_to_end(&reps[0], &untraced),
        (true, true) => per_layer(&traced, &untraced),
    };
    println!(
        "workload {} ({} reps, {} warm-up):",
        workload.name,
        reps.len(),
        WARMUP_REPS
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "  rep {i}{}: setup {:.4} s, run {:.3} s, cpu {:.2} s, committed {}, invalid {}, \
             unresolved {}, {:.1} tps, commit p50 {:.4} p99 {:.4} s, peak rss {:.1} MB",
            match (i < WARMUP_REPS, r.trace.is_some()) {
                (true, _) => " (warm-up)",
                (false, true) => " (traced)",
                (false, false) => "",
            },
            r.setup_s,
            r.run_wall_s,
            r.cpu_s,
            r.committed,
            r.invalid,
            r.unresolved,
            r.sim_tps,
            quantile(&r.commit_s, 0.5).unwrap_or(0.0),
            quantile(&r.commit_s, 0.99).unwrap_or(0.0),
            r.peak_rss_bytes as f64 / 1e6
        );
    }
    for e in &errors {
        println!("  CHECK FAILED: {e}");
    }
    for m in &metrics {
        println!(
            "  {:<26} {:>16.6} {:<9} n={} {}",
            m.name, m.value, m.unit, m.samples.0, m.samples.1
        );
    }
    let correct = errors.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let attempted: u64 = reps.iter().map(|r| r.submitted).sum();
    let failed: u64 = reps.iter().map(|r| r.unresolved).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<Workload> = workloads()
        .into_iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (known: all, {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut all_correct = true;
    for workload in &chosen {
        let reps = run_workload(workload, &args);
        all_correct &= report(workload, &reps, args.trace);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
