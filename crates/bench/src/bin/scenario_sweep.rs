//! **Scenario sweep** — the one fault-drill harness: the shipped
//! scenario corpus, or a seeded chaos matrix, across every registered
//! backend, each cell graded by its own expectations plus the oracle's
//! `journal_monotonicity` and, after teardown, `no_thread_leak` and
//! `no_child_leak`.
//!
//! By default each cell loads a named corpus scenario
//! (`hammer_core::scenario::corpus`), retargets it to the backend's
//! calibrated operating point (same window shape, average rate scaled to
//! the backend's moderate under-capacity rate) and runs it through the
//! unmodified driver. `--seeds N` (or `--slices N`) runs the seeded chaos
//! matrix instead: seeds `1..=N` per backend, each a `--slices`-second
//! (default 10) constant load under a [`hammer_net::ChaosSchedule`]
//! generated from the seed over the backend's own topology.
//!
//! ```text
//! cargo run --release --bin scenario_sweep -- [--smoke] [--list]
//!     [--scenario NAME] [--backend NAME] [--deploy-mode in|multi]
//!     [--crash-smoke] [--seeds N] [--slices N]
//! ```
//!
//! `--deploy-mode multi` reruns the selected cells with each backend as
//! a supervised `node-host` OS process behind loopback TCP (build the
//! binary first: `cargo build --release --bin node-host`).
//! `--crash-smoke` runs one scripted multi-process scenario whose crash
//! window SIGKILLs the real node process mid-run and asserts the
//! supervisor restarted it with the accounting identity intact.
//!
//! Emits a JSON verdict matrix to
//! `target/bench-results/scenario_sweep.json` and a final summary line
//! (`scenario sweep: R runs, V expectation violations`) that CI greps
//! for `0 expectation violations`.

use std::time::Duration;

use bench::save_result;
use hammer_core::chaos::{leak_checks, live_children, live_threads};
use hammer_core::deploy::DeployMode;
use hammer_core::retry::RetryPolicy;
use hammer_core::scenario::{corpus, FaultSpec, NodeRef, Scenario, Verdict};
use hammer_net::ChaosConfig;
use hammer_store::report::render_table;

/// (backend, average rate tx/s, speedup) — moderate rates well under
/// capacity so the scenario's own shape and faults, not saturation,
/// decide the verdict. The registry's Ethereum keeps its 15 s PoW
/// blocks; the 30 s stall budget clears that comfortably.
const OPERATING_POINTS: [(&str, u32, f64); 4] = [
    ("ethereum-sim", 40, 100.0),
    ("fabric-sim", 150, 100.0),
    ("meepo-sim", 300, 50.0),
    ("neuchain-sim", 500, 100.0),
];

/// The smoke gate: two fast scenarios on the two fastest backends.
const SMOKE_SCENARIOS: [&str; 2] = ["nft-flash-crowd-mint", "partition-then-heal"];
const SMOKE_BACKENDS: [&str; 2] = ["fabric-sim", "neuchain-sim"];

fn usage() -> ! {
    eprintln!(
        "usage: scenario_sweep [--smoke] [--list] [--scenario NAME] [--backend NAME] \
         [--deploy-mode in|multi] [--crash-smoke] [--seeds N] [--slices N]"
    );
    std::process::exit(2);
}

struct Args {
    smoke: bool,
    scenario: Option<String>,
    backend: Option<String>,
    deploy_mode: Option<DeployMode>,
    crash_smoke: bool,
    seeds: Option<u64>,
    slices: Option<usize>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        scenario: None,
        backend: None,
        deploy_mode: None,
        crash_smoke: false,
        seeds: None,
        slices: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--list" => {
                for name in corpus::names() {
                    let scenario = corpus::load(name).expect("corpus scenario must parse");
                    println!("{name}: {}", scenario.description());
                }
                std::process::exit(0);
            }
            "--scenario" => parsed.scenario = Some(value()),
            "--backend" => parsed.backend = Some(value()),
            "--deploy-mode" => {
                parsed.deploy_mode = Some(DeployMode::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--crash-smoke" => parsed.crash_smoke = true,
            "--seeds" => parsed.seeds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--slices" => parsed.slices = Some(value().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    if parsed.seeds == Some(0) || parsed.slices == Some(0) {
        usage();
    }
    parsed
}

/// One cell of the seeded chaos matrix: `backend` at its operating point
/// for `slices` one-second slices under a schedule generated from `seed`
/// (horizon = the run window), the workload seeded the same way. The
/// builder's defaults supply the rest: 200 accounts, a LAN network, 50 ms
/// polling, a 60 s drain, and a 30 s stall budget.
fn chaos_cell(backend: &str, rate: u32, speedup: f64, seed: u64, slices: usize) -> Scenario {
    Scenario::builder(&format!("chaos-seed-{seed}"))
        .describe("seeded chaos schedule over the backend's discovered fault targets")
        .backend(backend)
        .speedup(speedup)
        .workload_with(|w| w.seed = seed)
        .constant_load(rate, slices)
        .chaos_seeded(
            seed,
            ChaosConfig {
                horizon: Duration::ZERO,
                ..ChaosConfig::default()
            },
        )
        .retry(RetryPolicy::standard())
        .expect_accounting_identity()
        .expect_no_stall()
        .build()
        .expect("chaos cells are statically valid")
}

/// The multi-process crash smoke: one scripted scenario whose crash
/// window SIGKILLs the real `node-host` process. Passing means the
/// supervisor delivered the kill AND restarted the node AND the run
/// still completed with the accounting identity intact.
fn crash_smoke() -> ! {
    println!("=== Multi-process crash smoke: neuchain-sim behind loopback TCP ===");
    let scenario = Scenario::builder("multi-process-crash-smoke")
        .describe("crash window SIGKILLs the node-host process; the supervisor restarts it")
        .backend("neuchain-sim")
        .speedup(10.0)
        .deploy_mode(DeployMode::MultiProcess)
        .workload_with(|w| w.accounts = 100)
        .constant_load(30, 8)
        .retry(RetryPolicy::standard())
        .fault(FaultSpec::Crash {
            node: NodeRef::Ingress(0),
            start: Duration::from_secs(2),
            end: Duration::from_secs(4),
        })
        .expect_accounting_identity()
        .expect_no_stall()
        .build()
        .expect("the crash smoke scenario is statically valid");
    let verdict = scenario.run().unwrap_or_else(|e| {
        eprintln!("RUN FAILED: {e}");
        std::process::exit(1);
    });
    for check in &verdict.checks {
        println!(
            "  [{}] {}: {}",
            if check.passed { "pass" } else { "FAIL" },
            check.name,
            check.detail
        );
    }
    let stats = verdict.process_faults.unwrap_or_default();
    println!(
        "process faults: {} sigkills delivered, {} restarts",
        stats.kills, stats.restarts
    );
    let ok = verdict.passed() && stats.kills >= 1 && stats.restarts >= 1;
    println!(
        "crash smoke: accounting identity {}, {} violations, kills={} restarts={}",
        if verdict.passed() {
            "holds"
        } else {
            "VIOLATED"
        },
        verdict.violations().len(),
        stats.kills,
        stats.restarts
    );
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let args = parse_args();
    if args.crash_smoke {
        crash_smoke();
    }
    let backends: Vec<(&str, u32, f64)> = OPERATING_POINTS
        .into_iter()
        .filter(|(b, _, _)| {
            args.backend.as_deref().is_none_or(|only| only == *b)
                && (!args.smoke || SMOKE_BACKENDS.contains(b))
        })
        .collect();

    let mut cells: Vec<Scenario> = Vec::new();
    if args.seeds.is_some() || args.slices.is_some() {
        let seeds = args.seeds.unwrap_or(10);
        let slices = args.slices.unwrap_or(10);
        println!(
            "=== Scenario sweep: {seeds} seeded chaos schedules x {} backends ===\n",
            backends.len()
        );
        for &(backend, rate, speedup) in &backends {
            cells.extend((1..=seeds).map(|seed| chaos_cell(backend, rate, speedup, seed, slices)));
        }
    } else {
        let scenarios: Vec<&str> = corpus::names()
            .into_iter()
            .filter(|n| {
                args.scenario.as_deref().is_none_or(|only| only == *n)
                    && (!args.smoke || SMOKE_SCENARIOS.contains(n))
            })
            .collect();
        println!(
            "=== Scenario sweep: {} scenarios x {} backends ===\n",
            scenarios.len(),
            backends.len()
        );
        for name in scenarios {
            let authored = corpus::load(name).expect("corpus scenario must parse");
            let native_rate =
                authored.control().total() as f64 / authored.control().duration().as_secs_f64();
            for &(backend, rate, speedup) in &backends {
                let scale = f64::from(rate) / native_rate;
                cells.push(
                    authored
                        .retarget(backend, speedup, scale)
                        .expect("retargeting a corpus scenario must validate"),
                );
            }
        }
    }
    if cells.is_empty() {
        eprintln!("nothing to run (unknown scenario or backend filter?)");
        usage();
    }

    let mut rows = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    for mut scenario in cells {
        if let Some(mode) = args.deploy_mode {
            scenario = scenario
                .to_builder()
                .deploy_mode(mode)
                .build()
                .expect("a validated scenario stays valid under a deploy-mode change");
        }
        eprintln!("running {} on {}...", scenario.name(), scenario.backend());
        // `run_on` shuts the deployment down and joins the network
        // scheduler before returning, so a thread or child left over
        // after it is a real leak (and, at 100x speedup, stray contention
        // would trip the next cell's stall watchdog).
        let (threads_before, children_before) = (live_threads(), live_children());
        let mut verdict = scenario.run().unwrap_or_else(|e| {
            eprintln!("  RUN FAILED: {e}");
            std::process::exit(1);
        });
        verdict
            .checks
            .extend(leak_checks(threads_before, children_before));
        rows.push(vec![
            verdict.scenario.clone(),
            verdict.backend.clone(),
            verdict.report.committed.to_string(),
            if verdict.stalled { "yes" } else { "no" }.to_owned(),
            if verdict.passed() { "pass" } else { "FAIL" }.to_owned(),
            verdict
                .violations()
                .iter()
                .map(|c| c.name)
                .collect::<Vec<_>>()
                .join(","),
        ]);
        for violation in verdict.violations() {
            eprintln!("  VIOLATION {}: {}", violation.name, violation.detail);
        }
        verdicts.push(verdict);
    }

    println!(
        "\n{}",
        render_table(
            &[
                "scenario",
                "backend",
                "committed",
                "stalled",
                "verdict",
                "violations"
            ],
            &rows
        )
    );

    let runs: Vec<String> = verdicts
        .iter()
        .map(|v| format!("    {}", v.to_json()))
        .collect();
    let json = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", runs.join(",\n"));
    save_result("scenario_sweep.json", &json);

    let violations: usize = verdicts.iter().map(|v| v.violations().len()).sum();
    println!(
        "scenario sweep: {} runs, {violations} expectation violations",
        verdicts.len()
    );
    if violations > 0 {
        std::process::exit(1);
    }
}
