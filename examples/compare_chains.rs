//! Compare all four simulated blockchains under one identical SmallBank
//! workload — the miniature version of the paper's Fig. 6.
//!
//! ```text
//! cargo run --release --example compare_chains
//! ```

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::store::report::render_table;
use hammer::workload::{ControlSequence, WorkloadConfig};

fn main() {
    // A light common load every chain can absorb, so the comparison shows
    // latency differences rather than saturation behaviour. (For peak
    // numbers, see `cargo run --release -p bench --bin fig6_chains`.)
    let rate = 50u32;
    let seconds = 10usize;

    let registry = BackendRegistry::builtin();
    let mut rows = Vec::new();
    for name in registry.names() {
        eprintln!("evaluating {name}...");
        let deployment = registry
            .deploy(name, &BackendOptions::default(), 200.0)
            .expect("builtin backend");
        let workload = WorkloadConfig {
            accounts: 2_000,
            clients: 2,
            threads_per_client: 2,
            chain_name: name.to_owned(),
            ..WorkloadConfig::default()
        };
        let control = ControlSequence::constant(rate, seconds, Duration::from_secs(1));
        let config = EvalConfig::builder()
            .machine(ClientMachine::unconstrained())
            .drain_timeout(Duration::from_secs(120))
            .build()
            .expect("valid config");
        let report = Evaluation::new(config)
            .run(&deployment, &workload, &control)
            .expect("evaluation failed");
        rows.push(vec![
            name.to_owned(),
            format!("{:.1}", report.overall_tps),
            format!("{:.3}", report.latency.mean_s),
            format!("{:.3}", report.latency.p95_s),
            report.committed.to_string(),
            report.failed.to_string(),
            report.timed_out.to_string(),
        ]);
    }

    println!(
        "\n{}",
        render_table(
            &[
                "chain",
                "tps",
                "mean_lat_s",
                "p95_lat_s",
                "committed",
                "failed",
                "timed_out"
            ],
            &rows
        )
    );
    println!("Same driver, same workload, same control sequence — four very");
    println!("different consensus architectures (the generic-interface claim).");
}
