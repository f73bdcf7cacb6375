//! **Ablation ξ1 (§II-C1)** — polling-interval latency skew.
//!
//! Batch testing "relies on the time to poll for a new block as the
//! transaction's completion time. A large time interval leads to missing
//! block generation time and thus results in overestimating transaction
//! latency." Hammer's Algorithm 1 records the *block* time instead, so its
//! latency measurement is interval-independent.
//!
//! This ablation runs the identical Fabric workload under both methods at
//! four polling intervals and reports the measured mean latency. The batch
//! baseline's numbers inflate with the interval; Hammer's stay flat.

use std::time::Duration;

use bench::{save_csv, RunSpec};
use hammer_core::driver::TestingMode;
use hammer_store::report::{render_table, to_csv};

fn main() {
    println!("=== Ablation: polling interval vs measured latency (xi_1) ===\n");

    let intervals = [
        Duration::from_millis(20),
        Duration::from_millis(100),
        Duration::from_millis(500),
        Duration::from_millis(2_000),
    ];
    let mut rows = Vec::new();
    for interval in intervals {
        let mut latencies = Vec::new();
        for mode in [TestingMode::TaskProcessing, TestingMode::BatchBaseline] {
            let mut spec = RunSpec::peak("fabric-sim", 150, 30);
            spec.mode = mode;
            spec.accounts = 20_000;
            spec.speedup = 100.0;
            spec.poll_interval = interval;
            eprintln!("interval {interval:?}, mode {mode:?}...");
            let report = spec.run();
            latencies.push(report.latency.mean_s);
        }
        let skew = latencies[1] - latencies[0];
        rows.push(vec![
            format!("{}", interval.as_millis()),
            format!("{:.3}", latencies[0]),
            format!("{:.3}", latencies[1]),
            format!("{skew:+.3}"),
        ]);
    }

    let header = [
        "poll_interval_ms",
        "hammer_mean_lat_s",
        "batch_mean_lat_s",
        "batch_skew_s",
    ];
    println!("{}", render_table(&header, &rows));
    save_csv("ablation_poll_interval", &to_csv(&header, &rows));
    println!("Expected: the batch baseline's measured latency inflates by roughly");
    println!("half the polling interval (plus queueing), while Hammer's block-time");
    println!("end stamps keep its measurement flat across intervals.");
}
