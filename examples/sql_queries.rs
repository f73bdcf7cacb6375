//! Table II end to end: run an evaluation with the Fig. 2 status pipeline
//! enabled, then analyse the Performance table with the paper's actual
//! SQL statements.
//!
//! ```text
//! cargo run --release --example sql_queries
//! ```

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::core::sync::StatusRecord;
use hammer::store::report::render_table;
use hammer::store::sql::query;
use hammer::store::TableStore;
use hammer::workload::{ControlSequence, WorkloadConfig};

fn main() {
    // Run a short evaluation on the Fabric simulator.
    let deployment = BackendRegistry::builtin()
        .deploy("fabric-sim", &BackendOptions::default(), 200.0)
        .expect("builtin backend");
    let workload = WorkloadConfig {
        accounts: 2_000,
        chain_name: "fabric-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(150, 8, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .live_sync(true) // statuses travel the KV -> table pipeline
        .drain_timeout(Duration::from_secs(60))
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("evaluation failed");
    println!(
        "run complete: {} committed, {} rows through the status pipeline\n",
        report.committed, report.synced_rows
    );

    // Rebuild the Performance table from the report's records (the same
    // rows the pipeline produced) and query it with Table II's SQL.
    let table = TableStore::new();
    for r in &report.records {
        table.insert(
            StatusRecord {
                tx_fingerprint: r.tx_id.fingerprint(),
                client_id: r.client_id,
                server_id: r.server_id,
                start_ns: r.start.as_nanos() as u64,
                end_ns: r.end.map(|e| e.as_nanos() as u64).unwrap_or(u64::MAX),
                outcome: if r.status == hammer::chain::types::TxStatus::Committed {
                    hammer::store::RowOutcome::Committed
                } else {
                    hammer::store::RowOutcome::Failed
                },
            }
            .into_row("fabric-sim"),
        );
    }

    // The paper's TPS statement, verbatim.
    let tps = query(
        &table,
        "SELECT COUNT(*) AS TPS FROM Performance \
         WHERE STATUS = '1' AND TIMESTAMPDIFF(SECOND, start_time, end_time) <= 1",
    )
    .unwrap();
    println!("Table II TPS statement:");
    println!(
        "{}",
        render_table(
            &tps.columns.iter().map(String::as_str).collect::<Vec<_>>(),
            &tps.rows,
        )
    );

    // The paper's latency statement (first rows shown).
    let latency = query(
        &table,
        "SELECT tx_id, start_time, end_time, \
         TIMESTAMPDIFF(MILLISECOND, start_time, end_time) AS Latency \
         FROM Performance",
    )
    .unwrap();
    println!(
        "Table II latency statement (first 8 of {} rows):",
        latency.rows.len()
    );
    println!(
        "{}",
        render_table(
            &latency
                .columns
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            &latency.rows.iter().take(8).cloned().collect::<Vec<_>>(),
        )
    );

    // A Grafana-style ad-hoc drill-down.
    let slow = query(
        &table,
        "SELECT COUNT(*) AS slow_txs FROM Performance \
         WHERE STATUS = '1' AND TIMESTAMPDIFF(MILLISECOND, start_time, end_time) > 1500",
    )
    .unwrap();
    println!("ad-hoc: committed txs slower than 1.5s:");
    println!(
        "{}",
        render_table(
            &slow.columns.iter().map(String::as_str).collect::<Vec<_>>(),
            &slow.rows,
        )
    );
}
