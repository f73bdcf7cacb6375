//! Multi-process deploy mode end to end: a supervised `node-host` OS
//! process behind real TCP, driven by the unmodified driver, with
//! crash-fault windows realised as SIGKILL of the actual process.
//!
//! These are the acceptance tests for the distributed mode: the run must
//! complete with the accounting identity and fault-window attribution
//! intact, the supervisor must actually kill and restart the process,
//! and teardown must leave no orphaned children behind.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use hammer::core::chaos::{check_report, live_children};
use hammer::core::deploy::{
    reconnect_policy_for, BackendOptions, BackendRegistry, DeployMode, SupervisorConfig,
};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::retry::RetryPolicy;
use hammer::core::scenario::{corpus, Scenario};
use hammer::net::{FaultPlan, LinkConfig, SimClock, SimNetwork};
use hammer::workload::{ControlSequence, WorkloadConfig};

/// The probes below count this process's children, so supervisor tests
/// must not overlap; the harness runs same-binary tests in parallel.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Cargo builds the workspace's bins for integration tests; point the
/// supervisor at the exact artifact instead of relying on path probing.
fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        node_host: Some(env!("CARGO_BIN_EXE_node-host").into()),
        ..SupervisorConfig::default()
    }
}

fn workload(backend: &str) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 100,
        chain_name: backend.to_owned(),
        ..WorkloadConfig::default()
    }
}

#[test]
fn supervised_run_completes_with_accounting_identity() {
    let _guard = serial();
    let children_before = live_children();
    let backend = "neuchain-sim";
    let clock = SimClock::with_speedup(100.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let retry = RetryPolicy::standard();
    let deployment = BackendRegistry::builtin()
        .deploy_multi(
            backend,
            &BackendOptions::default(),
            clock.clone(),
            net.clone(),
            supervisor_config(),
            reconnect_policy_for(&retry, &clock),
        )
        .expect("multi-process deploy");
    assert_eq!(deployment.client().chain_name(), backend);
    // The remote topology is mirrored locally so fault specs and the
    // observability surface see the same node names as in-process mode.
    assert!(!net.endpoint_names().is_empty());

    let control = ControlSequence::constant(50, 4, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(60))
        .retry(retry)
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload(backend), &control)
        .expect("run over TCP");

    assert_eq!(report.submitted, 200);
    assert!(
        report.committed > 150,
        "committed only {} of {}",
        report.committed,
        report.submitted
    );
    for check in check_report(&report, None) {
        assert!(check.passed, "{}: {}", check.name, check.detail);
    }

    deployment.down();
    drop(deployment);
    net.shutdown_and_join();
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

#[test]
fn crash_window_sigkills_and_restarts_the_node_process() {
    let _guard = serial();
    let children_before = live_children();
    let backend = "neuchain-sim";
    let clock = SimClock::with_speedup(10.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let retry = RetryPolicy::standard();
    let deployment = BackendRegistry::builtin()
        .deploy_multi(
            backend,
            &BackendOptions::default(),
            clock.clone(),
            net.clone(),
            supervisor_config(),
            reconnect_policy_for(&retry, &clock),
        )
        .expect("multi-process deploy");
    let supervisor = deployment.supervisor().expect("multi mode").clone();
    let ingress = deployment.chain().ingress_nodes();
    let victim = ingress.first().expect("neuchain has ingress nodes");

    // One crash window in the middle of an 8-slice run. The plan lands
    // on the local net (driver attribution) and on the supervisor, which
    // realises it as SIGKILL + restart of the real process.
    let plan = FaultPlan::new().crash(victim, Duration::from_secs(2), Duration::from_secs(4));
    deployment.install_faults(plan).expect("install faults");

    let control = ControlSequence::constant(30, 8, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(60))
        .retry(retry)
        .stall_budget(Duration::from_secs(30))
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload(backend), &control)
        .expect("run survives the crash window");

    let stats = supervisor.stats();
    assert!(stats.kills >= 1, "no SIGKILL delivered: {stats:?}");
    assert!(stats.restarts >= 1, "node never restarted: {stats:?}");
    assert!(
        supervisor.node_alive(),
        "node should be healthy again after the window"
    );

    // Completeness under real process death: the accounting identity and
    // the per-window attribution still hold, and the watchdog did not
    // fire (the outage is far shorter than the stall budget).
    assert!(!report.stalled, "stall watchdog aborted the run");
    assert!(report.committed > 0, "nothing committed across the crash");
    let plan = deployment.net().fault_plan();
    for check in check_report(&report, plan.as_deref()) {
        assert!(check.passed, "{}: {}", check.name, check.detail);
    }
    // The crash window plus the nominal remainder are attributed.
    assert_eq!(report.fault_windows.len(), 2);

    deployment.down();
    drop(deployment);
    net.shutdown_and_join();
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

#[test]
fn scenario_dsl_drives_multi_process_crash_runs() {
    let _guard = serial();
    let children_before = live_children();
    // The DSL path resolves node-host from the environment: point it at
    // the test-build artifact explicitly.
    std::env::set_var("HAMMER_NODE_HOST", env!("CARGO_BIN_EXE_node-host"));

    let spec = r#"{
        "name": "multi-process-crash-smoke",
        "backend": "neuchain-sim",
        "speedup": 10,
        "deploy_mode": "multi_process",
        "workload": {"accounts": 100},
        "control": {"shape": "constant", "rate": 30, "slices": 8},
        "retry": "standard",
        "chaos": {"faults": [
            {"kind": "crash", "node": "ingress:0", "start_ms": 2000, "end_ms": 4000}
        ]},
        "expectations": [
            {"kind": "accounting_identity"},
            {"kind": "no_stall"}
        ]
    }"#;
    let scenario = Scenario::from_json(spec).expect("spec parses");
    assert_eq!(scenario.deploy_mode(), DeployMode::MultiProcess);

    let verdict = scenario.run().expect("multi-process scenario run");
    assert!(
        verdict.passed(),
        "violations: {:?}",
        verdict
            .violations()
            .iter()
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect::<Vec<_>>()
    );
    let stats = verdict.process_faults.expect("multi mode reports stats");
    assert!(stats.kills >= 1, "no SIGKILL delivered: {stats:?}");
    assert!(stats.restarts >= 1, "node never restarted: {stats:?}");
    assert!(verdict.to_json().contains("\"process_faults\""));

    // run_on tears down deterministically before returning.
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

/// `deploy_multi` mirrors the node's full topology onto the driver-side
/// network, so a partition's `rest` group covers the same nodes in both
/// deploy modes — including Ethereum, whose only discovered fault target
/// (the ingress node that also seals) is the node being isolated.
#[test]
fn partition_rest_group_resolves_against_the_full_remote_topology() {
    let _guard = serial();
    let children_before = live_children();
    std::env::set_var("HAMMER_NODE_HOST", env!("CARGO_BIN_EXE_node-host"));

    let authored = corpus::load("partition-then-heal").expect("corpus scenario");
    // The sweep's Ethereum operating point: ~40 tx/s at 100x.
    let native_rate =
        authored.control().total() as f64 / authored.control().duration().as_secs_f64();
    let scenario = authored
        .retarget("ethereum-sim", 100.0, 40.0 / native_rate)
        .expect("retarget validates")
        .to_builder()
        .deploy_mode(DeployMode::MultiProcess)
        .build()
        .expect("deploy-mode change validates");

    let verdict = scenario.run().expect("partition resolves over TCP");
    assert!(
        verdict.passed(),
        "violations: {:?}",
        verdict
            .violations()
            .iter()
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect::<Vec<_>>()
    );
    assert!(verdict.process_faults.is_some(), "ran multi-process");
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}
