//! The timing proxy is transparent: the unmodified driver runs through it,
//! every submission crosses it exactly once, and the blocks it hands the
//! monitor hold exactly the transactions the report resolves.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer::core::driver::{EvalConfig, EvalReport, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::workload::{AccessDistribution, ControlSequence, WorkloadConfig};
use perfbench::proxy::TimingChain;

/// Runs a short evaluation of `backend` through a proxy.
fn run_through_proxy(
    backend: &str,
    traced: bool,
    distribution: AccessDistribution,
) -> (EvalReport, Arc<TimingChain>) {
    let deployment = BackendRegistry::builtin()
        .deploy(backend, &BackendOptions::default(), 20.0)
        .unwrap();
    let clock = deployment.clock().clone();
    let proxy = Arc::new(TimingChain::new(
        Arc::clone(deployment.chain()),
        clock.clone(),
        traced,
    ));
    let proxied = Deployment::from_chain(Arc::clone(&proxy), clock, deployment.net().clone());
    let workload = WorkloadConfig {
        chain_name: backend.to_owned(),
        accounts: 200,
        distribution,
        clients: 1,
        threads_per_client: 2,
        seed: 7,
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(200, 3, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .signer_threads(2)
        .drain_timeout(Duration::from_secs(10))
        .build()
        .unwrap();
    let report = Evaluation::new(config)
        .run(&proxied, &workload, &control)
        .unwrap();
    (report, proxy)
}

fn assert_transparent(report: &EvalReport, proxy: &TimingChain) {
    let resolved = (report.committed + report.failed) as u64;
    assert_eq!(report.submitted, 600);
    assert_eq!(resolved, report.submitted, "{report:?}");

    let ingress = proxy.take_ingress();
    assert_eq!(ingress.calls, report.submitted);
    assert_eq!(ingress.accepted, report.submitted);
    assert_eq!(ingress.call_ns.len() as u64, ingress.calls);
    let submitted: HashSet<_> = ingress.submissions.iter().map(|s| s.id).collect();
    assert_eq!(submitted.len() as u64, report.submitted);

    let observe = proxy.take_observe();
    assert_eq!(observe.blocks_found, observe.blocks.len() as u64);
    let mut in_blocks = HashSet::new();
    for block in &observe.blocks {
        for (id, _) in &block.entries {
            assert!(
                submitted.contains(id),
                "a block holds a transaction never submitted"
            );
            assert!(
                in_blocks.insert(*id),
                "a transaction appears in two fetched blocks"
            );
        }
    }
    assert_eq!(in_blocks.len() as u64, resolved);
    let invalid = observe
        .blocks
        .iter()
        .flat_map(|b| &b.entries)
        .filter(|(_, valid)| !valid)
        .count();
    assert_eq!(invalid, report.failed);
    assert!(observe.height_calls >= observe.new_heights);
    assert!(proxy.seeding().unwrap().accounts >= 200);
}

#[test]
fn traced_proxy_sees_every_submission_and_block_on_neuchain() {
    let (report, proxy) = run_through_proxy("neuchain-sim", true, AccessDistribution::Uniform);
    assert_transparent(&report, &proxy);
}

#[test]
fn traced_proxy_sees_invalid_outcomes_on_fabric() {
    let (report, proxy) = run_through_proxy(
        "fabric-sim",
        true,
        AccessDistribution::Zipfian { theta: 0.99 },
    );
    assert!(
        report.failed > 0,
        "zipfian keys should conflict: {report:?}"
    );
    assert_transparent(&report, &proxy);
}

#[test]
fn untraced_proxy_records_only_the_first_submission() {
    let (report, proxy) = run_through_proxy("neuchain-sim", false, AccessDistribution::Uniform);
    assert_eq!(report.committed as u64, report.submitted);
    assert!(proxy.first_submit().is_some());
    assert!(proxy.seeding().is_none());
    assert_eq!(proxy.take_ingress().calls, 0);
    assert_eq!(proxy.take_observe().height_calls, 0);
}
