//! One traced rep end to end: its correctness checks pass (including the
//! thread and child-process leak checks, which is why this test has a
//! binary of its own) and its layer figures are filled in.

use hammer::core::deploy::DeployMode;
use hammer::workload::AccessDistribution;
use perfbench::harness::{run_rep, Workload};

#[test]
fn a_traced_rep_passes_its_checks_and_reconciles_cpu() {
    let workload = Workload {
        name: "small",
        backend: "neuchain-sim",
        mode: DeployMode::InProcess,
        rate: 500,
        slices: 2,
        speedup: 20.0,
        accounts: 300,
        distribution: AccessDistribution::Uniform,
    };
    let rep = run_rep(&workload, 3, true, None);
    assert!(rep.errors.is_empty(), "{:?}", rep.errors);
    assert_eq!(rep.submitted, 1_000);
    assert_eq!(rep.commit_s.len() as u64, rep.committed);
    assert_eq!(rep.late_s.len() as u64, rep.submitted);
    let trace = rep.trace.expect("traced");
    assert_eq!(trace.matched, rep.committed + rep.invalid);
    assert_eq!(trace.signed, rep.submitted);
    assert!(trace.blocks > 0);
    assert!(trace.roles.total() > 0.0);
}
