//! The chaos harness end to end: seeded randomized fault schedules judged
//! by the run-level invariant oracle, the stall watchdog turning a hung
//! run into a complete report, and the crash-recoverable driver resuming
//! from a checkpoint to the same report an uninterrupted run produces.

use std::sync::Arc;
use std::time::Duration;

use hammer::core::chaos::{leak_checks, live_children, live_threads};
use hammer::core::checkpoint::RecoveryConfig;
use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, EvalError, EvalReport, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::core::scenario::Scenario;
use hammer::net::ChaosConfig;
use hammer::obs::EventKind;
use hammer::store::kv::KvStore;
use hammer::workload::{ControlSequence, WorkloadConfig};

mod common;

/// A CI-scaled version of the seeded chaos matrix
/// (`scenario_sweep --seeds 10`): every registered backend under two
/// seeded schedules, each cell a builder-made scenario graded by the
/// whole invariant oracle with zero violations expected.
#[test]
fn oracle_passes_under_seeded_chaos_on_every_backend() {
    const INVARIANTS: [&str; 6] = [
        "accounting_identity",
        "fault_window_attribution",
        "journal_monotonicity",
        "no_stall",
        "no_thread_leak",
        "no_child_leak",
    ];
    let _guard = common::serial_guard();
    for backend in ["ethereum-sim", "fabric-sim", "meepo-sim", "neuchain-sim"] {
        for seed in [7u64, 1312] {
            let scenario = Scenario::builder(&format!("chaos-seed-{seed}"))
                .backend(backend)
                .speedup(100.0)
                .workload_with(|w| w.seed = seed)
                .constant_load(50, 10)
                .chaos_seeded(
                    seed,
                    ChaosConfig {
                        horizon: Duration::ZERO, // the run window
                        ..ChaosConfig::default()
                    },
                )
                .retry(RetryPolicy::standard())
                .expect_accounting_identity()
                .expect_no_stall()
                .build()
                .expect("chaos cells are statically valid");
            let (threads_before, children_before) = (live_threads(), live_children());
            let mut verdict = scenario.run().expect("chaos cell runs");
            verdict
                .checks
                .extend(leak_checks(threads_before, children_before));
            for name in INVARIANTS {
                let check = verdict.checks.iter().find(|c| c.name == name);
                assert!(
                    check.is_some_and(|c| c.passed),
                    "{backend} seed {seed}: {name} missing or failed in {:?}",
                    verdict.checks
                );
            }
        }
    }
}

/// With sealing stalled, submissions pool forever: pending stays positive
/// and the progress mark freezes, so the watchdog must abort the run
/// after its budget — yielding a *complete* report (every transaction in
/// a terminal bucket, `stalled` flagged, a journal event) instead of
/// hanging until the drain deadline.
#[test]
fn watchdog_aborts_a_stalled_run_with_a_complete_report() {
    let _guard = common::serial_guard();
    let clock = hammer::net::SimClock::with_speedup(200.0);
    let net = hammer::net::SimNetwork::new(clock.clone(), hammer::net::LinkConfig::lan());
    net.install_obs(hammer::obs::Obs::new());
    let deployment = BackendRegistry::builtin()
        .deploy_on(
            "neuchain-sim",
            &BackendOptions {
                stall_sealing: true,
                ..BackendOptions::default()
            },
            clock,
            net,
        )
        .unwrap();
    let workload = WorkloadConfig {
        accounts: 200,
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(600))
        .stall_budget(Duration::from_secs(5))
        .build()
        .unwrap();
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("a stalled run still reports");

    assert!(report.stalled, "watchdog should have fired");
    assert_eq!(report.committed, 0, "sealing was stalled");
    assert_eq!(
        report.timed_out as u64 + report.rejected,
        report.submitted,
        "every pooled transaction lands in a terminal bucket"
    );
    // The abort cut the run far short of the 600 s drain deadline.
    assert!(report.sim_duration < Duration::from_secs(60));
    let obs = deployment.net().obs();
    assert!(
        obs.journal().count_of(EventKind::Stalled) >= 1,
        "the stall is journaled"
    );
}

/// The deterministic projection of a report: everything that must be
/// identical between an uninterrupted run and a killed-then-resumed run
/// on the same seed. Timing fields (TPS, latency, durations) depend on
/// wall-clock scheduling and are exempt.
fn projection(report: &EvalReport) -> impl PartialEq + std::fmt::Debug {
    let mut committed_ids: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.status == hammer::chain::types::TxStatus::Committed)
        .map(|r| r.tx_id)
        .collect();
    committed_ids.sort();
    (
        report.chain.clone(),
        report.submitted,
        report.rejected,
        report.retried,
        report.dropped,
        report.expired,
        report.committed,
        report.failed,
        report.timed_out,
        report.per_client_committed.clone(),
        report.per_shard_committed.clone(),
        committed_ids,
    )
}

fn recovery_workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 300,
        seed: 99,
        ..WorkloadConfig::default()
    }
}

fn recovery_config() -> EvalConfig {
    EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(120))
        .retry(RetryPolicy::standard())
        .build()
        .unwrap()
}

/// Kill the driver at a (pseudo-random) point mid-run, then resume from
/// the surviving checkpoint on the same chain: the resumed report's
/// deterministic projection must match an uninterrupted run field for
/// field.
#[test]
fn killed_driver_resumes_and_matches_the_uninterrupted_run() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    let workload = recovery_workload();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));

    // Uninterrupted baseline on a fresh deployment.
    let baseline_deploy = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let baseline = Evaluation::new(recovery_config())
        .run(&baseline_deploy, &workload, &control)
        .unwrap();
    drop(baseline_deploy);
    assert_eq!(baseline.submitted, 400);
    assert_eq!(baseline.committed, 400, "clean run commits everything");

    // Vary the kill point across test processes: any slice must work.
    use std::hash::{BuildHasher, Hasher};
    let h = std::collections::hash_map::RandomState::new().build_hasher();
    let kill_ms = 800 + (h.finish() % 2_400); // within (0.8 s, 3.2 s) of a 4 s run
    eprintln!("killing the driver at {kill_ms} ms of simulated time");

    let store = Arc::new(KvStore::new());
    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let killed = Evaluation::new(recovery_config()).run_recoverable(
        &deployment,
        &workload,
        &control,
        &RecoveryConfig::new(
            Arc::clone(&store),
            "resume-test",
            Duration::from_millis(200),
        )
        .kill_at(Duration::from_millis(kill_ms)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)), "{killed:?}");
    assert!(
        store.get("hammer/checkpoint/resume-test").is_some(),
        "a periodic checkpoint survives the kill"
    );

    // Resume against the same chain: the checkpointed transactions are
    // already on it; the rest of the stream replays.
    let resumed = Evaluation::new(recovery_config())
        .run_recoverable(
            &deployment,
            &workload,
            &control,
            &RecoveryConfig::new(
                Arc::clone(&store),
                "resume-test",
                Duration::from_millis(200),
            ),
        )
        .expect("resume completes");

    assert_eq!(
        projection(&resumed),
        projection(&baseline),
        "resumed report must match the uninterrupted run"
    );
    assert!(
        store.get("hammer/checkpoint/resume-test").is_none(),
        "a completed run deletes its checkpoint"
    );
}

/// The same kill/resume round trip with the tracker explicitly sharded:
/// the HMCP checkpoint is written from the all-shards-locked aggregate
/// snapshot and replayed back across shards on resume, so the resumed
/// report's deterministic projection must still match an uninterrupted
/// run field for field — the checkpoint codec never sees the sharding.
#[test]
fn sharded_tracker_checkpoint_roundtrip_matches_uninterrupted_run() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    let workload = recovery_workload();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));
    let sharded_config = || {
        EvalConfig::builder()
            .machine(ClientMachine::unconstrained())
            .poll_interval(Duration::from_millis(50))
            .drain_timeout(Duration::from_secs(120))
            .retry(RetryPolicy::standard())
            .tracker_shards(4)
            .build()
            .unwrap()
    };

    let baseline_deploy = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let baseline = Evaluation::new(sharded_config())
        .run(&baseline_deploy, &workload, &control)
        .unwrap();
    drop(baseline_deploy);
    assert_eq!(baseline.committed, 400, "clean run commits everything");

    let store = Arc::new(KvStore::new());
    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let killed = Evaluation::new(sharded_config()).run_recoverable(
        &deployment,
        &workload,
        &control,
        &RecoveryConfig::new(
            Arc::clone(&store),
            "sharded-resume",
            Duration::from_millis(200),
        )
        .kill_at(Duration::from_millis(1_700)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)), "{killed:?}");

    let resumed = Evaluation::new(sharded_config())
        .run_recoverable(
            &deployment,
            &workload,
            &control,
            &RecoveryConfig::new(
                Arc::clone(&store),
                "sharded-resume",
                Duration::from_millis(200),
            ),
        )
        .expect("resume completes");

    assert_eq!(
        projection(&resumed),
        projection(&baseline),
        "sharded resume must match the uninterrupted run"
    );
    assert!(
        store.get("hammer/checkpoint/sharded-resume").is_none(),
        "a completed run deletes its checkpoint"
    );
}

/// A checkpoint taken under one run must not silently resume a different
/// one: a mismatched workload seed is refused with a typed error.
#[test]
fn checkpoint_from_a_different_run_is_refused() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));
    let store = Arc::new(KvStore::new());

    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let killed = Evaluation::new(recovery_config()).run_recoverable(
        &deployment,
        &recovery_workload(),
        &control,
        &RecoveryConfig::new(Arc::clone(&store), "mismatch", Duration::from_millis(200))
            .kill_at(Duration::from_millis(1_500)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)));

    let other_seed = WorkloadConfig {
        seed: 123,
        ..recovery_workload()
    };
    let err = Evaluation::new(recovery_config())
        .run_recoverable(
            &deployment,
            &other_seed,
            &control,
            &RecoveryConfig::new(store, "mismatch", Duration::from_millis(200)),
        )
        .unwrap_err();
    assert!(
        matches!(err, EvalError::InvalidConfig(ref msg) if msg.contains("different run")),
        "{err:?}"
    );
}
