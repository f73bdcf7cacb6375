//! The scenario DSL end to end: a built scenario compiles to a driver
//! configuration deterministically, the JSON corpus round-trips through
//! the builder, runs are reproducible per seed, and every
//! [`ScenarioError`] variant is reachable through build-time validation
//! (typed errors, never panics).

use std::time::Duration;

use hammer::core::retry::RetryPolicy;
use hammer::core::scenario::{corpus, FaultSpec, NodeRef, Scenario, ScenarioError};
use hammer::net::chaos::ChaosConfig;

mod common;

/// A small fault-free scenario for determinism runs: well under
/// neuchain's capacity, so every transaction commits and the verdict is
/// a pure function of the seed.
fn small_scenario() -> Scenario {
    Scenario::builder("dsl-determinism")
        .backend("neuchain-sim")
        .speedup(1000.0)
        .constant_load(100, 3)
        .workload_with(|w| {
            w.accounts = 100;
            w.seed = 41;
        })
        .expect_consensus_liveness(1)
        .expect_min_inclusion(1.0)
        .expect_accounting_identity()
        .expect_no_stall()
        .build()
        .expect("the determinism scenario is statically valid")
}

/// ScenarioBuilder -> EvalConfig -> run -> Verdict is deterministic per
/// seed: the same built scenario, run twice, grades identically and
/// reports the same transaction accounting.
#[test]
fn built_scenario_runs_deterministically() {
    let _guard = common::serial_guard();
    let scenario = small_scenario();
    let first = scenario.run().expect("run must complete");
    let second = scenario.run().expect("run must complete");

    assert!(first.passed(), "violations: {:?}", first.violations());
    let grade = |v: &hammer::core::scenario::Verdict| {
        v.checks
            .iter()
            .map(|c| (c.name, c.passed))
            .collect::<Vec<_>>()
    };
    assert_eq!(grade(&first), grade(&second));
    assert_eq!(first.report.submitted, second.report.submitted);
    assert_eq!(first.report.committed, second.report.committed);
    assert_eq!(first.report.rejected, second.report.rejected);
    assert_eq!(first.stalled, second.stalled);
    assert_eq!(first.report.submitted, 300);
    assert_eq!(first.report.committed, 300);
}

/// The same builder composition compiles to the same scenario: backend,
/// run window, expectations, and the driver configuration all match.
#[test]
fn compilation_is_deterministic() {
    let a = small_scenario();
    let b = small_scenario();
    assert_eq!(a.name(), b.name());
    assert_eq!(a.backend(), b.backend());
    assert_eq!(a.control(), b.control());
    assert_eq!(a.expectations(), b.expectations());
    // EvalConfig carries no PartialEq; its Debug form is the projection.
    assert_eq!(
        format!("{:?}", a.eval_config()),
        format!("{:?}", b.eval_config())
    );
}

/// Every shipped corpus spec parses, and re-parsing the same JSON yields
/// an identical scenario (the parser has no hidden state).
#[test]
fn corpus_round_trips_through_json() {
    let names = corpus::names();
    assert_eq!(names.len(), 8, "the shipped corpus has eight scenarios");
    for name in names {
        let spec = corpus::spec(name).expect("listed scenarios have specs");
        let first = Scenario::from_json(spec).expect("corpus spec must parse");
        let second = Scenario::from_json(spec).expect("corpus spec must parse");
        assert_eq!(first.name(), name);
        assert_eq!(first.backend(), second.backend());
        assert_eq!(first.control(), second.control());
        assert_eq!(first.expectations(), second.expectations());
        assert_eq!(first.recoverable(), second.recoverable());
        assert_eq!(
            format!("{:?}", first.eval_config()),
            format!("{:?}", second.eval_config())
        );
    }
}

/// Retargeting preserves the window shape: same slice count, scaled
/// total, new backend — and the result still validates.
#[test]
fn retarget_scales_the_window_and_revalidates() {
    let authored = corpus::load("partition-then-heal").expect("corpus scenario");
    let native_total = authored.control().total();
    let retargeted = authored
        .retarget("fabric-sim", 200.0, 0.1)
        .expect("retargeting onto a registered backend must validate");
    assert_eq!(retargeted.backend(), "fabric-sim");
    assert_eq!(retargeted.speedup(), 200.0);
    assert_eq!(
        retargeted.control().duration(),
        authored.control().duration(),
        "retargeting preserves the window duration"
    );
    let scaled_total = retargeted.control().total();
    assert!(
        (scaled_total as f64 - native_total as f64 * 0.1).abs() <= 1.0,
        "total {native_total} scaled by 0.1 gave {scaled_total}"
    );

    let err = authored.retarget("fabric-sim", 200.0, 0.0).unwrap_err();
    assert!(matches!(err, ScenarioError::Spec(_)), "got {err:?}");
}

// ---- one negative-path probe per ScenarioError variant ----

fn base() -> hammer::core::scenario::ScenarioBuilder {
    Scenario::builder("negative-path").constant_load(10, 2)
}

#[test]
fn unknown_backend_is_a_typed_error() {
    let err = base().backend("no-such-chain").build().unwrap_err();
    match err {
        ScenarioError::UnknownBackend { name, known } => {
            assert_eq!(name, "no-such-chain");
            assert!(known.contains(&"neuchain-sim".to_owned()));
        }
        other => panic!("expected UnknownBackend, got {other:?}"),
    }
}

#[test]
fn invalid_workload_is_a_typed_error() {
    let err = base()
        .workload_with(|w| w.accounts = 0)
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Workload(_)), "got {err:?}");
}

#[test]
fn missing_or_inconsistent_run_window_is_a_typed_error() {
    let err = Scenario::builder("no-window").build().unwrap_err();
    assert!(matches!(err, ScenarioError::RunWindow(_)), "got {err:?}");

    // A per-transaction retry deadline longer than the control slice
    // would let retries of slice N bleed arbitrarily far into slice N+1.
    let long_deadline = RetryPolicy {
        deadline: Some(Duration::from_secs(30)),
        ..RetryPolicy::standard()
    };
    let err = base().retry(long_deadline).build().unwrap_err();
    assert!(matches!(err, ScenarioError::RunWindow(_)), "got {err:?}");
}

#[test]
fn malformed_chaos_is_a_typed_error() {
    // Empty window: start == end.
    let err = base()
        .fault(FaultSpec::Crash {
            node: NodeRef::Ingress(0),
            start: Duration::from_secs(2),
            end: Duration::from_secs(2),
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Chaos(_)), "got {err:?}");

    // A seeded schedule that can generate nothing.
    let err = base()
        .chaos_seeded(
            7,
            ChaosConfig {
                max_windows: 0,
                ..ChaosConfig::default()
            },
        )
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Chaos(_)), "got {err:?}");

    // A one-group "partition".
    let err = base()
        .fault(FaultSpec::Partition {
            groups: vec![vec![NodeRef::Rest]],
            start: Duration::from_secs(1),
            end: Duration::from_secs(2),
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Chaos(_)), "got {err:?}");
}

#[test]
fn out_of_range_expectation_is_a_typed_error() {
    let err = base().expect_min_inclusion(0.0).build().unwrap_err();
    assert!(matches!(err, ScenarioError::Expectation(_)), "got {err:?}");

    let err = base()
        .expect_latency_slo(1.5, Duration::from_secs(1))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Expectation(_)), "got {err:?}");
}

#[test]
fn malformed_recovery_is_a_typed_error() {
    let err = base()
        .recover(Duration::ZERO, Duration::from_secs(1))
        .build()
        .unwrap_err();
    assert!(matches!(err, ScenarioError::Recovery(_)), "got {err:?}");
}

#[test]
fn bad_json_spec_is_a_typed_error() {
    let err = Scenario::from_json("{ not json").unwrap_err();
    assert!(matches!(err, ScenarioError::Spec(_)), "got {err:?}");

    let err = corpus::load("no-such-scenario").unwrap_err();
    assert!(matches!(err, ScenarioError::Spec(_)), "got {err:?}");
}

#[test]
fn rejected_driver_config_is_a_typed_error() {
    // tracker_shards is bounds-checked by the EvalConfig builder; the
    // scenario layer surfaces that rejection at build time.
    let err = base().tracker_shards(0).build().unwrap_err();
    assert!(matches!(err, ScenarioError::Config(_)), "got {err:?}");
}
