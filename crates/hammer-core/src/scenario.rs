//! Declarative evaluation scenarios: builder → validate → compile → run
//! → verdict.
//!
//! Everything PRs 2–6 built — the [`EvalConfig`] builder, scripted
//! [`FaultPlan`]s and seeded [`ChaosSchedule`]s, [`RetryPolicy`], the
//! crash-recoverable driver, and the invariant oracle — composes here
//! behind one fluent [`ScenarioBuilder`] (modeled on
//! logos-blockchain-testing's build/deploy/capture/execute/evaluate
//! lifecycle). A scenario names its backend, shapes its workload and run
//! window, scripts or seeds its faults, and — the new piece — states
//! [`Expectation`]s: consensus liveness, a minimum tx-inclusion ratio,
//! latency SLO quantiles read from the hammer-obs lifecycle histograms,
//! the accounting identity, and no-stall. `build()` validates the whole
//! composition up front (typed [`ScenarioError`], no panics) and
//! compiles it down to the existing `EvalConfig` / `ChaosSchedule` /
//! [`RecoveryConfig`] machinery; `run()` drives the unmodified driver
//! and grades the report into a [`Verdict`] with per-expectation
//! pass/fail evidence.
//!
//! The shipped corpus ([`corpus`]) is data, not code: eight JSON specs
//! under `scenarios/` at the repository root, each runnable by name
//! (`scenario_sweep` bench bin, `examples/scenarios.rs`).
//!
//! ```
//! use std::time::Duration;
//! use hammer_core::scenario::Scenario;
//!
//! let verdict = Scenario::builder("smoke")
//!     .backend("neuchain-sim")
//!     .speedup(1000.0)
//!     .constant_load(50, 2)
//!     .workload_with(|w| w.accounts = 100)
//!     .expect_consensus_liveness(1)
//!     .expect_accounting_identity()
//!     .expect_no_stall()
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(verdict.passed(), "{:?}", verdict.violations());
//! ```

use std::sync::Arc;
use std::time::Duration;

use hammer_net::chaos::{ChaosConfig, ChaosSchedule, ChaosTargets, FaultPlan, FaultPlanError};
use hammer_net::{LinkConfig, SimClock, SimNetwork};
use hammer_obs::{EventKind, Obs, Stage};
use hammer_rpc::json::Value;
use hammer_store::KvStore;
use hammer_workload::{
    AccessDistribution, ControlSequence, TraceKind, TraceSpec, WorkloadConfig, WorkloadKind,
};

use crate::chaos::{check_journal, check_report, InvariantCheck};
use crate::checkpoint::RecoveryConfig;
use crate::deploy::{
    reconnect_policy_for, BackendOptions, BackendRegistry, DeployError, DeployMode, Deployment,
    ProcessFaultStats, SupervisorConfig, UnknownBackend,
};
use crate::driver::{EvalConfig, EvalError, EvalReport, Evaluation};
use crate::retry::RetryPolicy;

/// What a scenario demands of its run. Each expectation grades into one
/// (or, for the oracle-backed ones, a few) [`InvariantCheck`] evidence
/// rows in the [`Verdict`].
#[derive(Clone, Debug, PartialEq)]
pub enum Expectation {
    /// The chain made consensus progress: at least `min_blocks` sealed
    /// blocks/epochs across shards (the kernel's
    /// [`SimChain::progress_mark`](hammer_chain::kernel::SimChain::progress_mark)).
    ConsensusLiveness {
        /// Minimum sealed blocks/epochs (≥ 1).
        min_blocks: u64,
    },
    /// At least `ratio` of attempted transactions committed
    /// (`committed / submitted`).
    MinInclusionRatio {
        /// The floor, in `(0, 1]`.
        ratio: f64,
        /// Per-backend floors overriding `ratio` — calibration data for
        /// corpus scenarios retargeted across backends with very
        /// different commit disciplines.
        overrides: Vec<(String, f64)>,
    },
    /// The `quantile` of commit latency (submission → block inclusion,
    /// simulated time, read from the hammer-obs [`Stage::InBlock`]
    /// lifecycle histogram) stays at or under `bound`.
    LatencySlo {
        /// Which quantile to read, in `(0, 1)` (e.g. `0.95`).
        quantile: f64,
        /// The latency bound.
        bound: Duration,
        /// Per-backend bounds overriding `bound` (a PoW chain's 15 s
        /// blocks need a different SLO than a deterministic sealer).
        overrides: Vec<(String, Duration)>,
    },
    /// The PR 5 oracle's report checks: the accounting identity
    /// `committed + failed + timed_out + rejected + dropped + expired ==
    /// submitted`, plus the fault-window attribution recount.
    AccountingIdentity,
    /// The stall watchdog must not have aborted the run (flag and
    /// journal agree).
    NoStall,
}

/// A node reference inside a scripted fault spec, resolved against the
/// deployed chain's discovered fault targets at install time — so corpus
/// scenarios stay backend-agnostic data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeRef {
    /// The i-th ingress endpoint (`SimChain::ingress_nodes`).
    Ingress(usize),
    /// The i-th sealer endpoint (`SimChain::sealer_nodes`).
    Sealer(usize),
    /// A literal endpoint name (backend-specific).
    Named(String),
    /// Inside a partition group only: every discovered target not named
    /// by any other group.
    Rest,
}

impl NodeRef {
    /// Parses the spec syntax: `ingress:N`, `sealer:N`, `rest`, or a
    /// literal endpoint name.
    pub fn parse(s: &str) -> NodeRef {
        if s == "rest" {
            return NodeRef::Rest;
        }
        if let Some(i) = s.strip_prefix("ingress:").and_then(|n| n.parse().ok()) {
            return NodeRef::Ingress(i);
        }
        if let Some(i) = s.strip_prefix("sealer:").and_then(|n| n.parse().ok()) {
            return NodeRef::Sealer(i);
        }
        NodeRef::Named(s.to_owned())
    }

    fn resolve(&self, targets: &ChaosTargets) -> Result<String, ScenarioError> {
        match self {
            NodeRef::Ingress(i) => targets.ingress.get(*i).cloned().ok_or_else(|| {
                ScenarioError::Chaos(format!(
                    "ingress:{i} out of range (chain exposes {} ingress nodes)",
                    targets.ingress.len()
                ))
            }),
            NodeRef::Sealer(i) => targets.sealers.get(*i).cloned().ok_or_else(|| {
                ScenarioError::Chaos(format!(
                    "sealer:{i} out of range (chain exposes {} sealer nodes)",
                    targets.sealers.len()
                ))
            }),
            NodeRef::Named(n) => Ok(n.clone()),
            NodeRef::Rest => Err(ScenarioError::Chaos(
                "`rest` is only meaningful inside a partition group".to_owned(),
            )),
        }
    }
}

/// One scripted fault window, with placeholder node references.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// The node's process is down during the window.
    Crash {
        /// Which node.
        node: NodeRef,
        /// Window start (simulated time).
        start: Duration,
        /// Window end (exclusive).
        end: Duration,
    },
    /// The node runs but its traffic is dropped.
    Blackhole {
        /// Which node.
        node: NodeRef,
        /// Window start.
        start: Duration,
        /// Window end.
        end: Duration,
    },
    /// Extra latency on every link (or just links touching `node`).
    LatencySpike {
        /// Scoped to one node's links when set; global otherwise.
        node: Option<NodeRef>,
        /// Added one-way latency.
        extra: Duration,
        /// Window start.
        start: Duration,
        /// Window end.
        end: Duration,
    },
    /// Links between different groups are cut; `NodeRef::Rest` in a
    /// group soaks up every unnamed target.
    Partition {
        /// The groups (each a set of node references).
        groups: Vec<Vec<NodeRef>>,
        /// Window start.
        start: Duration,
        /// Window end.
        end: Duration,
    },
}

impl FaultSpec {
    fn window(&self) -> (Duration, Duration) {
        match self {
            FaultSpec::Crash { start, end, .. }
            | FaultSpec::Blackhole { start, end, .. }
            | FaultSpec::LatencySpike { start, end, .. }
            | FaultSpec::Partition { start, end, .. } => (*start, *end),
        }
    }

    fn apply(
        &self,
        plan: FaultPlan,
        targets: &ChaosTargets,
        endpoints: &[String],
    ) -> Result<FaultPlan, ScenarioError> {
        Ok(match self {
            FaultSpec::Crash { node, start, end } => {
                plan.crash(&node.resolve(targets)?, *start, *end)
            }
            FaultSpec::Blackhole { node, start, end } => {
                plan.blackhole(&node.resolve(targets)?, *start, *end)
            }
            FaultSpec::LatencySpike {
                node: None,
                extra,
                start,
                end,
            } => plan.latency_spike(*extra, *start, *end),
            FaultSpec::LatencySpike {
                node: Some(node),
                extra,
                start,
                end,
            } => plan.latency_spike_on(&node.resolve(targets)?, *extra, *start, *end),
            FaultSpec::Partition { groups, start, end } => {
                let resolved = resolve_partition(groups, targets, endpoints)?;
                let borrowed: Vec<Vec<&str>> = resolved
                    .iter()
                    .map(|g| g.iter().map(String::as_str).collect())
                    .collect();
                let slices: Vec<&[&str]> = borrowed.iter().map(Vec::as_slice).collect();
                plan.partition(&slices, *start, *end)
            }
        })
    }
}

fn resolve_partition(
    groups: &[Vec<NodeRef>],
    targets: &ChaosTargets,
    endpoints: &[String],
) -> Result<Vec<Vec<String>>, ScenarioError> {
    let mut named: Vec<String> = Vec::new();
    for group in groups {
        for node in group {
            if *node != NodeRef::Rest {
                named.push(node.resolve(targets)?);
            }
        }
    }
    let mut resolved = Vec::with_capacity(groups.len());
    for group in groups {
        let mut out = Vec::new();
        for node in group {
            if *node == NodeRef::Rest {
                // Every registered endpoint no other group claimed —
                // the full topology, not just the discovered fault
                // targets, so "isolate the sealer from the rest of the
                // network" is expressible even on chains whose only
                // discovered target is the sealer itself.
                for t in endpoints {
                    if !named.contains(t) && !out.contains(t) {
                        out.push(t.clone());
                    }
                }
                if out.is_empty() {
                    return Err(ScenarioError::Chaos(
                        "partition `rest` group resolved to no nodes".to_owned(),
                    ));
                }
            } else {
                let name = node.resolve(targets)?;
                if !out.contains(&name) {
                    out.push(name);
                }
            }
        }
        resolved.push(out);
    }
    Ok(resolved)
}

/// The fault side of a scenario: either a seeded generated schedule or a
/// scripted list of windows.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosSpec {
    /// Generate a [`ChaosSchedule`] from `(seed, discovered targets,
    /// config)`. A zero `config.horizon` defaults to the run window.
    Seeded {
        /// The schedule seed.
        seed: u64,
        /// Generator knobs.
        config: ChaosConfig,
    },
    /// Hand-scripted windows with placeholder node references.
    Scripted(Vec<FaultSpec>),
}

impl ChaosSpec {
    fn to_plan(
        &self,
        targets: &ChaosTargets,
        endpoints: &[String],
        run_window: Duration,
    ) -> Result<FaultPlan, ScenarioError> {
        match self {
            ChaosSpec::Seeded { seed, config } => {
                let mut config = config.clone();
                if config.horizon.is_zero() {
                    config.horizon = run_window;
                }
                Ok(ChaosSchedule::generate(*seed, targets, &config).into_plan())
            }
            ChaosSpec::Scripted(specs) => {
                let mut plan = FaultPlan::new();
                for spec in specs {
                    // Two specs that resolve to one node over one window
                    // (`ingress:0` and `sealer:0` on a chain whose only
                    // ingress also seals) are the same fault: keep one
                    // window rather than report a contradictory overlap.
                    for window in spec.apply(FaultPlan::new(), targets, endpoints)?.windows() {
                        if !plan.windows().contains(window) {
                            plan = plan.with_window(window.clone());
                        }
                    }
                }
                plan.validate()
                    .map_err(|e: FaultPlanError| ScenarioError::Chaos(e.to_string()))?;
                Ok(plan)
            }
        }
    }
}

/// Crash-during-drain knobs: run through the checkpointing driver, kill
/// cooperatively at `kill_at` (simulated time), then resume from the
/// checkpoint store and let the resumed run finish the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoverySpec {
    /// Checkpoint cadence (simulated time).
    pub interval: Duration,
    /// When the driver kills itself (simulated time); kills land between
    /// submission attempts, so a kill during drain is exactly the
    /// crash-during-drain case.
    pub kill_at: Duration,
}

/// Why a scenario failed to build, parse, or run. Every variant is a
/// typed, non-panicking diagnosis.
#[derive(Debug)]
pub enum ScenarioError {
    /// The backend name is not registered.
    UnknownBackend {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name.
        known: Vec<String>,
    },
    /// The workload profile is invalid.
    Workload(String),
    /// The run window (control sequence) is empty or inconsistent with
    /// the retry policy.
    RunWindow(String),
    /// The chaos/fault spec is malformed or cannot resolve against the
    /// deployed topology.
    Chaos(String),
    /// An expectation's parameters are out of range.
    Expectation(String),
    /// The recovery spec is malformed.
    Recovery(String),
    /// A multi-process deployment failed (spawn, handshake, health
    /// check, or fault-plan forwarding).
    Deploy(String),
    /// A JSON scenario spec failed to parse.
    Spec(String),
    /// The compiled driver configuration was rejected, or the run failed.
    Config(EvalError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownBackend { name, known } => {
                write!(f, "unknown backend {name:?} (known: {})", known.join(", "))
            }
            ScenarioError::Workload(msg) => write!(f, "workload: {msg}"),
            ScenarioError::RunWindow(msg) => write!(f, "run window: {msg}"),
            ScenarioError::Chaos(msg) => write!(f, "chaos spec: {msg}"),
            ScenarioError::Expectation(msg) => write!(f, "expectation: {msg}"),
            ScenarioError::Recovery(msg) => write!(f, "recovery spec: {msg}"),
            ScenarioError::Deploy(msg) => write!(f, "deploy: {msg}"),
            ScenarioError::Spec(msg) => write!(f, "scenario spec: {msg}"),
            ScenarioError::Config(e) => write!(f, "driver config: {e}"),
        }
    }
}

impl From<UnknownBackend> for ScenarioError {
    fn from(e: UnknownBackend) -> Self {
        ScenarioError::UnknownBackend {
            name: e.name,
            known: e.known,
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Config(e) => Some(e),
            _ => None,
        }
    }
}

/// Fluent scenario assembly; start from [`Scenario::builder`] and finish
/// with [`ScenarioBuilder::build`], which validates the composition and
/// pre-compiles the driver configuration.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    description: String,
    backend: String,
    speedup: f64,
    deploy_mode: DeployMode,
    options: BackendOptions,
    workload: WorkloadConfig,
    control: Option<ControlSequence>,
    chaos: Option<ChaosSpec>,
    retry: RetryPolicy,
    stall_budget: Duration,
    drain_timeout: Duration,
    poll_interval: Duration,
    tracker_shards: Option<usize>,
    recovery: Option<RecoverySpec>,
    expectations: Vec<Expectation>,
}

impl ScenarioBuilder {
    fn new(name: &str) -> Self {
        ScenarioBuilder {
            name: name.to_owned(),
            description: String::new(),
            backend: "neuchain-sim".to_owned(),
            speedup: 100.0,
            deploy_mode: DeployMode::default(),
            options: BackendOptions::default(),
            workload: WorkloadConfig {
                accounts: 200,
                ..WorkloadConfig::default()
            },
            control: None,
            chaos: None,
            retry: RetryPolicy::disabled(),
            // Clears the longest quiet gap of any builtin backend
            // (ethereum's 15 s blocks — see the chaos harness).
            stall_budget: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(60),
            poll_interval: Duration::from_millis(50),
            tracker_shards: None,
            recovery: None,
            expectations: Vec::new(),
        }
    }

    /// Human-readable description (shows up in verdict JSON).
    pub fn describe(mut self, description: &str) -> Self {
        self.description = description.to_owned();
        self
    }

    /// Target backend, by registry name.
    pub fn backend(mut self, name: &str) -> Self {
        self.backend = name.to_owned();
        self
    }

    /// Clock speedup (simulated seconds per wall second).
    pub fn speedup(mut self, speedup: f64) -> Self {
        self.speedup = speedup;
        self
    }

    /// How the SUT is deployed: in-process on the simulated network
    /// (default) or as a supervised `node-host` OS process behind real
    /// TCP, where crash-fault windows SIGKILL the actual process.
    pub fn deploy_mode(mut self, mode: DeployMode) -> Self {
        self.deploy_mode = mode;
        self
    }

    /// Backend topology knobs (mempool capacity, stalled sealing).
    pub fn backend_options(mut self, options: BackendOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the workload profile wholesale.
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Tweaks the workload profile in place.
    pub fn workload_with(mut self, f: impl FnOnce(&mut WorkloadConfig)) -> Self {
        f(&mut self.workload);
        self
    }

    /// The run window: an explicit control sequence.
    pub fn control(mut self, control: ControlSequence) -> Self {
        self.control = Some(control);
        self
    }

    /// Shorthand: a constant-rate run window of `rate` tx per one-second
    /// slice for `slices` slices.
    pub fn constant_load(self, rate: u32, slices: usize) -> Self {
        self.control(ControlSequence::constant(
            rate,
            slices,
            Duration::from_secs(1),
        ))
    }

    /// Shorthand: a paper-trace-shaped window (NFT/DeFi/Sandbox),
    /// resampled to `slices` one-second slices and scaled to `total`
    /// transactions.
    pub fn trace_load(self, kind: TraceKind, seed: u64, total: usize, slices: usize) -> Self {
        let shape = resample(&TraceSpec::paper(kind, seed).generate(), slices);
        self.control(ControlSequence::from_trace(
            &shape,
            total,
            Duration::from_secs(1),
        ))
    }

    /// Seeded chaos: generate the fault schedule from `(seed, discovered
    /// targets, config)` at deploy time.
    pub fn chaos_seeded(mut self, seed: u64, config: ChaosConfig) -> Self {
        self.chaos = Some(ChaosSpec::Seeded { seed, config });
        self
    }

    /// Appends one scripted fault window (placeholder node references
    /// resolve against the deployed topology).
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        match &mut self.chaos {
            Some(ChaosSpec::Scripted(specs)) => specs.push(spec),
            _ => self.chaos = Some(ChaosSpec::Scripted(vec![spec])),
        }
        self
    }

    /// Retry policy for transient submission failures.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Stall watchdog budget (must exceed the SUT's longest quiet gap).
    pub fn stall_budget(mut self, budget: Duration) -> Self {
        self.stall_budget = budget;
        self
    }

    /// How long the driver waits for in-flight transactions after the
    /// last slice.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Monitor poll interval.
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// In-flight tracker shard count override.
    pub fn tracker_shards(mut self, shards: usize) -> Self {
        self.tracker_shards = Some(shards);
        self
    }

    /// Runs through the checkpointing driver and kills/resumes at
    /// `kill_at` (crash-during-drain when `kill_at` lands after the last
    /// slice).
    pub fn recover(mut self, interval: Duration, kill_at: Duration) -> Self {
        self.recovery = Some(RecoverySpec { interval, kill_at });
        self
    }

    /// Adds any expectation.
    pub fn expect(mut self, expectation: Expectation) -> Self {
        self.expectations.push(expectation);
        self
    }

    /// Expects at least `min_blocks` sealed blocks/epochs.
    pub fn expect_consensus_liveness(self, min_blocks: u64) -> Self {
        self.expect(Expectation::ConsensusLiveness { min_blocks })
    }

    /// Expects `committed / submitted >= ratio`.
    pub fn expect_min_inclusion(self, ratio: f64) -> Self {
        self.expect(Expectation::MinInclusionRatio {
            ratio,
            overrides: Vec::new(),
        })
    }

    /// Expects the commit-latency `quantile` at or under `bound`.
    pub fn expect_latency_slo(self, quantile: f64, bound: Duration) -> Self {
        self.expect(Expectation::LatencySlo {
            quantile,
            bound,
            overrides: Vec::new(),
        })
    }

    /// Expects the PR 5 report oracle (accounting identity +
    /// fault-window attribution) to pass.
    pub fn expect_accounting_identity(self) -> Self {
        self.expect(Expectation::AccountingIdentity)
    }

    /// Expects the stall watchdog not to fire.
    pub fn expect_no_stall(self) -> Self {
        self.expect(Expectation::NoStall)
    }

    /// Validates the composition against the builtin backend registry
    /// and compiles the driver configuration.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.build_for(&BackendRegistry::builtin())
    }

    /// [`ScenarioBuilder::build`] against a custom registry (e.g. one
    /// with extra backends registered).
    pub fn build_for(self, registry: &BackendRegistry) -> Result<Scenario, ScenarioError> {
        if !registry.names().contains(&self.backend.as_str()) {
            return Err(ScenarioError::UnknownBackend {
                name: self.backend,
                known: registry.names().iter().map(|s| (*s).to_owned()).collect(),
            });
        }
        if !(self.speedup.is_finite() && self.speedup > 0.0) {
            return Err(ScenarioError::Spec(format!(
                "speedup must be positive and finite, got {}",
                self.speedup
            )));
        }
        let mut workload = self.workload.clone();
        workload.chain_name = self.backend.clone();
        workload
            .validate()
            .map_err(|e| ScenarioError::Workload(e.to_string()))?;
        let control = self
            .control
            .clone()
            .ok_or_else(|| ScenarioError::RunWindow("no control sequence set".to_owned()))?;
        if control.is_empty() || control.total() == 0 {
            return Err(ScenarioError::RunWindow(
                "control sequence carries no transactions".to_owned(),
            ));
        }
        if let Some(deadline) = self.retry.deadline {
            if deadline > control.slice_duration() {
                return Err(ScenarioError::RunWindow(format!(
                    "retry deadline {deadline:?} exceeds the {:?} control slice",
                    control.slice_duration()
                )));
            }
        }
        if let Some(chaos) = &self.chaos {
            validate_chaos(chaos)?;
        }
        if let Some(recovery) = &self.recovery {
            if recovery.interval.is_zero() {
                return Err(ScenarioError::Recovery(
                    "checkpoint interval must be positive".to_owned(),
                ));
            }
            if recovery.kill_at.is_zero() {
                return Err(ScenarioError::Recovery(
                    "kill_at must be positive (simulated time)".to_owned(),
                ));
            }
        }
        for expectation in &self.expectations {
            validate_expectation(expectation)?;
        }
        // Compile eagerly: a driver-config rejection is a build-time
        // error, not a surprise at run time.
        let eval = compile_eval(&self)?;
        Ok(Scenario {
            eval,
            spec: self,
            workload,
            control,
        })
    }
}

fn validate_chaos(chaos: &ChaosSpec) -> Result<(), ScenarioError> {
    match chaos {
        ChaosSpec::Seeded { config, .. } => {
            if config.max_windows == 0 {
                return Err(ScenarioError::Chaos(
                    "seeded chaos with max_windows = 0 generates nothing".to_owned(),
                ));
            }
            if config.min_window > config.max_window || config.max_window.is_zero() {
                return Err(ScenarioError::Chaos(format!(
                    "window bounds inverted: min {:?} > max {:?}",
                    config.min_window, config.max_window
                )));
            }
            Ok(())
        }
        ChaosSpec::Scripted(specs) => {
            if specs.is_empty() {
                return Err(ScenarioError::Chaos(
                    "scripted chaos with no fault windows".to_owned(),
                ));
            }
            for spec in specs {
                let (start, end) = spec.window();
                if start >= end {
                    return Err(ScenarioError::Chaos(format!(
                        "empty fault window [{start:?}, {end:?})"
                    )));
                }
                if let FaultSpec::Partition { groups, .. } = spec {
                    if groups.len() < 2 {
                        return Err(ScenarioError::Chaos(
                            "a partition needs at least two groups".to_owned(),
                        ));
                    }
                    let rests = groups
                        .iter()
                        .flatten()
                        .filter(|n| **n == NodeRef::Rest)
                        .count();
                    if rests > 1 {
                        return Err(ScenarioError::Chaos(
                            "`rest` may appear in at most one partition group".to_owned(),
                        ));
                    }
                }
            }
            Ok(())
        }
    }
}

fn validate_expectation(expectation: &Expectation) -> Result<(), ScenarioError> {
    match expectation {
        Expectation::ConsensusLiveness { min_blocks } => {
            if *min_blocks == 0 {
                return Err(ScenarioError::Expectation(
                    "consensus liveness needs min_blocks >= 1".to_owned(),
                ));
            }
        }
        Expectation::MinInclusionRatio { ratio, overrides } => {
            for (scope, r) in std::iter::once((&String::new(), ratio))
                .chain(overrides.iter().map(|(b, r)| (b, r)))
            {
                if !(r.is_finite() && *r > 0.0 && *r <= 1.0) {
                    return Err(ScenarioError::Expectation(format!(
                        "inclusion ratio{} must be in (0, 1], got {r}",
                        if scope.is_empty() {
                            String::new()
                        } else {
                            format!(" for {scope}")
                        }
                    )));
                }
            }
        }
        Expectation::LatencySlo {
            quantile,
            bound,
            overrides,
        } => {
            if !(quantile.is_finite() && *quantile > 0.0 && *quantile < 1.0) {
                return Err(ScenarioError::Expectation(format!(
                    "latency SLO quantile must be in (0, 1), got {quantile}"
                )));
            }
            if bound.is_zero() || overrides.iter().any(|(_, b)| b.is_zero()) {
                return Err(ScenarioError::Expectation(
                    "latency SLO bound must be positive".to_owned(),
                ));
            }
        }
        Expectation::AccountingIdentity | Expectation::NoStall => {}
    }
    Ok(())
}

fn compile_eval(spec: &ScenarioBuilder) -> Result<EvalConfig, ScenarioError> {
    let mut builder = EvalConfig::builder()
        .poll_interval(spec.poll_interval)
        .drain_timeout(spec.drain_timeout)
        .retry(spec.retry)
        .stall_budget(spec.stall_budget);
    if let Some(shards) = spec.tracker_shards {
        builder = builder.tracker_shards(shards);
    }
    builder.build().map_err(ScenarioError::Config)
}

/// Chunk-averages a long trace shape into `slices` buckets, preserving
/// the shape's relative mass per bucket.
fn resample(shape: &[f64], slices: usize) -> Vec<f64> {
    if shape.is_empty() || slices == 0 {
        return Vec::new();
    }
    let chunk = shape.len().div_ceil(slices);
    shape
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// A validated, compiled scenario — build one with [`Scenario::builder`]
/// or parse one from JSON ([`Scenario::from_json`], [`corpus`]).
#[derive(Clone, Debug)]
pub struct Scenario {
    spec: ScenarioBuilder,
    /// Workload with `chain_name` pinned to the target backend.
    workload: WorkloadConfig,
    control: ControlSequence,
    eval: EvalConfig,
}

impl Scenario {
    /// Starts a fluent builder.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The scenario's description.
    pub fn description(&self) -> &str {
        &self.spec.description
    }

    /// The target backend's registry name.
    pub fn backend(&self) -> &str {
        &self.spec.backend
    }

    /// The clock speedup.
    pub fn speedup(&self) -> f64 {
        self.spec.speedup
    }

    /// The deploy mode.
    pub fn deploy_mode(&self) -> DeployMode {
        self.spec.deploy_mode
    }

    /// The validated run window.
    pub fn control(&self) -> &ControlSequence {
        &self.control
    }

    /// The stated expectations.
    pub fn expectations(&self) -> &[Expectation] {
        &self.spec.expectations
    }

    /// Whether the scenario runs through the checkpointing driver.
    pub fn recoverable(&self) -> bool {
        self.spec.recovery.is_some()
    }

    /// The compiled driver configuration (scenarios compile down to the
    /// existing machinery; nothing scenario-specific reaches the driver).
    pub fn eval_config(&self) -> &EvalConfig {
        &self.eval
    }

    /// Decompiles back into a builder (retargeting, tweaking).
    pub fn to_builder(&self) -> ScenarioBuilder {
        self.spec.clone()
    }

    /// Re-aims a scenario at another backend/operating point: swaps the
    /// backend and speedup, scales the run window's total by
    /// `load_scale` (shape preserved), and re-validates. Expectation
    /// overrides keyed by the new backend name take effect at check
    /// time.
    pub fn retarget(
        &self,
        backend: &str,
        speedup: f64,
        load_scale: f64,
    ) -> Result<Scenario, ScenarioError> {
        if !(load_scale.is_finite() && load_scale > 0.0) {
            return Err(ScenarioError::Spec(format!(
                "load scale must be positive and finite, got {load_scale}"
            )));
        }
        let mut spec = self.spec.clone();
        spec.backend = backend.to_owned();
        spec.speedup = speedup;
        let total = (self.control.total() as f64 * load_scale).round().max(1.0) as usize;
        spec.control = Some(self.control.scaled_to_total(total));
        spec.build()
    }

    /// Runs against the builtin registry.
    pub fn run(&self) -> Result<Verdict, ScenarioError> {
        self.run_on(&BackendRegistry::builtin())
    }

    /// Deploys the backend ([`DeployMode::InProcess`] on a fresh
    /// simulated network, [`DeployMode::MultiProcess`] as a supervised
    /// `node-host` OS process behind real TCP), installs the compiled
    /// fault plan, drives the unmodified driver (the checkpointing
    /// variant when a recovery spec is set — including the kill and the
    /// resume), and grades the expectations — plus the oracle's
    /// `journal_monotonicity`, which every run gets — into a [`Verdict`].
    ///
    /// Teardown is deterministic: the deployment comes down and the
    /// simulated network's scheduler thread is joined before this
    /// returns, so callers can probe for leaked threads/processes
    /// immediately.
    pub fn run_on(&self, registry: &BackendRegistry) -> Result<Verdict, ScenarioError> {
        let clock = SimClock::with_speedup(self.spec.speedup);
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        net.install_obs(Obs::new());
        let deployment = match self.spec.deploy_mode {
            DeployMode::InProcess => {
                registry.deploy_on(&self.spec.backend, &self.spec.options, clock, net.clone())?
            }
            DeployMode::MultiProcess => registry
                .deploy_multi(
                    &self.spec.backend,
                    &self.spec.options,
                    clock.clone(),
                    net.clone(),
                    SupervisorConfig::default(),
                    reconnect_policy_for(&self.spec.retry, &clock),
                )
                .map_err(|e| match e {
                    DeployError::Unknown(u) => u.into(),
                    other => ScenarioError::Deploy(other.to_string()),
                })?,
        };
        let run = self.run_deployed(&deployment, &net);
        let process_faults = deployment.supervisor().map(|s| s.stats());
        // Deterministic teardown, success or error: Drop shuts the SUT
        // (and any node process) down, then the scheduler thread joins.
        drop(deployment);
        net.shutdown_and_join();
        let (report, checks) = run?;
        Ok(Verdict {
            scenario: self.spec.name.clone(),
            backend: self.spec.backend.clone(),
            stalled: report.stalled,
            process_faults,
            checks,
            report,
        })
    }

    /// The deploy-to-grade middle of [`Scenario::run_on`], factored out
    /// so teardown runs on every exit path.
    fn run_deployed(
        &self,
        deployment: &Deployment,
        net: &SimNetwork,
    ) -> Result<(EvalReport, Vec<InvariantCheck>), ScenarioError> {
        let targets = ChaosTargets::new(
            deployment.chain().ingress_nodes(),
            deployment.chain().sealer_nodes(),
        );
        let plan = match &self.spec.chaos {
            Some(chaos) => {
                let plan =
                    chaos.to_plan(&targets, &net.endpoint_names(), self.control.duration())?;
                deployment
                    .install_faults(plan.clone())
                    .map_err(ScenarioError::Chaos)?;
                Some(plan)
            }
            None => None,
        };

        let report = self.drive(deployment)?;

        let progress = deployment.chain().progress_mark();
        let obs = net.obs();
        let mut checks = Vec::new();
        for expectation in &self.spec.expectations {
            self.grade(
                expectation,
                &report,
                plan.as_ref(),
                progress,
                &obs,
                &mut checks,
            );
        }
        // Graded on every run, stated or not: a journal whose simulated
        // clock runs backwards means the run's evidence is unsound.
        checks.push(check_journal(&obs.journal().events()));
        Ok((report, checks))
    }

    fn drive(&self, deployment: &Deployment) -> Result<EvalReport, ScenarioError> {
        let evaluation = Evaluation::new(self.eval.clone());
        match &self.spec.recovery {
            None => evaluation
                .run(deployment, &self.workload, &self.control)
                .map_err(ScenarioError::Config),
            Some(spec) => {
                let store = Arc::new(KvStore::new());
                let run_id = format!("scenario-{}", self.spec.name);
                let first = RecoveryConfig::new(Arc::clone(&store), &run_id, spec.interval)
                    .kill_at(spec.kill_at);
                match evaluation.run_recoverable(deployment, &self.workload, &self.control, &first)
                {
                    // The cooperative kill landed: resume from the
                    // checkpoint and let the resumed run finish.
                    Err(EvalError::Killed) => {
                        let resume = RecoveryConfig::new(store, &run_id, spec.interval);
                        evaluation
                            .run_recoverable(deployment, &self.workload, &self.control, &resume)
                            .map_err(ScenarioError::Config)
                    }
                    // `kill_at` can land after the run completed — still
                    // a valid (un-killed) recoverable run.
                    other => other.map_err(ScenarioError::Config),
                }
            }
        }
    }

    fn grade(
        &self,
        expectation: &Expectation,
        report: &EvalReport,
        plan: Option<&FaultPlan>,
        progress: u64,
        obs: &Obs,
        checks: &mut Vec<InvariantCheck>,
    ) {
        match expectation {
            Expectation::ConsensusLiveness { min_blocks } => {
                let detail = format!("sealed {progress} blocks/epochs (need >= {min_blocks})");
                checks.push(if progress >= *min_blocks {
                    InvariantCheck::pass("consensus_liveness", detail)
                } else {
                    InvariantCheck::fail("consensus_liveness", detail)
                });
            }
            Expectation::MinInclusionRatio { ratio, overrides } => {
                let floor = overrides
                    .iter()
                    .find(|(b, _)| *b == self.spec.backend)
                    .map(|(_, r)| *r)
                    .unwrap_or(*ratio);
                if report.submitted == 0 {
                    checks.push(InvariantCheck::fail(
                        "min_inclusion",
                        "no transactions were submitted",
                    ));
                    return;
                }
                let observed = report.committed as f64 / report.submitted as f64;
                let detail = format!(
                    "{}/{} committed = {observed:.3} (need >= {floor:.3})",
                    report.committed, report.submitted
                );
                checks.push(if observed >= floor {
                    InvariantCheck::pass("min_inclusion", detail)
                } else {
                    InvariantCheck::fail("min_inclusion", detail)
                });
            }
            Expectation::LatencySlo {
                quantile,
                bound,
                overrides,
            } => {
                let bound = overrides
                    .iter()
                    .find(|(b, _)| *b == self.spec.backend)
                    .map(|(_, d)| *d)
                    .unwrap_or(*bound);
                let histogram = obs.spans().histogram(Stage::InBlock);
                if histogram.count() == 0 {
                    checks.push(InvariantCheck::fail(
                        "latency_slo",
                        "no commit-latency samples in the InBlock histogram",
                    ));
                    return;
                }
                let observed = Duration::from_nanos(histogram.snapshot().quantile(*quantile));
                let detail = format!(
                    "p{:.0} = {:.3}s over {} samples (need <= {:.3}s, simulated time)",
                    quantile * 100.0,
                    observed.as_secs_f64(),
                    histogram.count(),
                    bound.as_secs_f64()
                );
                checks.push(if observed <= bound {
                    InvariantCheck::pass("latency_slo", detail)
                } else {
                    InvariantCheck::fail("latency_slo", detail)
                });
            }
            Expectation::AccountingIdentity => {
                checks.extend(check_report(report, plan));
            }
            Expectation::NoStall => {
                let journaled = obs.journal().count_of(EventKind::Stalled);
                checks.push(if report.stalled || journaled > 0 {
                    InvariantCheck::fail(
                        "no_stall",
                        format!(
                            "watchdog aborted (flag={}, {journaled} journal events), {} timed out",
                            report.stalled, report.timed_out
                        ),
                    )
                } else {
                    InvariantCheck::pass("no_stall", "run completed without a watchdog abort")
                });
            }
        }
    }

    /// Parses a scenario from its JSON spec (the corpus format) and
    /// validates it.
    pub fn from_json(spec: &str) -> Result<Scenario, ScenarioError> {
        Self::builder_from_json(spec)?.build()
    }

    /// Parses the JSON spec into a builder without validating — callers
    /// can tweak (retarget, rescale) before `build()`.
    pub fn builder_from_json(spec: &str) -> Result<ScenarioBuilder, ScenarioError> {
        let value =
            Value::parse(spec).map_err(|e| ScenarioError::Spec(format!("bad JSON: {e:?}")))?;
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ScenarioError::Spec("missing \"name\"".to_owned()))?;
        let mut builder = Scenario::builder(name);
        if let Some(d) = value.get("description").and_then(Value::as_str) {
            builder = builder.describe(d);
        }
        let backend = value
            .get("backend")
            .and_then(Value::as_str)
            .ok_or_else(|| ScenarioError::Spec("missing \"backend\"".to_owned()))?;
        builder = builder.backend(backend);
        if let Some(s) = value.get("speedup").and_then(Value::as_f64) {
            builder = builder.speedup(s);
        }
        if let Some(m) = value.get("deploy_mode").and_then(Value::as_str) {
            let mode = DeployMode::parse(m).ok_or_else(|| {
                ScenarioError::Spec(format!(
                    "unknown deploy_mode {m:?} (want \"in_process\" or \"multi_process\")"
                ))
            })?;
            builder = builder.deploy_mode(mode);
        }
        if let Some(w) = value.get("workload") {
            builder = builder.workload(parse_workload(w)?);
        }
        let control = value
            .get("control")
            .ok_or_else(|| ScenarioError::Spec("missing \"control\"".to_owned()))?;
        builder = builder.control(parse_control(control)?);
        if let Some(r) = value.get("retry") {
            builder = builder.retry(parse_retry(r)?);
        }
        if let Some(s) = value.get("stall_budget_s").and_then(Value::as_f64) {
            builder = builder.stall_budget(Duration::from_secs_f64(s));
        }
        if let Some(s) = value.get("drain_timeout_s").and_then(Value::as_f64) {
            builder = builder.drain_timeout(Duration::from_secs_f64(s));
        }
        if let Some(ms) = value.get("poll_interval_ms").and_then(Value::as_u64) {
            builder = builder.poll_interval(Duration::from_millis(ms));
        }
        if let Some(n) = value.get("tracker_shards").and_then(Value::as_u64) {
            builder = builder.tracker_shards(n as usize);
        }
        if let Some(c) = value.get("chaos") {
            builder.chaos = Some(parse_chaos(c)?);
        }
        if let Some(r) = value.get("recovery") {
            let interval = r
                .get("interval_ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::Spec("recovery needs interval_ms".to_owned()))?;
            let kill_at = r
                .get("kill_at_ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::Spec("recovery needs kill_at_ms".to_owned()))?;
            builder = builder.recover(
                Duration::from_millis(interval),
                Duration::from_millis(kill_at),
            );
        }
        if let Some(list) = value.get("expectations").and_then(Value::as_array) {
            for e in list {
                builder = builder.expect(parse_expectation(e)?);
            }
        }
        Ok(builder)
    }
}

fn parse_workload(value: &Value) -> Result<WorkloadConfig, ScenarioError> {
    let mut workload = WorkloadConfig {
        accounts: 200,
        ..WorkloadConfig::default()
    };
    if let Some(kind) = value.get("kind").and_then(Value::as_str) {
        workload.kind = match kind {
            "smallbank" => WorkloadKind::SmallBank,
            "ycsb" => WorkloadKind::Ycsb,
            other => {
                return Err(ScenarioError::Spec(format!(
                    "unknown workload kind {other:?}"
                )));
            }
        };
    }
    if let Some(n) = value.get("accounts").and_then(Value::as_u64) {
        workload.accounts = n as usize;
    }
    if let Some(r) = value.get("read_ratio").and_then(Value::as_f64) {
        workload.read_ratio = r;
    }
    if let Some(n) = value.get("clients").and_then(Value::as_u64) {
        workload.clients = n as u32;
    }
    if let Some(n) = value.get("threads_per_client").and_then(Value::as_u64) {
        workload.threads_per_client = n as u32;
    }
    if let Some(n) = value.get("seed").and_then(Value::as_u64) {
        workload.seed = n;
    }
    if let Some(d) = value.get("distribution") {
        workload.distribution = match d.get("type").and_then(Value::as_str) {
            Some("uniform") => AccessDistribution::Uniform,
            Some("zipfian") => AccessDistribution::Zipfian {
                theta: d.get("theta").and_then(Value::as_f64).unwrap_or(0.99),
            },
            other => {
                return Err(ScenarioError::Spec(format!(
                    "unknown access distribution {other:?}"
                )));
            }
        };
    }
    Ok(workload)
}

fn parse_control(value: &Value) -> Result<ControlSequence, ScenarioError> {
    let slice = Duration::from_millis(
        value
            .get("slice_ms")
            .and_then(Value::as_u64)
            .unwrap_or(1000),
    );
    if slice.is_zero() {
        return Err(ScenarioError::Spec("slice_ms must be positive".to_owned()));
    }
    let shape = value
        .get("shape")
        .and_then(Value::as_str)
        .ok_or_else(|| ScenarioError::Spec("control needs a \"shape\"".to_owned()))?;
    let slices = value.get("slices").and_then(Value::as_u64).unwrap_or(10) as usize;
    match shape {
        "constant" => {
            let rate = value
                .get("rate")
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::Spec("constant control needs a rate".to_owned()))?;
            Ok(ControlSequence::constant(rate as u32, slices, slice))
        }
        "ramp" => {
            let from = value.get("from").and_then(Value::as_u64).unwrap_or(0) as u32;
            let to = value
                .get("to")
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::Spec("ramp control needs \"to\"".to_owned()))?;
            if slices == 0 {
                return Err(ScenarioError::Spec(
                    "ramp needs at least one slice".to_owned(),
                ));
            }
            Ok(ControlSequence::ramp(from, to as u32, slices, slice))
        }
        "trace" => {
            let kind = match value.get("trace").and_then(Value::as_str) {
                Some("defi") => TraceKind::DeFi,
                Some("nft") => TraceKind::Nft,
                Some("sandbox") => TraceKind::Sandbox,
                other => {
                    return Err(ScenarioError::Spec(format!("unknown trace {other:?}")));
                }
            };
            let total = value
                .get("total")
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::Spec("trace control needs a total".to_owned()))?;
            let seed = value.get("seed").and_then(Value::as_u64).unwrap_or(7);
            let shape = resample(&TraceSpec::paper(kind, seed).generate(), slices);
            Ok(ControlSequence::from_trace(&shape, total as usize, slice))
        }
        "budgets" => {
            let budgets = value
                .get("budgets")
                .and_then(Value::as_array)
                .ok_or_else(|| ScenarioError::Spec("budgets control needs a list".to_owned()))?
                .iter()
                .map(|v| v.as_u64().map(|b| b as u32))
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| ScenarioError::Spec("budgets must be integers".to_owned()))?;
            Ok(ControlSequence::from_budgets(budgets, slice))
        }
        other => Err(ScenarioError::Spec(format!(
            "unknown control shape {other:?}"
        ))),
    }
}

fn parse_retry(value: &Value) -> Result<RetryPolicy, ScenarioError> {
    let preset = value
        .as_str()
        .or_else(|| value.get("preset").and_then(Value::as_str))
        .ok_or_else(|| {
            ScenarioError::Spec("retry must be \"standard\" or \"disabled\"".to_owned())
        })?;
    match preset {
        "standard" => Ok(RetryPolicy::standard()),
        "disabled" => Ok(RetryPolicy::disabled()),
        other => Err(ScenarioError::Spec(format!(
            "unknown retry preset {other:?}"
        ))),
    }
}

fn parse_chaos(value: &Value) -> Result<ChaosSpec, ScenarioError> {
    if let Some(faults) = value.get("faults").and_then(Value::as_array) {
        let mut specs = Vec::with_capacity(faults.len());
        for f in faults {
            specs.push(parse_fault(f)?);
        }
        return Ok(ChaosSpec::Scripted(specs));
    }
    let seed = value
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| ScenarioError::Spec("chaos needs a seed or a faults list".to_owned()))?;
    let mut config = ChaosConfig::default();
    if let Some(s) = value.get("horizon_s").and_then(Value::as_f64) {
        config.horizon = Duration::from_secs_f64(s);
    } else {
        // Defaulted at deploy time to the run window.
        config.horizon = Duration::ZERO;
    }
    if let Some(n) = value.get("max_windows").and_then(Value::as_u64) {
        config.max_windows = n as usize;
    }
    if let Some(ms) = value.get("min_window_ms").and_then(Value::as_u64) {
        config.min_window = Duration::from_millis(ms);
    }
    if let Some(ms) = value.get("max_window_ms").and_then(Value::as_u64) {
        config.max_window = Duration::from_millis(ms);
    }
    if let Some(ms) = value.get("lead_in_ms").and_then(Value::as_u64) {
        config.lead_in = Duration::from_millis(ms);
    }
    if let Some(f) = value.get("settle_fraction").and_then(Value::as_f64) {
        config.settle_fraction = f;
    }
    if let Some(b) = value.get("allow_partitions").and_then(Value::as_bool) {
        config.allow_partitions = b;
    }
    if let Some(ms) = value.get("max_spike_ms").and_then(Value::as_u64) {
        config.max_spike = Duration::from_millis(ms);
    }
    Ok(ChaosSpec::Seeded { seed, config })
}

fn parse_fault(value: &Value) -> Result<FaultSpec, ScenarioError> {
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ScenarioError::Spec("fault needs a kind".to_owned()))?;
    let window = |v: &Value| -> Result<(Duration, Duration), ScenarioError> {
        let start = v
            .get("start_ms")
            .and_then(Value::as_u64)
            .ok_or_else(|| ScenarioError::Spec("fault needs start_ms".to_owned()))?;
        let end = v
            .get("end_ms")
            .and_then(Value::as_u64)
            .ok_or_else(|| ScenarioError::Spec("fault needs end_ms".to_owned()))?;
        Ok((Duration::from_millis(start), Duration::from_millis(end)))
    };
    let node = |v: &Value| -> Result<NodeRef, ScenarioError> {
        v.get("node")
            .and_then(Value::as_str)
            .map(NodeRef::parse)
            .ok_or_else(|| ScenarioError::Spec(format!("{kind} fault needs a node")))
    };
    let (start, end) = window(value)?;
    match kind {
        "crash" => Ok(FaultSpec::Crash {
            node: node(value)?,
            start,
            end,
        }),
        "blackhole" => Ok(FaultSpec::Blackhole {
            node: node(value)?,
            start,
            end,
        }),
        "latency_spike" => {
            let extra = value
                .get("extra_ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::Spec("latency_spike needs extra_ms".to_owned()))?;
            Ok(FaultSpec::LatencySpike {
                node: value
                    .get("node")
                    .and_then(Value::as_str)
                    .map(NodeRef::parse),
                extra: Duration::from_millis(extra),
                start,
                end,
            })
        }
        "partition" => {
            let groups = value
                .get("groups")
                .and_then(Value::as_array)
                .ok_or_else(|| ScenarioError::Spec("partition needs groups".to_owned()))?
                .iter()
                .map(|g| {
                    g.as_array().map(|members| {
                        members
                            .iter()
                            .filter_map(Value::as_str)
                            .map(NodeRef::parse)
                            .collect::<Vec<NodeRef>>()
                    })
                })
                .collect::<Option<Vec<Vec<NodeRef>>>>()
                .ok_or_else(|| ScenarioError::Spec("partition groups must be lists".to_owned()))?;
            Ok(FaultSpec::Partition { groups, start, end })
        }
        other => Err(ScenarioError::Spec(format!("unknown fault kind {other:?}"))),
    }
}

fn parse_expectation(value: &Value) -> Result<Expectation, ScenarioError> {
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ScenarioError::Spec("expectation needs a kind".to_owned()))?;
    match kind {
        "consensus_liveness" => Ok(Expectation::ConsensusLiveness {
            min_blocks: value.get("min_blocks").and_then(Value::as_u64).unwrap_or(1),
        }),
        "min_inclusion" => {
            let ratio = value
                .get("ratio")
                .and_then(Value::as_f64)
                .ok_or_else(|| ScenarioError::Spec("min_inclusion needs a ratio".to_owned()))?;
            let overrides = parse_overrides(value, Value::as_f64)?;
            Ok(Expectation::MinInclusionRatio { ratio, overrides })
        }
        "latency_slo" => {
            let quantile = value
                .get("quantile")
                .and_then(Value::as_f64)
                .ok_or_else(|| ScenarioError::Spec("latency_slo needs a quantile".to_owned()))?;
            let bound = value
                .get("max_ms")
                .and_then(Value::as_u64)
                .ok_or_else(|| ScenarioError::Spec("latency_slo needs max_ms".to_owned()))?;
            let overrides = parse_overrides(value, Value::as_u64)?
                .into_iter()
                .map(|(b, ms)| (b, Duration::from_millis(ms)))
                .collect();
            Ok(Expectation::LatencySlo {
                quantile,
                bound: Duration::from_millis(bound),
                overrides,
            })
        }
        "accounting_identity" => Ok(Expectation::AccountingIdentity),
        "no_stall" => Ok(Expectation::NoStall),
        other => Err(ScenarioError::Spec(format!(
            "unknown expectation kind {other:?}"
        ))),
    }
}

fn parse_overrides<T>(
    value: &Value,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<(String, T)>, ScenarioError> {
    let Some(overrides) = value.get("overrides") else {
        return Ok(Vec::new());
    };
    let Value::Object(pairs) = overrides else {
        return Err(ScenarioError::Spec(
            "overrides must map backend names to values".to_owned(),
        ));
    };
    pairs
        .iter()
        .map(|(backend, v)| {
            read(v)
                .map(|t| (backend.clone(), t))
                .ok_or_else(|| ScenarioError::Spec(format!("bad override value for {backend:?}")))
        })
        .collect()
}

/// The graded outcome of one scenario run: per-expectation pass/fail
/// with evidence, plus the full driver report it was graded from.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The scenario's name.
    pub scenario: String,
    /// The backend it ran against.
    pub backend: String,
    /// Whether the stall watchdog aborted the run.
    pub stalled: bool,
    /// Node-process lifecycle stats (SIGKILLs delivered for crash
    /// windows, supervisor restarts); `None` for in-process runs.
    pub process_faults: Option<ProcessFaultStats>,
    /// One evidence row per graded expectation (the oracle-backed
    /// expectations contribute several).
    pub checks: Vec<InvariantCheck>,
    /// The driver report the grades were read from.
    pub report: EvalReport,
}

impl Verdict {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failing checks.
    pub fn violations(&self) -> Vec<&InvariantCheck> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    /// Serialises the verdict (checks + the record-free report) as one
    /// JSON object.
    pub fn to_json(&self) -> String {
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| {
                Value::object([
                    ("name", Value::from(c.name)),
                    ("passed", Value::from(c.passed)),
                    ("detail", Value::from(c.detail.as_str())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("scenario", Value::from(self.scenario.as_str())),
            ("backend", Value::from(self.backend.as_str())),
            ("passed", Value::from(self.passed())),
            ("stalled", Value::from(self.stalled)),
        ];
        if let Some(stats) = &self.process_faults {
            fields.push((
                "process_faults",
                Value::object([
                    ("kills", Value::from(stats.kills)),
                    ("restarts", Value::from(stats.restarts)),
                ]),
            ));
        }
        fields.push(("checks", Value::Array(checks)));
        let head = Value::object(fields);
        let head = head.to_json();
        // Splice the report in as a sibling field (it already serialises
        // itself).
        format!(
            "{},\"report\":{}}}",
            &head[..head.len() - 1],
            self.report.to_json()
        )
    }
}

/// The shipped scenario corpus — eight JSON specs under `scenarios/` at
/// the repository root, embedded as data and runnable by name.
pub mod corpus {
    use super::{Scenario, ScenarioError};

    /// Name → embedded JSON spec.
    pub const SPECS: &[(&str, &str)] = &[
        (
            "nft-flash-crowd-mint",
            include_str!("../../../scenarios/nft_flash_crowd_mint.json"),
        ),
        (
            "defi-liquidation-cascade",
            include_str!("../../../scenarios/defi_liquidation_cascade.json"),
        ),
        (
            "partition-then-heal",
            include_str!("../../../scenarios/partition_then_heal.json"),
        ),
        (
            "cross-shard-hotspot",
            include_str!("../../../scenarios/cross_shard_hotspot.json"),
        ),
        (
            "slow-loris-ingress",
            include_str!("../../../scenarios/slow_loris_ingress.json"),
        ),
        (
            "crash-during-drain",
            include_str!("../../../scenarios/crash_during_drain.json"),
        ),
        (
            "ingress-blackhole",
            include_str!("../../../scenarios/ingress_blackhole.json"),
        ),
        (
            "crash-restart",
            include_str!("../../../scenarios/crash_restart.json"),
        ),
    ];

    /// Every corpus scenario name, in ship order.
    pub fn names() -> Vec<&'static str> {
        SPECS.iter().map(|(n, _)| *n).collect()
    }

    /// The raw JSON spec for `name`.
    pub fn spec(name: &str) -> Option<&'static str> {
        SPECS.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }

    /// Parses and validates the corpus scenario `name`.
    pub fn load(name: &str) -> Result<Scenario, ScenarioError> {
        let spec = spec(name).ok_or_else(|| {
            ScenarioError::Spec(format!(
                "unknown corpus scenario {name:?} (known: {})",
                names().join(", ")
            ))
        })?;
        Scenario::from_json(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(node: NodeRef, start_s: u64, end_s: u64) -> FaultSpec {
        FaultSpec::Crash {
            node,
            start: Duration::from_secs(start_s),
            end: Duration::from_secs(end_s),
        }
    }

    #[test]
    fn same_fault_on_one_node_merges_into_one_window() {
        let window = Duration::from_secs(10);
        let specs = ChaosSpec::Scripted(vec![
            crash(NodeRef::Ingress(0), 3, 5),
            crash(NodeRef::Sealer(0), 3, 5),
        ]);
        // Ethereum-shaped topology: the only ingress node also seals.
        let single = ChaosTargets::new(vec!["eth-node-0".into()], vec!["eth-node-0".into()]);
        let plan = specs.to_plan(&single, &[], window).unwrap();
        assert_eq!(plan.windows().len(), 1, "{plan:?}");
        assert_eq!(plan.windows()[0].label, "crash:eth-node-0");

        // Distinct nodes keep one window each.
        let split = ChaosTargets::new(vec!["proxy".into()], vec!["epoch".into()]);
        assert_eq!(
            specs.to_plan(&split, &[], window).unwrap().windows().len(),
            2
        );

        // The same node over two different, overlapping windows is still
        // a contradiction, not a merge.
        let overlapping = ChaosSpec::Scripted(vec![
            crash(NodeRef::Ingress(0), 3, 5),
            crash(NodeRef::Sealer(0), 4, 6),
        ]);
        let err = overlapping.to_plan(&single, &[], window).unwrap_err();
        assert!(matches!(err, ScenarioError::Chaos(_)), "{err}");
    }

    #[test]
    fn verdict_json_round_trips_through_the_parser() {
        let verdict = |process_faults| Verdict {
            scenario: "drill".to_owned(),
            backend: "neuchain-sim".to_owned(),
            stalled: false,
            process_faults,
            checks: vec![
                InvariantCheck::pass("accounting_identity", "all accounted"),
                InvariantCheck::fail("no_stall", "aborted with 3 \"pending\""),
            ],
            report: EvalReport {
                chain: "neuchain-sim".to_owned(),
                ..EvalReport::default()
            },
        };

        let in_process = verdict(None);
        let json = in_process.to_json();
        assert!(json.contains(r#"aborted with 3 \"pending\""#), "{json}");
        let parsed = Value::parse(&json).expect("verdict JSON parses");
        assert_eq!(
            parsed.get("scenario").and_then(Value::as_str),
            Some("drill")
        );
        assert_eq!(parsed.get("passed").and_then(Value::as_bool), Some(false));
        let checks = parsed.get("checks").and_then(Value::as_array).unwrap();
        assert_eq!(checks.len(), 2);
        assert_eq!(
            checks[1].get("detail").and_then(Value::as_str),
            Some("aborted with 3 \"pending\"")
        );
        let report = parsed.get("report").expect("report spliced in");
        assert_eq!(
            report.get("chain").and_then(Value::as_str),
            Some("neuchain-sim")
        );
        assert!(parsed.get("process_faults").is_none());

        let multi = verdict(Some(ProcessFaultStats {
            kills: 2,
            restarts: 1,
        }));
        let parsed = Value::parse(&multi.to_json()).expect("verdict JSON parses");
        let stats = parsed.get("process_faults").expect("multi-process stats");
        assert_eq!(stats.get("kills").and_then(Value::as_u64), Some(2));
        assert_eq!(stats.get("restarts").and_then(Value::as_u64), Some(1));
    }
}
