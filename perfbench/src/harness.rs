//! The workloads, one measured evaluation ("rep"), and the metrics a run
//! of several reps reports.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hammer::chain::{SimChain, TxStatus};
use hammer::core::chaos::{live_children, live_threads};
use hammer::core::deploy::{
    reconnect_policy_for, BackendOptions, BackendRegistry, DeployMode, Deployment, SupervisorConfig,
};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::index::IndexStats;
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::core::shard::ShardedTxTable;
use hammer::core::signer;
use hammer::crypto::{Keypair, SigParams};
use hammer::net::{LinkConfig, SimClock, SimNetwork};
use hammer::workload::{AccessDistribution, ControlSequence, SmallBankGenerator, WorkloadConfig};

use crate::pacing;
use crate::procfs::{self, Role, RoleCpu, RoleSampler};
use crate::proxy::{Ingress, Observe, SeenBlock, Submission, TimingChain};
use crate::stats::{median, quantile};

/// Submit threads of the single load-generating client.
pub const SUBMIT_THREADS: u32 = 2;
/// Signer threads of the pipelined signer.
pub const SIGNER_THREADS: usize = 2;
/// How often the traced run samples per-thread CPU.
const SAMPLE_PERIOD: Duration = Duration::from_millis(25);
/// How long teardown may take to join every thread and reap the node.
const TEARDOWN_GRACE: Duration = Duration::from_secs(5);

/// One benchmark workload: a backend, a deploy mode and an open-loop
/// SmallBank load shape.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The workload's name on the command line.
    pub name: &'static str,
    /// Registry name of the backend.
    pub backend: &'static str,
    /// In-process or behind TCP in a `node-host` process.
    pub mode: DeployMode,
    /// Offered rate, transactions per simulated second.
    pub rate: u32,
    /// One-second control slices per rep.
    pub slices: usize,
    /// Simulated-clock speedup.
    pub speedup: f64,
    /// SmallBank account pool.
    pub accounts: usize,
    /// Account selection.
    pub distribution: AccessDistribution,
}

/// Every workload, in report order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "neuchain-peak",
            backend: "neuchain-sim",
            mode: DeployMode::InProcess,
            rate: 9_000,
            slices: 3,
            speedup: 1.0,
            accounts: 30_000,
            distribution: AccessDistribution::Uniform,
        },
        Workload {
            name: "neuchain-tcp",
            backend: "neuchain-sim",
            mode: DeployMode::MultiProcess,
            rate: 2_000,
            slices: 3,
            speedup: 1.0,
            accounts: 10_000,
            distribution: AccessDistribution::Uniform,
        },
        Workload {
            name: "fabric-conflict",
            backend: "fabric-sim",
            mode: DeployMode::InProcess,
            rate: 150,
            slices: 12,
            speedup: 5.0,
            accounts: 30_000,
            distribution: AccessDistribution::Zipfian { theta: 0.99 },
        },
    ]
}

impl Workload {
    /// The control sequence of one rep.
    pub fn control(&self) -> ControlSequence {
        ControlSequence::constant(self.rate, self.slices, Duration::from_secs(1))
    }

    /// The workload profile of one rep, generated from `seed`.
    pub fn profile(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            chain_name: self.backend.to_owned(),
            accounts: self.accounts,
            distribution: self.distribution,
            clients: 1,
            threads_per_client: SUBMIT_THREADS,
            seed,
            ..WorkloadConfig::default()
        }
    }

    fn deploy(&self, node_host: Option<&Path>) -> Result<Deployment, String> {
        let registry = BackendRegistry::builtin();
        let options = BackendOptions::default();
        match self.mode {
            DeployMode::InProcess => registry
                .deploy(self.backend, &options, self.speedup)
                .map_err(|e| e.to_string()),
            DeployMode::MultiProcess => {
                let node_host = node_host.ok_or("a multi-process workload needs --node-host")?;
                let clock = SimClock::with_speedup(self.speedup);
                let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
                let supervisor = SupervisorConfig {
                    node_host: Some(node_host.to_path_buf()),
                    ..SupervisorConfig::default()
                };
                let reconnect = reconnect_policy_for(&RetryPolicy::disabled(), &clock);
                registry
                    .deploy_multi(self.backend, &options, clock, net, supervisor, reconnect)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// The driver configuration every workload shares: Hammer's task
/// processing with pipelined signing, and a client machine model that
/// does not throttle submission.
fn eval_config() -> EvalConfig {
    EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .signer_threads(SIGNER_THREADS)
        .drain_timeout(Duration::from_secs(10))
        .build()
        .expect("valid driver configuration")
}

/// The tracker shard count the driver picks by default.
fn tracker_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(256)
}

/// What one evaluation measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Transactions attempted.
    pub submitted: u64,
    /// Committed valid.
    pub committed: u64,
    /// Included but invalid (MVCC conflicts): resolved, correct outcomes.
    pub invalid: u64,
    /// Rejected, timed out, dropped or expired.
    pub unresolved: u64,
    /// `EvalReport::overall_tps`.
    pub sim_tps: f64,
    /// The report's in-block latency quantiles (submit to inclusion).
    pub in_block_p50_s: f64,
    /// See `in_block_p50_s`.
    pub in_block_p99_s: f64,
    /// CPU of the driver process and the node process over `run`.
    pub cpu_s: f64,
    /// Wall time of `Evaluation::run`.
    pub run_wall_s: f64,
    /// Wall time from before deploy to the first submission.
    pub setup_s: f64,
    /// Driver plus node peak resident set, read before teardown.
    pub peak_rss_bytes: u64,
    /// Inclusion minus due time, per committed transaction.
    pub commit_s: Vec<f64>,
    /// Submission minus due time, per submission.
    pub late_s: Vec<f64>,
    /// Control slice length.
    pub slice_s: f64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// The traced measurements, for a traced rep.
    pub trace: Option<Trace>,
}

/// The per-layer measurements of a traced rep.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `SmallBankGenerator::generate_all` on the run's profile.
    pub generate_s: f64,
    /// Genesis seeding through the proxy.
    pub seed_s: f64,
    /// `sign_pipelined` on the generated transactions: wall time.
    pub sign_wall_s: f64,
    /// ... and process CPU.
    pub sign_cpu_s: f64,
    /// ... and transactions signed.
    pub signed: u64,
    /// The ingress boundary, without its submissions.
    pub ingress: Ingress,
    /// The observe boundary, without its blocks.
    pub observe: Observe,
    /// Transactions in the fetched blocks.
    pub block_txs: u64,
    /// Replay of the submissions into a fresh tracker.
    pub insert_ns_per_tx: f64,
    /// Replay of the fetched blocks against it.
    pub match_ns_per_tx: f64,
    /// Records the replay matched.
    pub matched: u64,
    /// The driver's tracker statistics.
    pub index: IndexStats,
    /// Blocks sealed during the run (`progress_mark` delta).
    pub blocks: u64,
    /// Wall time of `verify_ledgers`.
    pub verify_s: f64,
    /// CPU per thread role over `run`.
    pub roles: RoleCpu,
    /// Driver plus node process CPU over the same interval.
    pub process_cpu_s: f64,
}

/// CPU seconds of the driver process plus the node process, if any.
fn process_cpu(node: Option<&Path>) -> f64 {
    procfs::cpu_s(&procfs::self_dir()) + node.map_or(0.0, procfs::cpu_s)
}

/// Waits up to [`TEARDOWN_GRACE`] for `done`.
fn settles(done: impl Fn() -> bool) -> bool {
    let until = Instant::now() + TEARDOWN_GRACE;
    while !done() {
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Runs one evaluation of `workload` and measures it.
pub fn run_rep(workload: &Workload, seed: u64, traced: bool, node_host: Option<&Path>) -> Rep {
    let control = workload.control();
    let profile = workload.profile(seed);
    let mut rep = Rep {
        slice_s: control.slice_duration().as_secs_f64(),
        ..Rep::default()
    };
    let threads_before = live_threads();

    let deploy_start = Instant::now();
    let deployment = match workload.deploy(node_host) {
        Ok(d) => d,
        Err(e) => {
            rep.errors.push(format!("deploy: {e}"));
            return rep;
        }
    };
    let node_dir: Option<PathBuf> = match workload.mode {
        DeployMode::InProcess => None,
        DeployMode::MultiProcess => match procfs::children_named("node-host").as_slice() {
            [pid] => Some(PathBuf::from(format!("/proc/{pid}"))),
            pids => {
                rep.errors
                    .push(format!("expected one node-host child, found {pids:?}"));
                return rep;
            }
        },
    };
    let clock = deployment.clock().clone();
    let proxy = Arc::new(TimingChain::new(
        Arc::clone(deployment.chain()),
        clock.clone(),
        traced,
    ));
    let proxied = Deployment::from_chain(Arc::clone(&proxy), clock, deployment.net().clone());
    let chain_name = proxied.client().chain_name().to_owned();

    let marks_before = if traced { proxy.progress_mark() } else { 0 };
    let sampler = traced.then(|| RoleSampler::start(&chain_name, node_dir.clone(), SAMPLE_PERIOD));
    let cpu_before = process_cpu(node_dir.as_deref());
    let run_start = Instant::now();
    let result = Evaluation::new(eval_config()).run(&proxied, &profile, &control);
    rep.run_wall_s = run_start.elapsed().as_secs_f64();
    rep.cpu_s = process_cpu(node_dir.as_deref()) - cpu_before;
    let roles = sampler.map(RoleSampler::finish);

    rep.setup_s = proxy
        .first_submit()
        .map_or(0.0, |t| t.duration_since(deploy_start).as_secs_f64());
    rep.peak_rss_bytes =
        procfs::vm_hwm(&procfs::self_dir()) + node_dir.as_deref().map_or(0, procfs::vm_hwm);
    let verify_start = Instant::now();
    if let Err(e) = proxy.verify_ledgers() {
        rep.errors.push(format!("verify_ledgers: {e}"));
    }
    let verify_s = verify_start.elapsed().as_secs_f64();
    let blocks = if traced {
        proxy.progress_mark().saturating_sub(marks_before)
    } else {
        0
    };
    let seeding = proxy.seeding();
    let ingress = proxy.take_ingress();
    let observe = proxy.take_observe();

    drop(proxied);
    drop(proxy);
    drop(deployment);
    if !settles(|| live_threads() <= threads_before) {
        rep.errors.push(format!(
            "teardown left threads: {} live, {threads_before} before deploy",
            live_threads()
        ));
    }
    if !settles(|| live_children() == 0) {
        rep.errors
            .push(format!("teardown left {} child processes", live_children()));
    }

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            rep.errors.push(format!("run: {e}"));
            return rep;
        }
    };
    rep.submitted = report.submitted;
    rep.committed = report.committed as u64;
    rep.invalid = report.failed as u64;
    rep.unresolved = report.rejected + (report.timed_out + report.dropped + report.expired) as u64;
    rep.sim_tps = report.overall_tps;
    rep.in_block_p50_s = report.latency.p50_s;
    rep.in_block_p99_s = report.latency.p99_s;

    let resolved = rep.committed + rep.invalid;
    if resolved + rep.unresolved != report.submitted {
        rep.errors.push(format!(
            "accounting identity: committed {} + failed {} + unresolved {} != submitted {}",
            rep.committed, rep.invalid, rep.unresolved, report.submitted
        ));
    }
    if report.submitted != control.total() {
        rep.errors.push(format!(
            "submitted {} != control total {}",
            report.submitted,
            control.total()
        ));
    }
    if report.stalled {
        rep.errors.push("the stall watchdog fired".to_owned());
    }
    if rep.setup_s == 0.0 {
        rep.errors
            .push("no submission reached the chain".to_owned());
    }

    let records: Vec<(Duration, Option<Duration>)> = report
        .records
        .iter()
        .map(|r| (r.start, r.end.filter(|_| r.status == TxStatus::Committed)))
        .collect();
    let due = pacing::due_offsets(control.budgets(), control.slice_duration());
    if records.len() != due.len() {
        rep.errors.push(format!(
            "{} records for {} due times",
            records.len(),
            due.len()
        ));
    }
    let timing = pacing::timing(&records, &due);
    rep.commit_s = timing.commit.iter().map(Duration::as_secs_f64).collect();
    rep.late_s = timing.lateness.iter().map(Duration::as_secs_f64).collect();

    if traced {
        let mut trace = Trace {
            seed_s: seeding.map_or(0.0, |s| (s.last - s.first).as_secs_f64()),
            index: report.index_stats.unwrap_or_default(),
            blocks,
            verify_s,
            roles: roles.unwrap_or_default(),
            process_cpu_s: rep.cpu_s,
            block_txs: observe.blocks.iter().map(|b| b.entries.len() as u64).sum(),
            ..Trace::default()
        };
        if ingress.calls != report.submitted {
            rep.errors.push(format!(
                "proxy saw {} submit calls for {} submitted",
                ingress.calls, report.submitted
            ));
        }
        if trace.block_txs != resolved {
            rep.errors.push(format!(
                "fetched blocks hold {} transactions, committed + failed is {resolved}",
                trace.block_txs
            ));
        }
        let (insert, matching, matched) = replay(&ingress.submissions, &observe.blocks);
        trace.insert_ns_per_tx = insert;
        trace.match_ns_per_tx = matching;
        trace.matched = matched;
        if matched != resolved {
            rep.errors.push(format!(
                "tracker replay matched {matched}, committed + failed is {resolved}"
            ));
        }
        measure_preparation(&profile, &control, &mut trace);
        trace.ingress = Ingress {
            submissions: Vec::new(),
            ..ingress
        };
        trace.observe = Observe {
            blocks: Vec::new(),
            ..observe
        };
        rep.trace = Some(trace);
    }
    rep
}

/// Replays the observed submissions and blocks into a fresh tracker with
/// the driver's shard count: `(insert ns/tx, match ns/matched tx, matched)`.
fn replay(submissions: &[Submission], blocks: &[SeenBlock]) -> (f64, f64, u64) {
    let table = ShardedTxTable::new(tracker_shards(), submissions.len());
    let start = Instant::now();
    for s in submissions {
        table.insert(s.id, s.client_id, s.server_id, s.start);
    }
    let insert_ns = start.elapsed().as_nanos() as f64;
    let mut out = Vec::new();
    let mut matched = 0u64;
    let start = Instant::now();
    for block in blocks {
        out.clear();
        table.complete_block(&block.entries, block.timestamp, &mut out);
        matched += out.len() as u64;
    }
    let match_ns = start.elapsed().as_nanos() as f64;
    (
        insert_ns / submissions.len().max(1) as f64,
        match_ns / matched.max(1) as f64,
        matched,
    )
}

/// Times generation and pipelined signing on the run's own inputs, after
/// teardown, when nothing else runs in the process.
fn measure_preparation(profile: &WorkloadConfig, control: &ControlSequence, trace: &mut Trace) {
    let mut generation = profile.clone();
    generation.total_txs = control.total() as usize;
    let start = Instant::now();
    let txs = SmallBankGenerator::new(generation).generate_all();
    trace.generate_s = start.elapsed().as_secs_f64();

    let cpu_before = process_cpu(None);
    let start = Instant::now();
    let signed = signer::sign_pipelined(
        txs,
        Keypair::from_seed(profile.seed),
        SigParams::fast(),
        SIGNER_THREADS,
    );
    trace.signed = signed.iter().count() as u64;
    trace.sign_wall_s = start.elapsed().as_secs_f64();
    trace.sign_cpu_s = process_cpu(None) - cpu_before;
}

/// A reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, and what they are.
    pub samples: (usize, &'static str),
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: (usize, &'static str),
) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// CPU µs per committed transaction over a set of reps (all their CPU
/// over all their commits).
fn cpu_us_per_tx(reps: &[&Rep]) -> f64 {
    let cpu: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let committed: u64 = reps.iter().map(|r| r.committed).sum();
    cpu * 1e6 / committed.max(1) as f64
}

/// Seconds spent in calls that took `call_ns` each.
fn busy_s(call_ns: &[u64]) -> f64 {
    call_ns.iter().sum::<u64>() as f64 / 1e9
}

fn pooled(reps: &[&Rep], samples: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| samples(r).iter().copied())
        .collect()
}

fn per_rep(reps: &[&Rep], value: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| value(r)).collect::<Vec<_>>())
}

/// The end-to-end metrics over untraced reps. Peak memory is the one
/// figure taken from `first`, the process's first evaluation: the
/// resident peak only grows over a process's life, and a user's process
/// runs one evaluation.
pub fn end_to_end(first: &Rep, reps: &[&Rep]) -> Vec<Metric> {
    let n = (reps.len(), "reps");
    // The median is taken over every committed transaction of the run.
    // The p99 is taken per rep (each over at least 1 100 commits, so 11
    // lie beyond it) and the median over reps is reported, so a host
    // stall in one rep cannot move it.
    let commit = pooled(reps, |r| &r.commit_s);
    let p99 = per_rep(reps, |r| quantile(&r.commit_s, 0.99).unwrap_or(0.0));
    let fewest = reps.iter().map(|r| r.commit_s.len()).min().unwrap_or(0);
    vec![
        metric("cpu_us_per_tx", cpu_us_per_tx(reps), "us", n),
        metric("sim_tps", per_rep(reps, |r| r.sim_tps), "tx/sim-s", n),
        metric(
            "commit_p50_s",
            quantile(&commit, 0.50).unwrap_or(0.0),
            "sim-s",
            (commit.len(), "committed txs"),
        ),
        metric(
            "commit_p99_s",
            p99,
            "sim-s",
            (fewest, "committed txs in the smallest rep"),
        ),
        metric("run_wall_s", per_rep(reps, |r| r.run_wall_s), "s", n),
        metric("setup_s", per_rep(reps, |r| r.setup_s), "s", n),
        metric(
            "peak_rss_mb",
            first.peak_rss_bytes as f64 / 1e6,
            "MB",
            (1, "first rep"),
        ),
    ]
}

/// The per-layer metrics over traced reps; `untraced` gives the base of
/// `trace_overhead`.
pub fn per_layer(traced: &[&Rep], untraced: &[&Rep]) -> Vec<Metric> {
    let n = (traced.len(), "traced reps");
    let tr: Vec<&Trace> = traced.iter().filter_map(|r| r.trace.as_ref()).collect();
    let med = |f: &dyn Fn(&Trace) -> f64| median(&tr.iter().map(|x| f(x)).collect::<Vec<_>>());
    let ratio = |num: &dyn Fn(&Trace) -> f64, den: &dyn Fn(&Trace) -> f64| {
        let d: f64 = tr.iter().map(|x| den(x)).sum();
        tr.iter().map(|x| num(x)).sum::<f64>() / if d == 0.0 { 1.0 } else { d }
    };
    let ns_pool = |f: &dyn Fn(&Trace) -> &[u64]| -> Vec<f64> {
        tr.iter()
            .flat_map(|x| f(x).iter().map(|v| *v as f64 / 1e3))
            .collect()
    };
    let submit_us = ns_pool(&|x| &x.ingress.call_ns);
    let block_us = ns_pool(&|x| &x.observe.block_ns);
    let late = pooled(traced, |r| &r.late_s);
    let slice = traced.first().map_or(1.0, |r| r.slice_s);

    let mut m = vec![
        metric(
            "trace_overhead",
            cpu_us_per_tx(traced) / cpu_us_per_tx(untraced) - 1.0,
            "ratio",
            (traced.len() + untraced.len(), "reps"),
        ),
        metric("workload.generate_s", med(&|x| x.generate_s), "s", n),
        metric("chain.seed_s", med(&|x| x.seed_s), "s", n),
        metric(
            "signer.sign_us_per_tx",
            ratio(&|x| x.sign_wall_s * 1e6, &|x| x.signed as f64),
            "us",
            n,
        ),
        metric("signer.cpu_s", med(&|x| x.sign_cpu_s), "s", n),
        metric(
            "ingress.submit_calls",
            med(&|x| x.ingress.calls as f64),
            "count",
            n,
        ),
        metric(
            "ingress.submit_busy_s",
            med(&|x| busy_s(&x.ingress.call_ns)),
            "s",
            n,
        ),
        metric(
            "ingress.submit_p50_us",
            quantile(&submit_us, 0.50).unwrap_or(0.0),
            "us",
            (submit_us.len(), "calls"),
        ),
        metric(
            "ingress.submit_p99_us",
            quantile(&submit_us, 0.99).unwrap_or(0.0),
            "us",
            (submit_us.len(), "calls"),
        ),
        metric(
            "ingress.accept_ratio",
            ratio(&|x| x.ingress.accepted as f64, &|x| x.ingress.calls as f64),
            "ratio",
            n,
        ),
        metric(
            "observe.height_calls",
            med(&|x| x.observe.height_calls as f64),
            "count",
            n,
        ),
        metric(
            "observe.height_busy_s",
            med(&|x| x.observe.height_busy.as_secs_f64()),
            "s",
            n,
        ),
        metric(
            "observe.new_height_ratio",
            ratio(&|x| x.observe.new_heights as f64, &|x| {
                x.observe.height_calls as f64
            }),
            "ratio",
            n,
        ),
        metric(
            "observe.block_calls",
            med(&|x| x.observe.block_calls as f64),
            "count",
            n,
        ),
        metric(
            "observe.block_busy_s",
            med(&|x| busy_s(&x.observe.block_ns)),
            "s",
            n,
        ),
        metric(
            "observe.block_p99_us",
            quantile(&block_us, 0.99).unwrap_or(0.0),
            "us",
            (block_us.len(), "calls"),
        ),
        metric(
            "observe.txs_per_block",
            ratio(&|x| x.block_txs as f64, &|x| x.observe.blocks_found as f64),
            "count",
            n,
        ),
        metric(
            "tracker.insert_ns_per_tx",
            med(&|x| x.insert_ns_per_tx),
            "ns",
            n,
        ),
        metric(
            "tracker.match_ns_per_tx",
            med(&|x| x.match_ns_per_tx),
            "ns",
            n,
        ),
        metric(
            "tracker.probe_steps",
            med(&|x| x.index.probe_steps as f64),
            "count",
            n,
        ),
        metric(
            "tracker.bloom_rejections",
            med(&|x| x.index.bloom_rejections as f64),
            "count",
            n,
        ),
        metric(
            "tracker.misses",
            med(&|x| x.index.misses as f64),
            "count",
            n,
        ),
        metric(
            "tracker.bloom_rebuilds",
            med(&|x| x.index.bloom_rebuilds as f64),
            "count",
            n,
        ),
        metric(
            "driver.late_p99_s",
            quantile(&late, 0.99).unwrap_or(0.0),
            "sim-s",
            (late.len(), "submissions"),
        ),
        metric(
            "driver.late_share",
            late.iter().filter(|l| **l > slice).count() as f64 / late.len().max(1) as f64,
            "ratio",
            (late.len(), "submissions"),
        ),
        metric(
            "unresolved_share",
            traced.iter().map(|r| r.unresolved).sum::<u64>() as f64
                / traced.iter().map(|r| r.submitted).sum::<u64>().max(1) as f64,
            "ratio",
            n,
        ),
        metric("chain.blocks", med(&|x| x.blocks as f64), "count", n),
        metric(
            "chain.in_block_p50_s",
            per_rep(traced, |r| r.in_block_p50_s),
            "sim-s",
            n,
        ),
        metric(
            "chain.in_block_p99_s",
            per_rep(traced, |r| r.in_block_p99_s),
            "sim-s",
            n,
        ),
        metric(
            "chain.invalid_share",
            traced.iter().map(|r| r.invalid).sum::<u64>() as f64
                / traced.iter().map(|r| r.submitted).sum::<u64>().max(1) as f64,
            "ratio",
            n,
        ),
        metric("chain.verify_ledgers_s", med(&|x| x.verify_s), "s", n),
    ];
    // Means, not medians, so the roles and the remainder add up to the
    // process CPU exactly.
    let mean =
        |f: &dyn Fn(&Trace) -> f64| tr.iter().map(|x| f(x)).sum::<f64>() / tr.len().max(1) as f64;
    let process = mean(&|x| x.process_cpu_s);
    m.push(metric("cpu.process_s", process, "s", n));
    let mut attributed = 0.0;
    for role in Role::ALL {
        let seconds = mean(&|x| x.roles.get(role));
        attributed += seconds;
        m.push(metric(role.metric(), seconds, "s", n));
    }
    m.push(metric("cpu.unattributed_s", process - attributed, "s", n));
    m
}
