//! The evaluation driver: preparation → execution → report (Fig. 3).
//!
//! [`Evaluation::run`] takes a deployed SUT, a workload profile, and a
//! temporal control sequence, and produces an [`EvalReport`]:
//!
//! 1. **Preparation** — seed the account fixtures, generate the unsigned
//!    transactions, and sign them with the configured strategy
//!    ([`SigningStrategy`]). With [`SigningStrategy::Pipelined`] the
//!    execution phase starts while signing is still running (§III-D2).
//! 2. **Execution** — `clients × threads` submission workers drain the
//!    signed-transaction stream under the control sequence's per-slice
//!    budgets, each paying the modelled client-machine cost per
//!    submission. A monitor tracks commitment according to the
//!    [`TestingMode`]:
//!    * [`TestingMode::TaskProcessing`] — Hammer's Algorithm 1: poll for
//!      new blocks, take the *block timestamp* as the end time, and match
//!      via the Bloom-filtered dynamic hash index (O(1) per transaction).
//!    * [`TestingMode::BatchBaseline`] — Blockbench-style batch testing:
//!      same polling, but the end time is the *poll* time (the latency
//!      skew ξ1 of §II-C1) and matching linearly scans the unconfirmed
//!      queue (O(n·m)).
//!    * [`TestingMode::Interactive`] — Caliper-style: subscribe to
//!      per-transaction commit events; every event costs listener CPU on
//!      the client machine (the resource drain the paper blames for
//!      Caliper's lower reported TPS in Fig. 7).
//! 3. **Report** — statuses flush into the Performance table
//!    ([`hammer_store::TableStore`]) and aggregate into an [`EvalReport`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use hammer_chain::client::{BlockchainClient, ChainError, ErrorKind};
use hammer_chain::kernel::SimChain;
use hammer_chain::types::{SignedTransaction, Transaction, TxId, TxStatus};
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_net::FaultObserver;
use hammer_obs::{Obs, Stage};
use hammer_store::table::{LatencySummary, PerfRow, TableStore};
use hammer_store::KvStore;
use hammer_workload::{
    ControlSequence, SmallBankGenerator, WorkloadConfig, WorkloadKind, YcsbGenerator,
};
use parking_lot::Mutex;

use crate::baseline::BatchQueue;
use crate::checkpoint::{checkpoint_key, DriverCheckpoint, RecoveryConfig};
use crate::deploy::Deployment;
use crate::index::TxRecord;
use crate::machine::ClientMachine;
use crate::retry::{RetryDecision, RetryPolicy};
use crate::signer;
use crate::sync::{run_merger, StatusRecord, StatusSyncer};
use hammer_store::table::RowOutcome;

/// How commitment is observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestingMode {
    /// Hammer's asynchronous task processing (Algorithm 1).
    TaskProcessing,
    /// Blockbench-style batch testing (O(n·m) queue matching, poll-time
    /// end times).
    BatchBaseline,
    /// Caliper-style interactive testing (per-transaction event
    /// listening).
    Interactive,
}

/// How the workload is signed (§III-D, Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigningStrategy {
    /// One thread, then execute (Fig. 4a).
    Serial,
    /// Thread pool, wait for all, then execute (Fig. 4b).
    Async,
    /// Thread pool streaming into execution (Fig. 4c).
    Pipelined,
}

/// Driver configuration.
///
/// Construct with [`EvalConfig::builder`], the only way in: the builder
/// validates as it builds, so an invalid combination fails at
/// construction instead of deep inside [`Evaluation::run`]. The fields
/// are crate-private — the deprecation cycle that kept them public for
/// struct-literal construction is over.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Commitment-observation mode.
    pub(crate) mode: TestingMode,
    /// Signing strategy.
    pub(crate) signing: SigningStrategy,
    /// Signer thread-pool size for the async/pipelined strategies.
    pub(crate) signer_threads: usize,
    /// The modelled client machine.
    pub(crate) machine: ClientMachine,
    /// Signature scheme parameters (shared with the SUT).
    pub(crate) sig_params: SigParams,
    /// Block-polling interval in simulated time (ξ1: large intervals skew
    /// batch-baseline latency; small intervals burn CPU).
    pub(crate) poll_interval: Duration,
    /// How long (simulated) to keep monitoring after the last submission
    /// before declaring the stragglers timed out.
    pub(crate) drain_timeout: Duration,
    /// Interactive mode: listener CPU cost per commit event.
    pub(crate) listen_cost: Duration,
    /// Interactive mode: how many undelivered commit events the client
    /// SDK buffers before the transport drops them (the paper's "loss of
    /// response information ... under heavy load").
    pub(crate) event_buffer: usize,
    /// Route statuses through the Fig. 2 Redis→MySQL pipeline
    /// ([`crate::sync`]) instead of writing the Performance table
    /// directly at the end of the run.
    pub(crate) live_sync: bool,
    /// Resilient-submission policy: how workers retry transient failures
    /// (crashed/blackholed nodes, mempool backpressure). The default is
    /// [`RetryPolicy::disabled`], which reproduces the pre-fault driver
    /// exactly: one attempt per transaction.
    pub(crate) retry: RetryPolicy,
    /// Stall watchdog: abort the run gracefully when no progress (no
    /// submissions, retries, completions, or sealed blocks) is observed
    /// for this much simulated time while transactions are pending.
    /// `None` (the default) disables the watchdog.
    pub(crate) stall_budget: Option<Duration>,
    /// Shard count for the in-flight tracker (task-processing modes).
    /// `None` (the default) sizes it to the host's available parallelism;
    /// an explicit value is rounded up to a power of two. `1` reproduces
    /// the single-lock tracker exactly.
    pub(crate) tracker_shards: Option<usize>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            mode: TestingMode::TaskProcessing,
            signing: SigningStrategy::Pipelined,
            signer_threads: 4,
            machine: ClientMachine::paper_client(),
            sig_params: SigParams::fast(),
            poll_interval: Duration::from_millis(100),
            drain_timeout: Duration::from_secs(60),
            listen_cost: Duration::from_micros(400),
            event_buffer: 1_000,
            live_sync: false,
            retry: RetryPolicy::disabled(),
            stall_budget: None,
            tracker_shards: None,
        }
    }
}

impl EvalConfig {
    /// A validating builder seeded with the defaults.
    pub fn builder() -> EvalConfigBuilder {
        EvalConfigBuilder {
            config: EvalConfig::default(),
        }
    }
}

/// Builder for [`EvalConfig`]. Every setter takes and returns `self`;
/// [`EvalConfigBuilder::build`] validates the combination (non-zero signer
/// threads and poll interval, a sane client machine, a coherent retry
/// policy) so an invalid configuration fails at construction instead of
/// deep inside [`Evaluation::run`]. Cross-argument checks that need the
/// control sequence (non-empty budget, retry deadline within the slice
/// length) still happen in `run`.
#[derive(Clone, Debug)]
pub struct EvalConfigBuilder {
    config: EvalConfig,
}

impl EvalConfigBuilder {
    /// Commitment-observation mode.
    pub fn mode(mut self, mode: TestingMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Signing strategy.
    pub fn signing(mut self, signing: SigningStrategy) -> Self {
        self.config.signing = signing;
        self
    }

    /// Signer thread-pool size (must be non-zero).
    pub fn signer_threads(mut self, threads: usize) -> Self {
        self.config.signer_threads = threads;
        self
    }

    /// The modelled client machine.
    pub fn machine(mut self, machine: ClientMachine) -> Self {
        self.config.machine = machine;
        self
    }

    /// Signature scheme parameters (shared with the SUT).
    pub fn sig_params(mut self, params: SigParams) -> Self {
        self.config.sig_params = params;
        self
    }

    /// Block-polling interval in simulated time (must be non-zero).
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.config.poll_interval = interval;
        self
    }

    /// Post-submission monitoring window before stragglers time out.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.config.drain_timeout = timeout;
        self
    }

    /// Interactive mode: listener CPU cost per commit event.
    pub fn listen_cost(mut self, cost: Duration) -> Self {
        self.config.listen_cost = cost;
        self
    }

    /// Interactive mode: SDK event-buffer depth.
    pub fn event_buffer(mut self, depth: usize) -> Self {
        self.config.event_buffer = depth;
        self
    }

    /// Route statuses through the Fig. 2 KV→table pipeline.
    pub fn live_sync(mut self, enabled: bool) -> Self {
        self.config.live_sync = enabled;
        self
    }

    /// Resilient-submission retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Enables the stall watchdog: the run aborts gracefully (with a
    /// complete report, `stalled` set) when no progress is observed for
    /// `budget` of simulated time while transactions are pending. Size
    /// the budget comfortably above the chain's block interval and the
    /// longest scripted fault window, or healthy-but-slow runs will be
    /// declared stalled.
    pub fn stall_budget(mut self, budget: Duration) -> Self {
        self.config.stall_budget = Some(budget);
        self
    }

    /// Shard count for the in-flight tracker (must be in `1..=4096`;
    /// rounded up to a power of two). The default sizes the tracker to
    /// the host's available parallelism; `1` pins the single-lock
    /// tracker, which is the baseline arm of the `driver_ceiling` bench.
    pub fn tracker_shards(mut self, shards: usize) -> Self {
        self.config.tracker_shards = Some(shards);
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<EvalConfig, EvalError> {
        let config = self.config;
        if config.signer_threads == 0 {
            return Err(EvalError::InvalidConfig(
                "signer_threads must be non-zero".to_owned(),
            ));
        }
        if config.poll_interval.is_zero() {
            return Err(EvalError::InvalidConfig(
                "poll_interval must be positive".to_owned(),
            ));
        }
        if config.stall_budget.is_some_and(|b| b.is_zero()) {
            return Err(EvalError::InvalidConfig(
                "stall_budget must be positive".to_owned(),
            ));
        }
        if config
            .tracker_shards
            .is_some_and(|n| !(1..=4096).contains(&n))
        {
            return Err(EvalError::InvalidConfig(
                "tracker_shards must be in 1..=4096".to_owned(),
            ));
        }
        config
            .machine
            .validate()
            .map_err(EvalError::InvalidConfig)?;
        config.retry.validate().map_err(EvalError::InvalidConfig)?;
        Ok(config)
    }
}

/// Driver failure.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// A configuration did not validate.
    InvalidConfig(String),
    /// The SUT failed.
    Chain(ChainError),
    /// The driver was killed mid-run by [`RecoveryConfig::kill_at`]. The
    /// last periodic checkpoint survives in the recovery store; calling
    /// [`Evaluation::run_recoverable`] again with the same run id resumes
    /// from it.
    Killed,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EvalError::Chain(e) => write!(f, "chain error: {e}"),
            EvalError::Killed => write!(f, "driver killed mid-run (checkpoint retained)"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Per-fault-window committed-throughput breakdown (plus one `nominal`
/// entry covering the run time outside every window). Lets a fault sweep
/// show *when* throughput degraded, not just that it did.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultWindowStats {
    /// The fault window's label (`"nominal"` for the outside-all-windows
    /// entry).
    pub label: String,
    /// Window start (simulated time).
    pub start: Duration,
    /// Window end (simulated time, exclusive).
    pub end: Duration,
    /// Transactions whose commit time fell inside the window.
    pub committed: usize,
    /// Committed throughput over the window.
    pub tps: f64,
}

/// The result of one evaluation run.
#[derive(Clone, Debug, Default)]
pub struct EvalReport {
    /// The evaluated chain's name.
    pub chain: String,
    /// Transactions attempted against the SUT (every transaction pulled
    /// from the signed stream, whatever its eventual fate — so
    /// `committed + failed + timed_out + dropped + expired + rejected`
    /// accounts for all of them).
    pub submitted: u64,
    /// Submissions the SUT terminally rejected (non-retryable errors, or
    /// any error when retrying is disabled).
    pub rejected: u64,
    /// Extra submission attempts made by the retry policy (0 unless
    /// [`EvalConfigBuilder::retry`] is set and transient faults occurred).
    pub retried: u64,
    /// Abandoned after exhausting the retry budget, never accepted.
    pub dropped: usize,
    /// Abandoned after the per-slice retry deadline passed.
    pub expired: usize,
    /// Committed successfully.
    pub committed: usize,
    /// Included on-chain but invalid (execution/MVCC failure).
    pub failed: usize,
    /// Never observed before the drain deadline.
    pub timed_out: usize,
    /// Committed transactions per second over the run span.
    pub overall_tps: f64,
    /// Latency distribution of committed transactions.
    pub latency: LatencySummary,
    /// Committed transactions per simulated second (time series).
    pub tps_series: Vec<usize>,
    /// Per-client committed counts.
    pub per_client_committed: Vec<(u32, usize)>,
    /// Per-shard committed counts (shard-aware load report; a single
    /// entry for non-sharded chains).
    pub per_shard_committed: Vec<(u32, usize)>,
    /// Simulated duration from first submission to last commit.
    pub sim_duration: Duration,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Rows that travelled the Fig. 2 KV→table pipeline (0 unless
    /// [`EvalConfigBuilder::live_sync`] is on).
    pub synced_rows: usize,
    /// Task-processing index statistics (Bloom rejections, probe steps);
    /// `None` for the batch baseline.
    pub index_stats: Option<crate::index::IndexStats>,
    /// Per-fault-window TPS breakdown; empty when the deployment's
    /// network has no fault plan installed.
    pub fault_windows: Vec<FaultWindowStats>,
    /// Whether the stall watchdog aborted the run: no progress for
    /// [`EvalConfigBuilder::stall_budget`] of simulated time while
    /// transactions were pending. The report is still complete — the
    /// in-flight stragglers are accounted as timed out.
    pub stalled: bool,
    /// The raw per-transaction records (for audits, §V-C).
    pub records: Vec<TxRecord>,
}

impl EvalReport {
    /// Serialises the report (minus the raw per-transaction records) as a
    /// single JSON object, suitable for experiment bins that aggregate
    /// many runs into one machine-readable file.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_str_field(&mut out, "chain", &self.chain);
        push_u64_field(&mut out, "submitted", self.submitted);
        push_u64_field(&mut out, "rejected", self.rejected);
        push_u64_field(&mut out, "retried", self.retried);
        push_u64_field(&mut out, "dropped", self.dropped as u64);
        push_u64_field(&mut out, "expired", self.expired as u64);
        push_u64_field(&mut out, "committed", self.committed as u64);
        push_u64_field(&mut out, "failed", self.failed as u64);
        push_u64_field(&mut out, "timed_out", self.timed_out as u64);
        push_f64_field(&mut out, "overall_tps", self.overall_tps);
        out.push_str("\"latency\":{");
        push_u64_field(&mut out, "count", self.latency.count as u64);
        push_f64_field(&mut out, "mean_s", self.latency.mean_s);
        push_f64_field(&mut out, "p50_s", self.latency.p50_s);
        push_f64_field(&mut out, "p95_s", self.latency.p95_s);
        push_f64_field(&mut out, "p99_s", self.latency.p99_s);
        push_f64_field(&mut out, "max_s", self.latency.max_s);
        close_object(&mut out);
        out.push(',');
        out.push_str("\"tps_series\":[");
        for (i, n) in self.tps_series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.to_string());
        }
        out.push_str("],");
        push_pairs_field(&mut out, "per_client_committed", &self.per_client_committed);
        push_pairs_field(&mut out, "per_shard_committed", &self.per_shard_committed);
        push_f64_field(&mut out, "sim_duration_s", self.sim_duration.as_secs_f64());
        push_f64_field(&mut out, "wall_time_s", self.wall_time.as_secs_f64());
        push_u64_field(&mut out, "synced_rows", self.synced_rows as u64);
        match &self.index_stats {
            Some(stats) => {
                out.push_str("\"index_stats\":{");
                push_u64_field(&mut out, "probe_steps", stats.probe_steps);
                push_u64_field(&mut out, "expansions", stats.expansions);
                push_u64_field(&mut out, "bloom_rejections", stats.bloom_rejections);
                push_u64_field(&mut out, "misses", stats.misses);
                push_u64_field(&mut out, "bloom_rebuilds", stats.bloom_rebuilds);
                close_object(&mut out);
                out.push(',');
            }
            None => out.push_str("\"index_stats\":null,"),
        }
        out.push_str("\"fault_windows\":[");
        for (i, w) in self.fault_windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_field(&mut out, "label", &w.label);
            push_f64_field(&mut out, "start_s", w.start.as_secs_f64());
            push_f64_field(&mut out, "end_s", w.end.as_secs_f64());
            push_u64_field(&mut out, "committed", w.committed as u64);
            push_f64_field(&mut out, "tps", w.tps);
            close_object(&mut out);
        }
        out.push_str("],");
        out.push_str("\"stalled\":");
        out.push_str(if self.stalled { "true" } else { "false" });
        out.push('}');
        out
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str("\",");
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
    out.push(',');
}

fn push_f64_field(out: &mut String, key: &str, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&format!("{value:.6}"));
    out.push(',');
}

fn push_pairs_field(out: &mut String, key: &str, pairs: &[(u32, usize)]) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, (id, n)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{id},{n}]"));
    }
    out.push_str("],");
}

/// Replaces a trailing comma (if any) with the closing brace.
fn close_object(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
}

/// Internal: driver-side observability bundle. The metric handles are
/// resolved once per run; with a disabled registry they are detached
/// no-ops, so the submission and matching hot paths pay one predictable
/// branch per event.
#[derive(Clone)]
struct DriverObs {
    obs: Obs,
    submitted: hammer_obs::Counter,
    retried: hammer_obs::Counter,
    pending: hammer_obs::Gauge,
}

impl DriverObs {
    fn new(obs: Obs) -> Self {
        DriverObs {
            submitted: obs.registry().counter("hammer_driver_submitted_total"),
            retried: obs.registry().counter("hammer_driver_retried_total"),
            pending: obs.registry().gauge("hammer_driver_pending"),
            obs,
        }
    }

    #[inline]
    fn on(&self) -> bool {
        self.obs.enabled()
    }
}

/// Internal: one interface over the two status-tracking structures.
/// Locking is *internal* to the implementation — the sharded task tracker
/// takes one shard lock per call (and one per shard per block for
/// [`Tracker::complete_block`]) while the batch baseline keeps its single
/// queue lock — so callers never serialise on a global tracker mutex.
/// `complete` returns the finished record so callers (the live-sync
/// pipeline) can publish it without a second lookup.
trait Tracker: Send + Sync {
    fn insert(&self, id: TxId, client: u32, server: u32, start: Duration);
    fn complete(&self, id: &TxId, end: Duration, ok: bool) -> Option<TxRecord>;
    /// Matches a whole sealed block, appending every record that
    /// completed to `out`. The sharded tracker groups the entries by
    /// shard and locks each shard once per block.
    fn complete_block(&self, entries: &[(TxId, bool)], end: Duration, out: &mut Vec<TxRecord>);
    /// Submission-side abandonment: the retry loop gave up on a
    /// transaction ([`TxStatus::Dropped`] / [`TxStatus::Expired`]) that
    /// therefore never reached the chain.
    fn abandon(&self, id: &TxId, end: Duration, status: TxStatus) -> bool;
    /// Terminal rejection: the record completes as failed *and* the id
    /// joins the rejected set under one lock (the pre-sharding driver
    /// took two global locks here).
    fn reject(&self, id: &TxId, end: Duration);
    fn pending(&self) -> usize;
    fn index_stats(&self) -> Option<crate::index::IndexStats> {
        None
    }
    /// A consistent point-in-time copy of every record (pending included)
    /// plus the rejected-id set, for checkpointing. The sharded tracker
    /// holds all shard locks while copying, so the view is identical to a
    /// single-table snapshot.
    fn snapshot(&self) -> (Vec<TxRecord>, Vec<TxId>);
    /// Resume path: replays a checkpointed rejected-id set.
    fn restore_rejected(&self, ids: &[TxId]);
    /// Drains the tracker at end of run: every record plus the combined
    /// rejected-id set.
    fn finish(&self) -> (Vec<TxRecord>, HashSet<TxId>);
}

impl Tracker for crate::shard::ShardedTxTable {
    fn insert(&self, id: TxId, client: u32, server: u32, start: Duration) {
        crate::shard::ShardedTxTable::insert(self, id, client, server, start);
    }
    fn complete(&self, id: &TxId, end: Duration, ok: bool) -> Option<TxRecord> {
        crate::shard::ShardedTxTable::complete(self, id, end, ok)
    }
    fn complete_block(&self, entries: &[(TxId, bool)], end: Duration, out: &mut Vec<TxRecord>) {
        crate::shard::ShardedTxTable::complete_block(self, entries, end, out);
    }
    fn abandon(&self, id: &TxId, end: Duration, status: TxStatus) -> bool {
        crate::shard::ShardedTxTable::abandon(self, id, end, status)
    }
    fn reject(&self, id: &TxId, end: Duration) {
        crate::shard::ShardedTxTable::reject(self, id, end);
    }
    fn pending(&self) -> usize {
        crate::shard::ShardedTxTable::pending(self)
    }
    fn index_stats(&self) -> Option<crate::index::IndexStats> {
        Some(self.stats())
    }
    fn snapshot(&self) -> (Vec<TxRecord>, Vec<TxId>) {
        crate::shard::ShardedTxTable::snapshot(self)
    }
    fn restore_rejected(&self, ids: &[TxId]) {
        crate::shard::ShardedTxTable::restore_rejected(self, ids);
    }
    fn finish(&self) -> (Vec<TxRecord>, HashSet<TxId>) {
        self.drain()
    }
}

/// The Blockbench-style baseline behind the same internally-locked
/// interface: one mutex around the unconfirmed queue (the O(n·m) scan is
/// the point of the baseline) plus its rejected-id set.
struct BatchTracker {
    queue: Mutex<BatchQueue>,
    rejected: Mutex<HashSet<TxId>>,
}

impl BatchTracker {
    fn new() -> Self {
        BatchTracker {
            queue: Mutex::new(BatchQueue::new()),
            rejected: Mutex::new(HashSet::new()),
        }
    }
}

impl Tracker for BatchTracker {
    fn insert(&self, id: TxId, client: u32, server: u32, start: Duration) {
        self.queue.lock().insert(id, client, server, start);
    }
    fn complete(&self, id: &TxId, end: Duration, ok: bool) -> Option<TxRecord> {
        let mut queue = self.queue.lock();
        if queue.complete(id, end, ok) {
            queue.records().last().cloned()
        } else {
            None
        }
    }
    fn complete_block(&self, entries: &[(TxId, bool)], end: Duration, out: &mut Vec<TxRecord>) {
        let mut queue = self.queue.lock();
        for (id, ok) in entries {
            if queue.complete(id, end, *ok) {
                out.extend(queue.records().last().cloned());
            }
        }
    }
    fn abandon(&self, id: &TxId, end: Duration, status: TxStatus) -> bool {
        self.queue.lock().abandon(id, end, status)
    }
    fn reject(&self, id: &TxId, end: Duration) {
        let mut queue = self.queue.lock();
        let _ = queue.complete(id, end, false);
        self.rejected.lock().insert(*id);
    }
    fn pending(&self) -> usize {
        self.queue.lock().pending()
    }
    /// Completed records only: the unconfirmed queue is not included, so
    /// the batch baseline does not support checkpoint/resume (recoverable
    /// runs are restricted to task processing).
    fn snapshot(&self) -> (Vec<TxRecord>, Vec<TxId>) {
        (
            self.queue.lock().records().to_vec(),
            self.rejected.lock().iter().copied().collect(),
        )
    }
    fn restore_rejected(&self, ids: &[TxId]) {
        self.rejected.lock().extend(ids.iter().copied());
    }
    fn finish(&self) -> (Vec<TxRecord>, HashSet<TxId>) {
        let mut queue = self.queue.lock();
        queue.timeout_pending();
        (
            queue.records().to_vec(),
            std::mem::take(&mut self.rejected.lock()),
        )
    }
}

/// Internal: the stall watchdog the monitors consult once per cycle. A
/// run is stalled when its activity signature — submissions, retries,
/// pending count, and the chain's sealed-block progress mark — has not
/// changed for the configured budget of simulated time while work is
/// still pending. On detection it journals a [`hammer_obs::EventKind::Stalled`]
/// event and raises the abort flag so the whole run winds down with a
/// complete report instead of hanging until the drain deadline.
struct StallWatchdog<'a> {
    budget: Duration,
    probe: Arc<dyn SimChain>,
    submitted: &'a AtomicU64,
    retried: &'a AtomicU64,
    abort: &'a AtomicBool,
    stalled: &'a AtomicBool,
    last_sig: (u64, u64, u64, u64),
    last_change: Duration,
}

impl StallWatchdog<'_> {
    /// Returns `true` when the run is stalled and the monitor must exit.
    fn check(&mut self, now: Duration, pending: usize, journal: &hammer_obs::Journal) -> bool {
        let sig = (
            self.submitted.load(Ordering::Relaxed),
            self.retried.load(Ordering::Relaxed),
            pending as u64,
            self.probe.progress_mark(),
        );
        if sig != self.last_sig || pending == 0 {
            self.last_sig = sig;
            self.last_change = now;
            return false;
        }
        if now.saturating_sub(self.last_change) < self.budget {
            return false;
        }
        journal.stalled(now, "driver", self.budget, pending as u64);
        self.stalled.store(true, Ordering::Release);
        self.abort.store(true, Ordering::Release);
        true
    }
}

/// Internal: periodic checkpointing plus the cooperative kill switch,
/// owned by the polling monitor of a recoverable run.
struct CheckpointCtx<'a> {
    store: Arc<KvStore>,
    key: String,
    interval: Duration,
    next_at: Duration,
    kill_at: Option<Duration>,
    killed: &'a AtomicBool,
    abort: &'a AtomicBool,
    retried: &'a AtomicU64,
    workload_seed: u64,
    total: u64,
}

impl CheckpointCtx<'_> {
    /// Returns `true` when the kill switch fired: the monitor must exit
    /// *without* writing a further checkpoint — everything after the last
    /// periodic snapshot is lost, exactly as in a real crash.
    fn observe(
        &mut self,
        now: Duration,
        tracker: &dyn Tracker,
        last_seen: &[u64],
        shard_commits: &Mutex<std::collections::BTreeMap<u32, usize>>,
    ) -> bool {
        if let Some(kill_at) = self.kill_at {
            if now >= kill_at {
                self.killed.store(true, Ordering::Release);
                self.abort.store(true, Ordering::Release);
                return true;
            }
        }
        if now < self.next_at {
            return false;
        }
        while self.next_at <= now {
            self.next_at += self.interval;
        }
        // One call snapshots records *and* rejected ids: the tracker
        // updates both under the same shard lock on rejection and holds
        // every shard lock while copying, so the pair is consistent —
        // a rejection visible in the records always has its id here.
        let (records, rejected_ids) = tracker.snapshot();
        let checkpoint = DriverCheckpoint {
            workload_seed: self.workload_seed,
            total: self.total,
            retried: self.retried.load(Ordering::Relaxed),
            last_seen: last_seen.to_vec(),
            shard_commits: shard_commits
                .lock()
                .iter()
                .map(|(shard, n)| (*shard, *n as u64))
                .collect(),
            rejected_ids,
            records,
        };
        self.store.set(&self.key, checkpoint.to_bytes());
        false
    }
}

/// The evaluation orchestrator.
#[derive(Clone, Debug)]
pub struct Evaluation {
    config: EvalConfig,
}

impl Evaluation {
    /// Creates an evaluation with the given driver configuration.
    pub fn new(config: EvalConfig) -> Self {
        Evaluation { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Runs the full preparation → execution → report flow.
    pub fn run(
        &self,
        deployment: &Deployment,
        workload: &WorkloadConfig,
        control: &ControlSequence,
    ) -> Result<EvalReport, EvalError> {
        self.run_inner(deployment, workload, control, None)
    }

    /// Runs like [`Evaluation::run`], but periodically snapshots the
    /// driver's state (tracker records, counters, monitor heights) into
    /// `recovery.store`. If a checkpoint for `recovery.run_id` already
    /// exists there, the run *resumes* from it instead of starting over:
    /// checkpointed transactions are filtered out of the signed stream,
    /// the tracker and counters are restored, and the monitor rescans the
    /// chain from the checkpointed block heights — so a driver killed
    /// mid-run picks up where its last snapshot left off and the final
    /// report accounts for every transaction exactly once. The checkpoint
    /// is deleted when the run completes.
    ///
    /// Restricted to [`TestingMode::TaskProcessing`] without live sync:
    /// the batch baseline's unconfirmed queue and the interactive mode's
    /// event subscription are not snapshot-able, and the KV→table
    /// pipeline would double-publish restored rows.
    pub fn run_recoverable(
        &self,
        deployment: &Deployment,
        workload: &WorkloadConfig,
        control: &ControlSequence,
        recovery: &RecoveryConfig,
    ) -> Result<EvalReport, EvalError> {
        if self.config.mode != TestingMode::TaskProcessing {
            return Err(EvalError::InvalidConfig(
                "recoverable runs require TestingMode::TaskProcessing".to_owned(),
            ));
        }
        if self.config.live_sync {
            return Err(EvalError::InvalidConfig(
                "recoverable runs cannot use live_sync".to_owned(),
            ));
        }
        if recovery.interval.is_zero() {
            return Err(EvalError::InvalidConfig(
                "checkpoint interval must be positive".to_owned(),
            ));
        }
        self.run_inner(deployment, workload, control, Some(recovery))
    }

    fn run_inner(
        &self,
        deployment: &Deployment,
        workload: &WorkloadConfig,
        control: &ControlSequence,
        recovery: Option<&RecoveryConfig>,
    ) -> Result<EvalReport, EvalError> {
        let wall_start = std::time::Instant::now();
        self.config
            .machine
            .validate()
            .map_err(EvalError::InvalidConfig)?;
        workload
            .validate()
            .map_err(|e| EvalError::InvalidConfig(e.to_string()))?;
        if control.is_empty() || control.total() == 0 {
            return Err(EvalError::InvalidConfig(
                "control sequence has no budget".to_owned(),
            ));
        }
        if self.config.poll_interval.is_zero() {
            return Err(EvalError::InvalidConfig(
                "poll_interval must be positive".to_owned(),
            ));
        }
        if self.config.stall_budget.is_some_and(|b| b.is_zero()) {
            return Err(EvalError::InvalidConfig(
                "stall_budget must be positive".to_owned(),
            ));
        }
        self.config
            .retry
            .validate()
            .map_err(EvalError::InvalidConfig)?;
        if self.config.retry.enabled() {
            // A transaction's retry budget may not outlive the slice that
            // paid for it: a deadline beyond the slice length would let
            // stragglers steal the next slice's budget.
            let deadline = self
                .config
                .retry
                .deadline
                .unwrap_or_else(|| control.slice_duration());
            if deadline > control.slice_duration() {
                return Err(EvalError::InvalidConfig(format!(
                    "retry deadline ({deadline:?}) exceeds the control slice length ({:?})",
                    control.slice_duration()
                )));
            }
        }

        let chain = deployment.client();
        let clock = deployment.clock().clone();
        let dobs = DriverObs::new(deployment.net().obs());

        // Crash recovery: adopt any prior checkpoint for this run id. A
        // checkpoint taken under a different workload or control sequence
        // would resume into a different run — refuse it.
        let checkpoint = recovery.and_then(|r| DriverCheckpoint::load(&r.store, &r.run_id));
        if let Some(cp) = &checkpoint {
            if cp.workload_seed != workload.seed || cp.total != control.total() {
                return Err(EvalError::InvalidConfig(format!(
                    "checkpoint was taken under a different run (seed {} total {}, \
                     this run has seed {} total {})",
                    cp.workload_seed,
                    cp.total,
                    workload.seed,
                    control.total()
                )));
            }
            if cp.last_seen.len() != chain.architecture().shard_count() as usize {
                return Err(EvalError::InvalidConfig(
                    "checkpoint was taken against a chain with a different shard count".to_owned(),
                ));
            }
        }

        // ---- Preparation (Fig. 3, steps 1-3) ----
        let total = control.total() as usize;
        let mut generation_config = workload.clone();
        generation_config.total_txs = total;

        let gen_start = clock.now();
        let unsigned: Vec<Transaction> = match workload.kind {
            WorkloadKind::SmallBank => {
                let mut generator = SmallBankGenerator::new(generation_config);
                for account in generator.accounts() {
                    deployment.seed_account(
                        *account,
                        workload.initial_checking,
                        workload.initial_savings,
                    );
                }
                generator.generate_all()
            }
            WorkloadKind::Ycsb => YcsbGenerator::new(generation_config).generate_all(),
        };
        if dobs.on() && !unsigned.is_empty() {
            // Generation is a batch phase; attribute its cost evenly so the
            // span count matches the transaction count.
            let per_tx = clock.now().saturating_sub(gen_start) / unsigned.len().max(1) as u32;
            for _ in 0..unsigned.len() {
                dobs.obs.spans().record(Stage::Generated, per_tx);
            }
        }

        let keypair = Keypair::from_seed(workload.seed);
        let sign_obs = signer::SignObs::new(&dobs.obs, &clock);
        let signed_rx: Receiver<SignedTransaction> = match self.config.signing {
            SigningStrategy::Pipelined => signer::sign_pipelined_obs(
                unsigned,
                keypair,
                self.config.sig_params,
                self.config.signer_threads,
                sign_obs,
            ),
            SigningStrategy::Serial | SigningStrategy::Async => {
                let signed = match self.config.signing {
                    SigningStrategy::Serial => signer::sign_serial_obs(
                        unsigned,
                        &keypair,
                        &self.config.sig_params,
                        &sign_obs,
                    ),
                    _ => signer::sign_async_obs(
                        unsigned,
                        &keypair,
                        &self.config.sig_params,
                        self.config.signer_threads,
                        &sign_obs,
                    ),
                };
                let (tx_side, rx) = bounded(signed.len().max(1));
                for tx in signed {
                    tx_side.send(tx).expect("channel sized for batch");
                }
                rx
            }
        };

        // ---- Execution (Fig. 3, steps 4-6) ----
        let workers = (workload.clients * workload.threads_per_client).max(1);
        // Contention is per client machine: each client's threads share
        // that client's vCPUs (the paper's clients are separate 2-vCPU
        // instances). Caliper-style interactive testing runs an event
        // listener in every client process, adding one contender.
        let active_threads = match self.config.mode {
            TestingMode::Interactive => workload.threads_per_client + 1,
            _ => workload.threads_per_client,
        };
        // Auto shard count: one per available core, capped — more shards
        // than threads only shrinks the per-shard index.
        let shards = self.config.tracker_shards.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(256)
        });
        let tracker: Arc<dyn Tracker> = match self.config.mode {
            TestingMode::BatchBaseline => Arc::new(BatchTracker::new()),
            _ => Arc::new(crate::shard::ShardedTxTable::new(shards, total)),
        };
        let submitted = AtomicU64::new(0);
        let rejected = AtomicU64::new(0);
        let retried = AtomicU64::new(0);
        let done_submitting = AtomicBool::new(false);
        let drain_deadline: Mutex<Option<Duration>> = Mutex::new(None);
        // Graceful-abort plumbing: the stall watchdog and the kill switch
        // raise `abort`; the pacer and the workers poll it and wind down,
        // leaving in-flight transactions to be reported as timed out.
        let abort = AtomicBool::new(false);
        let stalled = AtomicBool::new(false);
        let killed = AtomicBool::new(false);

        // Interactive mode must subscribe before anything commits.
        let events_rx = match self.config.mode {
            TestingMode::Interactive => Some(chain.subscribe_commits()),
            _ => None,
        };

        // Fig. 2 Redis→MySQL pipeline (steps 4-6), when enabled: statuses
        // flow through per-server KV lists into the Performance table via
        // a background merger.
        let chain_name_for_sync = chain.chain_name().to_owned();
        let kv = Arc::new(KvStore::new());
        let live_table = Arc::new(TableStore::new());
        let merger_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let server_ids: Vec<u32> = (0..workload.threads_per_client.max(1)).collect();
        let merger = if self.config.live_sync {
            let kv = Arc::clone(&kv);
            let table = Arc::clone(&live_table);
            let stop = Arc::clone(&merger_stop);
            let ids = server_ids.clone();
            let name = chain_name_for_sync.clone();
            Some(
                std::thread::Builder::new()
                    .name("hammer-merger".to_owned())
                    .spawn(move || {
                        run_merger(&kv, &table, &name, &ids, Duration::from_millis(5), &stop)
                    })
                    .expect("spawn merger"),
            )
        } else {
            None
        };
        let syncer = self
            .config
            .live_sync
            .then(|| StatusSyncer::new(Arc::clone(&kv), 0));
        let shard_commits: Arc<Mutex<std::collections::BTreeMap<u32, usize>>> =
            Arc::new(Mutex::new(std::collections::BTreeMap::new()));

        // Resume: replay the checkpointed records into the fresh tracker
        // and restore the counters. Terminal records are settled as they
        // were; pending ones stay pending — workers are never interrupted
        // mid-transaction, so every checkpointed record was already handed
        // to the chain, and the monitor's rescan (from the checkpointed
        // heights) re-observes their commits. `submitted` is derived from
        // the record count rather than checkpointed separately: the two
        // are updated by workers without a common lock, so only the
        // records are authoritative.
        let mut initial_last_seen: Option<Vec<u64>> = None;
        let mut known_ids: HashSet<TxId> = HashSet::new();
        if let Some(cp) = &checkpoint {
            let tracker = &*tracker;
            let restored_rejected: HashSet<TxId> = cp.rejected_ids.iter().copied().collect();
            for record in &cp.records {
                known_ids.insert(record.tx_id);
                tracker.insert(
                    record.tx_id,
                    record.client_id,
                    record.server_id,
                    record.start,
                );
                let end = record.end.unwrap_or(record.start);
                match record.status {
                    TxStatus::Pending if restored_rejected.contains(&record.tx_id) => {
                        // The rejection landed in the id set but its
                        // record completion was lost to the crash.
                        let _ = tracker.complete(&record.tx_id, record.start, false);
                    }
                    TxStatus::Pending => {}
                    TxStatus::Committed => {
                        let _ = tracker.complete(&record.tx_id, end, true);
                    }
                    TxStatus::Failed => {
                        let _ = tracker.complete(&record.tx_id, end, false);
                    }
                    status @ (TxStatus::TimedOut | TxStatus::Dropped | TxStatus::Expired) => {
                        let _ = tracker.abandon(&record.tx_id, end, status);
                    }
                }
            }
            submitted.store(cp.records.len() as u64, Ordering::Relaxed);
            rejected.store(cp.rejected_ids.len() as u64, Ordering::Relaxed);
            retried.store(cp.retried, Ordering::Relaxed);
            tracker.restore_rejected(&cp.rejected_ids);
            *shard_commits.lock() = cp
                .shard_commits
                .iter()
                .map(|(shard, n)| (*shard, *n as usize))
                .collect();
            initial_last_seen = Some(cp.last_seen.clone());
        }
        // Transactions the checkpoint already owns are filtered out of
        // the signed stream so the resumed workers only process the rest.
        let signed_rx = if checkpoint.is_some() {
            let known = std::mem::take(&mut known_ids);
            let upstream = signed_rx;
            let (filtered_tx, filtered_rx) = bounded(1024);
            std::thread::Builder::new()
                .name("hammer-resume-filter".to_owned())
                .spawn(move || {
                    for tx in upstream.iter() {
                        if known.contains(&tx.id) {
                            continue;
                        }
                        if filtered_tx.send(tx).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawn resume filter");
            filtered_rx
        } else {
            signed_rx
        };

        // Per-slice budget tokens.
        let (token_tx, token_rx) = bounded::<()>((control.peak() as usize).max(1) * 2 + 16);

        std::thread::scope(|scope| {
            // Pacer: releases each slice's budget on the simulated clock.
            let pacer_clock = clock.clone();
            let pacer_control = control.clone();
            let pacer_abort = &abort;
            scope.spawn(move || {
                for i in 0..pacer_control.len() {
                    // On abort, returning drops the sender, which wakes
                    // any worker blocked on the token stream.
                    if pacer_abort.load(Ordering::Acquire) {
                        return;
                    }
                    for _ in 0..pacer_control.budget(i) {
                        if token_tx.send(()).is_err() {
                            return;
                        }
                    }
                    pacer_clock.sleep(pacer_control.slice_duration());
                }
                // Dropping the sender ends the token stream.
            });

            // Submission workers.
            let retry = self.config.retry;
            let retry_deadline = retry.deadline.unwrap_or_else(|| control.slice_duration());
            let mut worker_handles = Vec::new();
            for _ in 0..workers {
                let token_rx = token_rx.clone();
                let signed_rx = signed_rx.clone();
                let chain = Arc::clone(&chain);
                let clock = clock.clone();
                let tracker = Arc::clone(&tracker);
                let submitted = &submitted;
                let rejected = &rejected;
                let retried = &retried;
                let machine = self.config.machine;
                let dobs = dobs.clone();
                let abort = &abort;
                worker_handles.push(scope.spawn(move || {
                    // Pace by absolute schedule: each worker may submit at
                    // most once per submit_delay of simulated time. An
                    // absolute deadline self-corrects when the host
                    // deschedules the thread (single-core hosts).
                    let mut next_allowed = clock.now();
                    loop {
                        if abort.load(Ordering::Acquire) {
                            return; // stall watchdog or kill switch fired
                        }
                        if token_rx.recv().is_err() {
                            return; // control sequence exhausted
                        }
                        let tx = match signed_rx.recv() {
                            Ok(tx) => tx,
                            Err(_) => return, // workload exhausted
                        };
                        // Client-machine cost of preparing this submission.
                        clock.sleep_until(next_allowed);
                        next_allowed =
                            clock.now().max(next_allowed) + machine.submit_delay(active_threads);
                        let id = tx.id;
                        let client_id = tx.tx.client_id;
                        let server_id = tx.tx.server_id;
                        let start = clock.now();
                        // Register before submitting so a fast commit can
                        // never race past the tracker.
                        tracker.insert(id, client_id, server_id, start);
                        submitted.fetch_add(1, Ordering::Relaxed);
                        dobs.submitted.inc();
                        if !retry.enabled() {
                            // One-shot path, identical to the pre-fault
                            // driver (no clone, no policy consultation).
                            if let Err(e) = chain.submit(tx) {
                                reject_submission(&*tracker, rejected, &id, start, &e);
                            } else if dobs.on() {
                                dobs.obs
                                    .spans()
                                    .record(Stage::Submitted, clock.now().saturating_sub(start));
                            }
                            continue;
                        }
                        // Resilient path: retry transient failures under
                        // the attempt budget and the per-slice deadline.
                        // All decisions go through the error taxonomy
                        // (ErrorKind via is_retryable), never variants.
                        let give_up_at = start + retry_deadline;
                        let mut attempt = 0u32;
                        loop {
                            if abort.load(Ordering::Acquire) {
                                // Graceful abort mid-retry: the record
                                // stays pending and reports as timed out.
                                return;
                            }
                            match chain.submit(tx.clone()) {
                                Ok(_) => {
                                    if dobs.on() {
                                        dobs.obs.spans().record(
                                            Stage::Submitted,
                                            clock.now().saturating_sub(start),
                                        );
                                    }
                                    break;
                                }
                                Err(e) if e.is_retryable() => {
                                    if dobs.on()
                                        && attempt == 0
                                        && e.kind() == ErrorKind::Backpressure
                                    {
                                        // Journal each backpressure episode
                                        // once (at its first attempt), not
                                        // once per retry.
                                        dobs.obs.journal().backpressure(
                                            clock.now(),
                                            &format!("client-{client_id}"),
                                            &e.to_string(),
                                        );
                                    }
                                    // All retry arithmetic goes through
                                    // the policy's pure decision function,
                                    // so tests can replay the exact worker
                                    // behaviour without a chain.
                                    match retry.decide(
                                        attempt,
                                        id.fingerprint(),
                                        clock.now(),
                                        give_up_at,
                                    ) {
                                        RetryDecision::Drop => {
                                            let _ = tracker.abandon(
                                                &id,
                                                clock.now(),
                                                TxStatus::Dropped,
                                            );
                                            dobs.obs.journal().retry_exhausted(
                                                clock.now(),
                                                &format!("client-{client_id}"),
                                                "dropped",
                                                attempt as u64,
                                            );
                                            break;
                                        }
                                        RetryDecision::Expire => {
                                            let _ = tracker.abandon(
                                                &id,
                                                clock.now(),
                                                TxStatus::Expired,
                                            );
                                            dobs.obs.journal().retry_exhausted(
                                                clock.now(),
                                                &format!("client-{client_id}"),
                                                "expired",
                                                attempt as u64,
                                            );
                                            break;
                                        }
                                        RetryDecision::Retry(pause) => {
                                            clock.sleep(pause);
                                            attempt += 1;
                                            retried.fetch_add(1, Ordering::Relaxed);
                                            dobs.retried.inc();
                                            if dobs.on() {
                                                dobs.obs.spans().record(Stage::Retried, pause);
                                            }
                                        }
                                    }
                                }
                                Err(e) => {
                                    reject_submission(&*tracker, rejected, &id, start, &e);
                                    break;
                                }
                            }
                        }
                    }
                }));
            }
            drop(token_rx);
            drop(signed_rx);

            // Monitor.
            let monitor_chain = Arc::clone(&chain);
            let monitor_clock = clock.clone();
            let monitor_tracker = Arc::clone(&tracker);
            let done = &done_submitting;
            let deadline = &drain_deadline;
            let mode = self.config.mode;
            let poll_interval = self.config.poll_interval;
            let listen_cost = self.config.listen_cost;
            let event_buffer = self.config.event_buffer;
            let machine = self.config.machine;
            let monitor_syncer = syncer.clone();
            let monitor_shards = Arc::clone(&shard_commits);
            let monitor_dobs = dobs.clone();
            // The monitor owns fault-transition journaling: it polls the
            // network's fault plan each cycle and journals enter/exit edges.
            let fault_observer = dobs.on().then(|| FaultObserver::new(deployment.net()));
            let watchdog = self.config.stall_budget.map(|budget| StallWatchdog {
                budget,
                probe: Arc::clone(deployment.chain()),
                submitted: &submitted,
                retried: &retried,
                abort: &abort,
                stalled: &stalled,
                last_sig: (0, 0, 0, 0),
                last_change: clock.now(),
            });
            let checkpoint_ctx = recovery.map(|r| CheckpointCtx {
                store: Arc::clone(&r.store),
                key: checkpoint_key(&r.run_id),
                interval: r.interval,
                next_at: clock.now() + r.interval,
                kill_at: r.kill_at,
                killed: &killed,
                abort: &abort,
                retried: &retried,
                workload_seed: workload.seed,
                total: control.total(),
            });
            let monitor_last_seen = initial_last_seen.take();
            let monitor = scope.spawn(move || match mode {
                TestingMode::Interactive => {
                    let rx = events_rx.expect("subscribed above");
                    interactive_monitor(
                        rx,
                        monitor_clock,
                        monitor_tracker,
                        done,
                        deadline,
                        listen_cost,
                        event_buffer,
                        machine,
                        active_threads,
                        monitor_syncer,
                        monitor_shards,
                        monitor_dobs,
                        fault_observer,
                        watchdog,
                    );
                }
                _ => {
                    polling_monitor(
                        monitor_chain,
                        monitor_clock,
                        monitor_tracker,
                        done,
                        deadline,
                        poll_interval,
                        mode,
                        monitor_syncer,
                        monitor_shards,
                        monitor_dobs,
                        fault_observer,
                        watchdog,
                        checkpoint_ctx,
                        monitor_last_seen,
                    );
                }
            });

            for handle in worker_handles {
                handle.join().expect("submission worker panicked");
            }
            *drain_deadline.lock() = Some(clock.now() + self.config.drain_timeout);
            done_submitting.store(true, Ordering::Release);
            monitor.join().expect("monitor panicked");
        });

        if killed.load(Ordering::Acquire) {
            // Simulated crash: no report. The last periodic checkpoint
            // stays in the store for the next run_recoverable call.
            return Err(EvalError::Killed);
        }

        // ---- Report (Fig. 3, step 7) ----
        let index_stats = tracker.index_stats();
        let (mut records, rejected_ids) = tracker.finish();
        // Anything still pending after the drain deadline timed out.
        for record in &mut records {
            if record.status == TxStatus::Pending {
                record.status = TxStatus::TimedOut;
            }
        }

        let chain_name = chain.chain_name().to_owned();
        let mut synced_rows = 0usize;
        let table = if self.config.live_sync {
            // Flush the stragglers (timed-out / rejected-adjacent records
            // never produced a completion event) through the same
            // pipeline, then stop the merger and adopt its table.
            if let Some(syncer) = &syncer {
                for r in records
                    .iter()
                    .filter(|r| !rejected_ids.contains(&r.tx_id))
                    .filter(|r| {
                        matches!(
                            r.status,
                            TxStatus::TimedOut | TxStatus::Dropped | TxStatus::Expired
                        )
                    })
                {
                    syncer.publish(&record_to_status(r));
                }
            }
            merger_stop.store(true, Ordering::Release);
            if let Some(handle) = merger {
                synced_rows = handle.join().expect("merger panicked");
            }
            Arc::try_unwrap(live_table).unwrap_or_else(|arc| {
                // The merger has exited; any remaining Arc clones are gone.
                TableStore::new_from_rows(arc.all_rows())
            })
        } else {
            merger_stop.store(true, Ordering::Release);
            if let Some(handle) = merger {
                handle.join().expect("merger panicked");
            }
            let table = TableStore::new();
            table.insert_batch(
                records
                    .iter()
                    .filter(|r| !rejected_ids.contains(&r.tx_id))
                    .map(|r| PerfRow {
                        tx_id: r.tx_id.fingerprint(),
                        client_id: r.client_id,
                        server_id: r.server_id,
                        chain: chain_name.clone(),
                        start_time: r.start,
                        end_time: r.end,
                        outcome: status_to_outcome(r.status),
                    })
                    .collect(),
            );
            table
        };

        let committed = records
            .iter()
            .filter(|r| r.status == TxStatus::Committed)
            .count();
        let failed = records
            .iter()
            .filter(|r| r.status == TxStatus::Failed && !rejected_ids.contains(&r.tx_id))
            .count();
        let timed_out = records
            .iter()
            .filter(|r| r.status == TxStatus::TimedOut)
            .count();
        let dropped = records
            .iter()
            .filter(|r| r.status == TxStatus::Dropped)
            .count();
        let expired = records
            .iter()
            .filter(|r| r.status == TxStatus::Expired)
            .count();

        let per_shard_committed: Vec<(u32, usize)> = shard_commits
            .lock()
            .iter()
            .map(|(shard, count)| (*shard, *count))
            .collect();
        let first_start = records.iter().map(|r| r.start).min().unwrap_or_default();
        let last_end = records
            .iter()
            .filter_map(|r| r.end)
            .max()
            .unwrap_or(first_start);
        let fault_windows = fault_window_stats(
            deployment.net().fault_plan().as_deref(),
            &records,
            first_start,
            last_end,
        );

        // A recoverable run that reached its report is finished: a later
        // run under the same id starts fresh.
        if let Some(r) = recovery {
            r.store.del(&checkpoint_key(&r.run_id));
        }

        Ok(EvalReport {
            chain: chain_name,
            submitted: submitted.load(Ordering::Relaxed),
            rejected: rejected.load(Ordering::Relaxed),
            retried: retried.load(Ordering::Relaxed),
            dropped,
            expired,
            committed,
            failed,
            timed_out,
            overall_tps: table.overall_tps(),
            latency: table.latency_summary(),
            tps_series: table.tps_series(Duration::from_secs(1)),
            per_client_committed: table.per_client_committed(),
            per_shard_committed,
            sim_duration: last_end.saturating_sub(first_start),
            wall_time: wall_start.elapsed(),
            synced_rows,
            index_stats,
            fault_windows,
            stalled: stalled.load(Ordering::Acquire),
            records,
        })
    }
}

/// Canonical mapping from the submission-error taxonomy to the terminal
/// row outcome the driver records for a transaction the SUT refused.
///
/// This is the one place a [`ChainError`] becomes a [`RowOutcome`]: both
/// submit paths (the one-shot fast path and the resilient path's
/// non-retryable arm) route through it via their shared rejection site,
/// and scenario-layer evidence strings use it to label refusals. The
/// match is exhaustive over [`ErrorKind`] so a new kind forces a mapping
/// decision here instead of at scattered call sites.
pub fn outcome_of(err: &ChainError) -> RowOutcome {
    match err.kind() {
        // The SUT says the transaction can never succeed (bad signature,
        // duplicate, unknown shard): an invalid-transaction failure.
        ErrorKind::Fatal => RowOutcome::Failed,
        // Retryable kinds reach a terminal mapping only when no retry
        // budget applies (retries disabled, or the policy already spent
        // its attempts); the refusal is recorded as a failure, not a
        // timeout — the SUT answered, it just said no.
        ErrorKind::Transient | ErrorKind::Backpressure => RowOutcome::Failed,
        // `ErrorKind` is non-exhaustive: unknown future kinds fall back
        // to the failure row rather than silently vanishing.
        _ => RowOutcome::Failed,
    }
}

/// The single terminal-rejection site shared by both submit paths:
/// counts the rejection and records the row under [`outcome_of`]'s
/// canonical mapping.
fn reject_submission(
    tracker: &dyn Tracker,
    rejected: &AtomicU64,
    id: &TxId,
    start: Duration,
    err: &ChainError,
) {
    rejected.fetch_add(1, Ordering::Relaxed);
    // `Tracker::reject` completes the record as a failed row and retires
    // the id in one shard-lock acquisition — exactly what `outcome_of`
    // prescribes today. Extend the tracker before extending the mapping.
    debug_assert!(
        matches!(outcome_of(err), RowOutcome::Failed),
        "Tracker::reject records Failed; outcome_of now maps {:?} elsewhere",
        err.kind()
    );
    tracker.reject(id, start);
}

/// Maps a tracker status to a Performance-table outcome. `Pending` is
/// defensively mapped to `TimedOut`: the report path converts all pending
/// records before rows are built.
fn status_to_outcome(status: TxStatus) -> RowOutcome {
    match status {
        TxStatus::Committed => RowOutcome::Committed,
        TxStatus::Failed => RowOutcome::Failed,
        TxStatus::Dropped => RowOutcome::Dropped,
        TxStatus::Expired => RowOutcome::Expired,
        TxStatus::TimedOut | TxStatus::Pending => RowOutcome::TimedOut,
    }
}

/// Computes the per-fault-window TPS breakdown: one entry per window of
/// the installed plan, plus a `nominal` entry over the run time outside
/// every window. Empty when no plan is installed (so fault-free reports
/// are unchanged). Overlapping windows each count commits independently;
/// the nominal entry subtracts each window's overlap with the run span,
/// so heavily-overlapping plans can undercount its duration.
fn fault_window_stats(
    plan: Option<&hammer_net::FaultPlan>,
    records: &[TxRecord],
    first_start: Duration,
    last_end: Duration,
) -> Vec<FaultWindowStats> {
    let Some(plan) = plan else {
        return Vec::new();
    };
    if plan.is_empty() {
        return Vec::new();
    }
    let commits: Vec<Duration> = records
        .iter()
        .filter(|r| r.status == TxStatus::Committed)
        .filter_map(|r| r.end)
        .collect();
    let mut stats: Vec<FaultWindowStats> = plan
        .windows()
        .iter()
        .map(|w| {
            let committed = commits
                .iter()
                .filter(|&&end| end >= w.start && end < w.end)
                .count();
            let secs = w.duration().as_secs_f64();
            FaultWindowStats {
                label: w.label.clone(),
                start: w.start,
                end: w.end,
                committed,
                tps: if secs > 0.0 {
                    committed as f64 / secs
                } else {
                    0.0
                },
            }
        })
        .collect();
    let outside = commits
        .iter()
        .filter(|&&end| !plan.windows().iter().any(|w| end >= w.start && end < w.end))
        .count();
    let span = last_end.saturating_sub(first_start);
    let covered: Duration = plan
        .windows()
        .iter()
        .map(|w| w.end.min(last_end).saturating_sub(w.start.max(first_start)))
        .sum();
    let nominal = span.saturating_sub(covered).as_secs_f64();
    stats.push(FaultWindowStats {
        label: "nominal".to_owned(),
        start: first_start,
        end: last_end,
        committed: outside,
        tps: if nominal > 0.0 {
            outside as f64 / nominal
        } else {
            0.0
        },
    });
    stats
}

/// Converts a finished tracker record into a publishable status record.
fn record_to_status(record: &TxRecord) -> StatusRecord {
    StatusRecord {
        tx_fingerprint: record.tx_id.fingerprint(),
        client_id: record.client_id,
        server_id: record.server_id,
        start_ns: record.start.as_nanos() as u64,
        end_ns: record.end.map(|e| e.as_nanos() as u64).unwrap_or(u64::MAX),
        outcome: status_to_outcome(record.status),
    }
}

/// Batch-testing monitor shared by Hammer task processing and the
/// Blockbench baseline. The difference is the end-time source: Algorithm 1
/// records the *block* time; the baseline only knows the *poll* time.
#[allow(clippy::too_many_arguments)]
fn polling_monitor(
    chain: Arc<dyn BlockchainClient>,
    clock: hammer_net::SimClock,
    tracker: Arc<dyn Tracker>,
    done: &AtomicBool,
    deadline: &Mutex<Option<Duration>>,
    poll_interval: Duration,
    mode: TestingMode,
    syncer: Option<StatusSyncer>,
    shard_commits: Arc<Mutex<std::collections::BTreeMap<u32, usize>>>,
    dobs: DriverObs,
    mut fault_observer: Option<FaultObserver>,
    mut watchdog: Option<StallWatchdog<'_>>,
    mut checkpoint: Option<CheckpointCtx<'_>>,
    initial_last_seen: Option<Vec<u64>>,
) {
    let shards = chain.architecture().shard_count();
    let mut last_seen = initial_last_seen.unwrap_or_else(|| vec![0u64; shards as usize]);
    // Set once the drain deadline has passed: one last full scan runs so
    // blocks committed during the final poll window still match before
    // the stragglers are declared timed out.
    let mut final_pass = false;
    // Reused per-block scratch: the block's entries, and the records that
    // completed against them.
    let mut entries: Vec<(TxId, bool)> = Vec::new();
    let mut matched: Vec<TxRecord> = Vec::new();
    loop {
        for shard in 0..shards {
            let height = match chain.latest_height(shard) {
                Ok(h) => h,
                Err(_) => return,
            };
            while last_seen[shard as usize] < height {
                let next = last_seen[shard as usize] + 1;
                last_seen[shard as usize] = next;
                let block = match chain.block_at(shard, next) {
                    Ok(Some(b)) => b,
                    Ok(None) => continue,
                    Err(_) => return,
                };
                let end = match mode {
                    // Algorithm 1: block creation time is the end time.
                    TestingMode::TaskProcessing => block.header.timestamp,
                    // Batch baseline: the poll time stands in (ξ1 skew).
                    _ => clock.now(),
                };
                // Batched fan-out: collect the block's entries once, let
                // the tracker group them by shard and take each shard
                // lock once per block, then post-process the completed
                // records without holding any tracker lock.
                entries.clear();
                entries.extend(block.entries());
                matched.clear();
                tracker.complete_block(&entries, end, &mut matched);
                let mut committed_here = 0usize;
                for record in &matched {
                    if record.status == TxStatus::Committed {
                        committed_here += 1;
                    }
                    if dobs.on() {
                        dobs.obs
                            .spans()
                            .record(Stage::InBlock, end.saturating_sub(record.start));
                        dobs.obs
                            .spans()
                            .record(Stage::Matched, clock.now().saturating_sub(end));
                    }
                    if let Some(syncer) = &syncer {
                        syncer.publish(&record_to_status(record));
                        if dobs.on() {
                            dobs.obs
                                .spans()
                                .record(Stage::Recorded, clock.now().saturating_sub(record.start));
                        }
                    }
                }
                if committed_here > 0 {
                    *shard_commits.lock().entry(shard).or_insert(0) += committed_here;
                }
            }
        }
        if let Some(observer) = fault_observer.as_mut() {
            observer.poll();
        }
        if dobs.on() {
            dobs.pending.set(tracker.pending() as u64);
        }
        if let Some(ctx) = checkpoint.as_mut() {
            if ctx.observe(clock.now(), &*tracker, &last_seen, &shard_commits) {
                return; // killed: exit without a further snapshot
            }
        }
        if let Some(dog) = watchdog.as_mut() {
            // `pending()` sums across shards; the watchdog's activity
            // signature only needs the aggregate to detect a freeze.
            let pending = tracker.pending();
            if dog.check(clock.now(), pending, dobs.obs.journal()) {
                return; // stalled: the abort flag winds the run down
            }
        }
        if done.load(Ordering::Acquire) {
            let pending = tracker.pending();
            if pending == 0 {
                return;
            }
            if final_pass {
                return;
            }
            if let Some(d) = *deadline.lock() {
                if clock.now() >= d {
                    final_pass = true;
                    continue;
                }
            }
        }
        clock.sleep(poll_interval);
    }
}

/// Caliper-style per-event listener.
#[allow(clippy::too_many_arguments)]
fn interactive_monitor(
    rx: Receiver<hammer_chain::client::CommitEvent>,
    clock: hammer_net::SimClock,
    tracker: Arc<dyn Tracker>,
    done: &AtomicBool,
    deadline: &Mutex<Option<Duration>>,
    listen_cost: Duration,
    event_buffer: usize,
    machine: ClientMachine,
    active_threads: u32,
    syncer: Option<StatusSyncer>,
    shard_commits: Arc<Mutex<std::collections::BTreeMap<u32, usize>>>,
    dobs: DriverObs,
    mut fault_observer: Option<FaultObserver>,
    mut watchdog: Option<StallWatchdog<'_>>,
) {
    // The listener time-shares the client machine with the submitters.
    let share = (active_threads.max(1) as f64 / machine.vcpus.max(1) as f64).max(1.0);
    let per_event = listen_cost.mul_f64(share);
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(event) => {
                // A listener that has fallen behind by more than the SDK
                // buffer loses responses — transactions that actually
                // committed never get counted, which is exactly why
                // interactive frameworks under-report under heavy load
                // (paper §V-A).
                if rx.len() > event_buffer {
                    continue;
                }
                // Parsing/handling the response costs client CPU — the
                // resource wastage the paper attributes to interactive
                // testing under heavy load.
                clock.sleep(per_event);
                let record = tracker.complete(&event.tx_id, event.committed_at, event.success);
                if let Some(record) = record {
                    if event.success {
                        *shard_commits.lock().entry(event.shard).or_insert(0) += 1;
                    }
                    if dobs.on() {
                        dobs.obs.spans().record(
                            Stage::InBlock,
                            event.committed_at.saturating_sub(record.start),
                        );
                        dobs.obs.spans().record(
                            Stage::Matched,
                            clock.now().saturating_sub(event.committed_at),
                        );
                    }
                    if let Some(syncer) = &syncer {
                        syncer.publish(&record_to_status(&record));
                        if dobs.on() {
                            dobs.obs
                                .spans()
                                .record(Stage::Recorded, clock.now().saturating_sub(record.start));
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if let Some(observer) = fault_observer.as_mut() {
            observer.poll();
        }
        if dobs.on() {
            dobs.pending.set(tracker.pending() as u64);
        }
        if let Some(dog) = watchdog.as_mut() {
            let pending = tracker.pending();
            if dog.check(clock.now(), pending, dobs.obs.journal()) {
                return; // stalled: the abort flag winds the run down
            }
        }
        if done.load(Ordering::Acquire) {
            let pending = tracker.pending();
            if pending == 0 {
                return;
            }
            if let Some(d) = *deadline.lock() {
                if clock.now() >= d {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{BackendOptions, BackendRegistry};

    fn deploy(backend: &str, speedup: f64) -> Deployment {
        BackendRegistry::builtin()
            .deploy(backend, &BackendOptions::default(), speedup)
            .expect("builtin backend")
    }

    fn small_workload(total: usize) -> WorkloadConfig {
        WorkloadConfig {
            accounts: 50,
            total_txs: total,
            clients: 2,
            threads_per_client: 2,
            ..WorkloadConfig::default()
        }
    }

    fn fast_builder() -> EvalConfigBuilder {
        EvalConfig::builder()
            .poll_interval(Duration::from_millis(20))
            .drain_timeout(Duration::from_secs(30))
    }

    fn fast_config() -> EvalConfig {
        fast_builder().build().expect("fast test config is valid")
    }

    #[test]
    fn evaluates_neuchain_end_to_end() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(100, 3, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(300), &control)
            .unwrap();
        assert_eq!(report.chain, "neuchain-sim");
        assert_eq!(report.submitted, 300);
        assert_eq!(report.committed + report.failed + report.timed_out, 300);
        assert!(report.committed > 250, "committed = {}", report.committed);
        assert!(report.overall_tps > 0.0);
        assert!(report.latency.count > 0);
    }

    #[test]
    fn batch_baseline_also_completes() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(
            fast_builder()
                .mode(TestingMode::BatchBaseline)
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap();
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn interactive_mode_tracks_events() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(
            fast_builder()
                .mode(TestingMode::Interactive)
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap();
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn sharded_chain_evaluated_through_same_driver() {
        let deployment = deploy("meepo-sim", 1000.0);
        let control = ControlSequence::constant(60, 3, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(180), &control)
            .unwrap();
        assert_eq!(report.chain, "meepo-sim");
        assert!(report.committed > 100, "committed = {}", report.committed);
        // Shard-aware load report: both shards carried traffic, and the
        // per-shard counts sum to the committed total.
        assert_eq!(
            report.per_shard_committed.len(),
            2,
            "{:?}",
            report.per_shard_committed
        );
        let total: usize = report.per_shard_committed.iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.committed);
    }

    #[test]
    fn builder_validates_and_builds() {
        let config = EvalConfig::builder()
            .mode(TestingMode::BatchBaseline)
            .signing(SigningStrategy::Async)
            .signer_threads(2)
            .poll_interval(Duration::from_millis(50))
            .retry(RetryPolicy::standard())
            .build()
            .unwrap();
        assert_eq!(config.mode, TestingMode::BatchBaseline);
        assert_eq!(config.signing, SigningStrategy::Async);
        assert_eq!(config.signer_threads, 2);
        assert_eq!(config.retry, RetryPolicy::standard());

        for bad in [
            EvalConfig::builder().signer_threads(0).build(),
            EvalConfig::builder().poll_interval(Duration::ZERO).build(),
            EvalConfig::builder()
                .retry(RetryPolicy {
                    multiplier: 0.5,
                    ..RetryPolicy::standard()
                })
                .build(),
        ] {
            assert!(matches!(bad, Err(EvalError::InvalidConfig(_))), "{bad:?}");
        }
    }

    #[test]
    fn enabled_retry_is_inert_without_faults() {
        // With no fault plan installed the retry policy must never fire:
        // the report carries zero retried/dropped/expired and no
        // fault-window breakdown.
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(
            fast_builder()
                .retry(RetryPolicy::standard())
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap();
        assert_eq!(report.retried, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.expired, 0);
        assert!(report.fault_windows.is_empty());
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn retry_deadline_longer_than_slice_rejected() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let err = Evaluation::new(
            fast_builder()
                .retry(RetryPolicy {
                    deadline: Some(Duration::from_secs(5)),
                    ..RetryPolicy::standard()
                })
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap_err();
        assert!(matches!(err, EvalError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn invalid_retry_policy_rejected() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        // The builder is the only public entry and rejects this policy at
        // build time; mutate a built config directly (pub(crate) fields)
        // to prove the run path re-validates as a second line of defense.
        let mut config = fast_config();
        config.retry = RetryPolicy {
            multiplier: 0.0,
            ..RetryPolicy::standard()
        };
        let err = Evaluation::new(config)
            .run(&deployment, &small_workload(100), &control)
            .unwrap_err();
        assert!(matches!(err, EvalError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn empty_control_sequence_rejected() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::from_budgets(vec![], Duration::from_secs(1));
        let err = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(10), &control)
            .unwrap_err();
        assert!(matches!(err, EvalError::InvalidConfig(_)));
    }

    #[test]
    fn serial_and_pipelined_signing_agree_on_outcomes() {
        for signing in [
            SigningStrategy::Serial,
            SigningStrategy::Async,
            SigningStrategy::Pipelined,
        ] {
            let deployment = deploy("neuchain-sim", 1000.0);
            let control = ControlSequence::constant(40, 2, Duration::from_secs(1));
            let report = Evaluation::new(fast_builder().signing(signing).build().unwrap())
                .run(&deployment, &small_workload(80), &control)
                .unwrap();
            assert!(
                report.committed > 60,
                "{signing:?}: committed = {}",
                report.committed
            );
        }
    }

    #[test]
    fn live_sync_pipeline_matches_direct_path() {
        let control = ControlSequence::constant(60, 3, Duration::from_secs(1));
        let run = |live_sync: bool| {
            let deployment = deploy("neuchain-sim", 500.0);
            Evaluation::new(fast_builder().live_sync(live_sync).build().unwrap())
                .run(&deployment, &small_workload(180), &control)
                .unwrap()
        };
        let direct = run(false);
        let synced = run(true);
        assert_eq!(direct.synced_rows, 0);
        // Every non-rejected record travelled the KV pipeline.
        assert_eq!(
            synced.synced_rows as u64,
            180 - synced.rejected,
            "pipeline dropped rows"
        );
        // Both paths agree on the totals (timing-sensitive metrics like
        // TPS are compared loosely; the runs are separate executions).
        assert_eq!(
            direct.committed + direct.failed + direct.timed_out,
            synced.committed + synced.failed + synced.timed_out
        );
        assert!(synced.committed > 150, "committed = {}", synced.committed);
        assert!(synced.overall_tps > 0.0);
        assert!(synced.latency.count > 0);
    }

    #[test]
    fn ycsb_workload_runs() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let workload = WorkloadConfig {
            kind: WorkloadKind::Ycsb,
            accounts: 100,
            read_ratio: 0.5,
            ..small_workload(100)
        };
        let report = Evaluation::new(fast_config())
            .run(&deployment, &workload, &control)
            .unwrap();
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn report_to_json_is_well_formed() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(40, 2, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(80), &control)
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        // Balanced braces/brackets (no strings in the payload contain
        // either, so a flat count suffices).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"chain\":\"neuchain-sim\"",
            &format!("\"submitted\":{}", report.submitted),
            &format!("\"committed\":{}", report.committed),
            "\"latency\":{",
            "\"tps_series\":[",
            "\"per_shard_committed\":[",
            "\"index_stats\":{",
            "\"fault_windows\":[]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",}") && !json.contains(",]"), "{json}");
    }

    #[test]
    fn fault_window_stats_attributes_commits_exactly() {
        use hammer_net::FaultPlan;
        // Two scripted windows: [2s, 4s) and [6s, 8s). Commit end times are
        // chosen so the attribution is exact: 3 in the first window, 2 in
        // the second, 4 outside both.
        let plan = FaultPlan::new()
            .crash("n0", Duration::from_secs(2), Duration::from_secs(4))
            .latency_spike(
                Duration::from_millis(10),
                Duration::from_secs(6),
                Duration::from_secs(8),
            );
        let rec = |i: u8, end_ms: u64, status: TxStatus| TxRecord {
            tx_id: TxId([i; 32]),
            client_id: 0,
            server_id: 0,
            start: Duration::ZERO,
            end: (status != TxStatus::Pending).then(|| Duration::from_millis(end_ms)),
            status,
        };
        let records = vec![
            // First window: boundary inclusion at the start, exclusion at
            // the end (half-open [start, end)).
            rec(1, 2_000, TxStatus::Committed),
            rec(2, 3_000, TxStatus::Committed),
            rec(3, 3_999, TxStatus::Committed),
            rec(4, 4_000, TxStatus::Committed), // == w1 end: outside
            // Second window.
            rec(5, 6_500, TxStatus::Committed),
            rec(6, 7_000, TxStatus::Committed),
            // Outside both.
            rec(7, 500, TxStatus::Committed),
            rec(8, 1_000, TxStatus::Committed),
            rec(9, 9_000, TxStatus::Committed),
            // Non-committed records never count.
            rec(10, 2_500, TxStatus::Failed),
            rec(11, 0, TxStatus::Pending),
        ];
        let stats = fault_window_stats(
            Some(&plan),
            &records,
            Duration::ZERO,
            Duration::from_secs(9),
        );
        assert_eq!(stats.len(), 3, "{stats:?}");
        assert_eq!(stats[0].label, plan.windows()[0].label);
        assert_eq!(stats[0].committed, 3);
        assert!((stats[0].tps - 1.5).abs() < 1e-9, "{stats:?}");
        assert_eq!(stats[1].label, plan.windows()[1].label);
        assert_eq!(stats[1].committed, 2);
        assert!((stats[1].tps - 1.0).abs() < 1e-9, "{stats:?}");
        // Nominal: 4 commits over the 9s span minus the 4s covered by
        // windows = 5s outside-window time.
        assert_eq!(stats[2].label, "nominal");
        assert_eq!(stats[2].committed, 4);
        assert!((stats[2].tps - 0.8).abs() < 1e-9, "{stats:?}");
        // Every committed record is attributed exactly once.
        let attributed: usize = stats.iter().map(|s| s.committed).sum();
        assert_eq!(attributed, 9);
    }

    #[test]
    fn obs_installed_run_emits_spans_metrics_and_journal() {
        use hammer_obs::EventKind;
        let deployment = deploy("neuchain-sim", 1000.0);
        deployment.net().install_obs(Obs::new());
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(100), &control)
            .unwrap();
        let obs = deployment.net().obs();
        let spans = obs.spans();
        assert_eq!(spans.histogram(Stage::Generated).count(), 100);
        assert_eq!(spans.histogram(Stage::Signed).count(), 100);
        assert!(spans.histogram(Stage::Submitted).count() > 0);
        assert!(spans.histogram(Stage::InBlock).count() >= report.committed as u64);
        assert_eq!(
            spans.histogram(Stage::Matched).count(),
            spans.histogram(Stage::InBlock).count()
        );
        assert_eq!(
            obs.registry()
                .counter("hammer_driver_submitted_total")
                .value(),
            report.submitted
        );
        assert!(
            obs.journal().count_of(EventKind::BlockSeal) > 0,
            "sims should journal block seals"
        );
    }

    #[test]
    fn default_run_keeps_obs_disabled() {
        let deployment = deploy("neuchain-sim", 1000.0);
        let control = ControlSequence::constant(40, 2, Duration::from_secs(1));
        Evaluation::new(fast_config())
            .run(&deployment, &small_workload(80), &control)
            .unwrap();
        let obs = deployment.net().obs();
        assert!(!obs.enabled());
        assert_eq!(obs.spans().histogram(Stage::Signed).count(), 0);
        assert!(obs.journal().is_empty());
    }

    #[test]
    fn control_sequence_paces_submission() {
        // A bursty control sequence should shape the tps series: the
        // burst slice dominates. Run at a modest speed-up so scheduling
        // noise on loaded single-core hosts cannot smear the burst.
        let deployment = deploy("neuchain-sim", 200.0);
        let control = ControlSequence::from_budgets(vec![10, 200, 10], Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(220), &control)
            .unwrap();
        assert!(report.committed > 150);
        let peak = report.tps_series.iter().max().copied().unwrap_or(0);
        let sum: usize = report.tps_series.iter().sum();
        assert!(
            peak * 5 > sum * 2,
            "no burst visible in series {:?}",
            report.tps_series
        );
    }
}
