//! One-call SUT deployment (the paper's Ansible role, §III-A1) through
//! the backend registry.
//!
//! "We utilize the Ansible component to develop automated deployment
//! scripts, simplifying the deployment and configuration processes of the
//! blockchain environment. Currently, automated deployment scripts are
//! available for four typical blockchain systems." — [`BackendRegistry`]
//! is the programmatic equivalent: it builds the simulated cluster
//! (clock, network, nodes) for any registered chain *by name* (from
//! config files, CLI flags, or conformance sweeps) and hands back a
//! [`Deployment`] with a ready [`BlockchainClient`]. The driver, `multi`,
//! and the bench binaries never hard-code a constructor.
//!
//! A caller that needs a tuned configuration either registers a builder
//! under the backend's name ([`BackendRegistry::register`] replaces the
//! builtin one) or starts the simulator itself and wraps it with
//! [`Deployment::from_chain`]. Registering a new backend is one
//! `register` call with a builder closure — see `DESIGN.md` §5.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hammer_chain::client::{Architecture, BlockchainClient, ChainError, CommitEvent};
use hammer_chain::kernel::SimChain;
use hammer_chain::ledger::LedgerError;
use hammer_chain::remote::TcpChainClient;
use hammer_chain::state::AccountState;
use hammer_chain::types::{Address, Block, SignedTransaction, TxId};
use hammer_ethereum::{EthereumConfig, EthereumSim};
use hammer_fabric::{FabricConfig, FabricSim};
use hammer_meepo::{MeepoConfig, MeepoSim};
use hammer_net::{
    Fault, FaultPlan, LinkConfig, ReconnectPolicy, SimClock, SimNetwork, TcpClientConfig,
    TcpRpcClient,
};
use hammer_neuchain::{NeuchainConfig, NeuchainSim};
use hammer_rpc::json::Value;
use parking_lot::Mutex;

use crate::retry::RetryPolicy;

/// Backend-agnostic knobs a registry builder applies to whatever config
/// the chain uses internally (conformance suites tighten capacity and
/// stall sealing without knowing any chain's config type).
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendOptions {
    /// Overrides the ingress capacity (mempool / endorsement inbox).
    pub mempool_capacity: Option<usize>,
    /// Makes block production effectively never happen (hour-long
    /// intervals), so pooled transactions stay pooled — used to drive a
    /// bounded ingress to overflow deterministically.
    pub stall_sealing: bool,
}

/// How a registered backend is constructed: from the generic options plus
/// the shared clock and network.
pub type BackendBuilder =
    Box<dyn Fn(&BackendOptions, SimClock, SimNetwork) -> Deployment + Send + Sync>;

/// The name was not registered.
#[derive(Debug)]
pub struct UnknownBackend {
    /// The name that failed to resolve.
    pub name: String,
    /// Every registered name, for the error message.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend {:?} (registered: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

/// How the system under test is deployed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeployMode {
    /// Every chain node runs inside the driver process on the simulated
    /// network (the default; byte-identical with the pre-distributed
    /// framework).
    #[default]
    InProcess,
    /// The chain runs as its own `node-host` OS process behind real TCP;
    /// a [`Supervisor`] owns its lifecycle and realises crash-fault
    /// windows as SIGKILL + restart.
    MultiProcess,
}

impl DeployMode {
    /// Parses the spec/CLI spelling (`in_process` / `multi_process`,
    /// `in` / `multi` accepted as shorthand).
    pub fn parse(s: &str) -> Option<DeployMode> {
        match s {
            "in_process" | "in" => Some(DeployMode::InProcess),
            "multi_process" | "multi" => Some(DeployMode::MultiProcess),
            _ => None,
        }
    }

    /// The canonical spec spelling.
    pub fn name(&self) -> &'static str {
        match self {
            DeployMode::InProcess => "in_process",
            DeployMode::MultiProcess => "multi_process",
        }
    }
}

/// Why a deployment failed: the name is unknown, or (multi-process only)
/// the node process could not be spawned / never became healthy.
#[derive(Debug)]
pub enum DeployError {
    /// The backend name is not registered.
    Unknown(UnknownBackend),
    /// Spawning or health-checking the node process failed.
    Spawn(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Unknown(e) => e.fmt(f),
            DeployError::Spawn(msg) => write!(f, "node process: {msg}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<UnknownBackend> for DeployError {
    fn from(e: UnknownBackend) -> Self {
        DeployError::Unknown(e)
    }
}

/// Wall-clock knobs for the node-process [`Supervisor`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Explicit path to the `node-host` binary. `None` resolves via the
    /// `HAMMER_NODE_HOST` environment variable, then next to the current
    /// executable (and its parent directory, covering test binaries in
    /// `target/<profile>/deps/`).
    pub node_host: Option<PathBuf>,
    /// How long to wait for the `LISTENING` handshake plus the first
    /// successful health check.
    pub health_timeout: Duration,
    /// Supervision loop cadence (crash-window edges land within a tick).
    pub tick: Duration,
    /// Base restart backoff after a failed respawn; doubles per
    /// consecutive failure.
    pub restart_backoff: Duration,
    /// Upper clamp on the restart backoff.
    pub max_restart_backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            node_host: None,
            health_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(10),
            restart_backoff: Duration::from_millis(50),
            max_restart_backoff: Duration::from_secs(1),
        }
    }
}

/// Finds the `node-host` binary per [`SupervisorConfig::node_host`].
fn resolve_node_host(explicit: Option<&PathBuf>) -> Result<PathBuf, DeployError> {
    if let Some(path) = explicit {
        return Ok(path.clone());
    }
    if let Some(env) = std::env::var_os("HAMMER_NODE_HOST") {
        return Ok(PathBuf::from(env));
    }
    let exe = std::env::current_exe()
        .map_err(|e| DeployError::Spawn(format!("cannot locate current executable: {e}")))?;
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join("node-host");
        if candidate.is_file() {
            return Ok(candidate);
        }
        // Test binaries live in target/<profile>/deps/; the bin is one
        // level up. Stop at the target dir.
        if d.file_name().is_some_and(|n| n == "target") {
            break;
        }
        dir = d.parent();
    }
    Err(DeployError::Spawn(
        "cannot find the node-host binary: set HAMMER_NODE_HOST or build it \
         (cargo build --bin node-host)"
            .to_owned(),
    ))
}

/// Lifecycle stats for one supervised node process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessFaultStats {
    /// SIGKILLs delivered for crash-fault windows.
    pub kills: u64,
    /// Successful restarts (crash-window exits and unexpected deaths).
    pub restarts: u64,
}

struct SupervisorShared {
    binary: PathBuf,
    backend: String,
    options: BackendOptions,
    speedup: f64,
    clock: SimClock,
    addr: SocketAddr,
    config: SupervisorConfig,
    child: Mutex<Option<Child>>,
    /// Genesis allocations to replay into a fresh process incarnation.
    seeds: Mutex<Vec<(u64, u64, u64)>>,
    plan: Mutex<Option<FaultPlan>>,
    /// Crash windows extracted from the plan (the supervisor realises
    /// these as SIGKILL; other fault kinds are the node's own business).
    crash_windows: Mutex<Vec<(Duration, Duration)>>,
    rpc: TcpRpcClient,
    stop: AtomicBool,
    kills: AtomicU64,
    restarts: AtomicU64,
}

impl SupervisorShared {
    /// Spawns a fresh node process on the supervisor's fixed port and
    /// waits for the `LISTENING` handshake. The caller must hold no
    /// `child` lock.
    fn spawn_process(&self) -> Result<(), DeployError> {
        let mut cmd = Command::new(&self.binary);
        cmd.arg("--backend")
            .arg(&self.backend)
            .arg("--port")
            .arg(self.addr.port().to_string())
            .arg("--speedup")
            .arg(self.speedup.to_string())
            .arg("--epoch-offset-ms")
            .arg(self.clock.now().as_millis().to_string());
        if let Some(capacity) = self.options.mempool_capacity {
            cmd.arg("--mempool-capacity").arg(capacity.to_string());
        }
        if self.options.stall_sealing {
            cmd.arg("--stall-sealing");
        }
        // stdin stays piped so our death closes it and the node exits
        // (the node-host's own orphan guard); stdout carries the
        // handshake; stderr flows through for diagnostics.
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| DeployError::Spawn(format!("spawn {:?}: {e}", self.binary)))?;

        let stdout = child
            .stdout
            .take()
            .expect("stdout was requested piped above");
        let (tx, rx) = crossbeam::channel::bounded(1);
        std::thread::Builder::new()
            .name("node-host-handshake".to_owned())
            .spawn(move || {
                let mut line = String::new();
                let mut reader = std::io::BufReader::new(stdout);
                let _ = reader.read_line(&mut line);
                let _ = tx.send(line);
            })
            .expect("failed to spawn handshake reader");
        match rx.recv_timeout(self.config.health_timeout) {
            Ok(line) if line.trim().starts_with("LISTENING") => {}
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(DeployError::Spawn(match other {
                    Ok(line) => format!("bad handshake line {line:?}"),
                    Err(_) => format!(
                        "no LISTENING handshake within {:?}",
                        self.config.health_timeout
                    ),
                }));
            }
        }
        *self.child.lock() = Some(child);
        Ok(())
    }

    /// Replays recorded genesis seeds and the fault plan into a freshly
    /// spawned process.
    fn replay_state(&self) -> Result<(), DeployError> {
        let seeds = self.seeds.lock().clone();
        for (account, checking, savings) in seeds {
            self.call_checked(
                "seed_account",
                Value::object([
                    ("account", Value::from(account.to_string())),
                    ("checking", Value::from(checking)),
                    ("savings", Value::from(savings)),
                ]),
            )?;
        }
        let plan = self.plan.lock().clone();
        if let Some(plan) = plan {
            self.call_checked("install_faults", plan.to_value())?;
        }
        Ok(())
    }

    fn call_checked(&self, method: &str, params: Value) -> Result<Value, DeployError> {
        self.rpc
            .call(method, params)
            .map_err(|e| DeployError::Spawn(format!("{method}: {e}")))?
            .map_err(|e| DeployError::Spawn(format!("{method}: {e}")))
    }

    /// Whether the child is currently running (reaps a just-exited one).
    fn child_alive(&self) -> bool {
        let mut guard = self.child.lock();
        match guard.as_mut() {
            None => false,
            Some(child) => match child.try_wait() {
                Ok(None) => true,
                // Exited (status available) or unprobeable: treat as dead
                // and drop the handle so the wait() above reaped it.
                _ => {
                    *guard = None;
                    false
                }
            },
        }
    }

    /// SIGKILLs the child, reaping it. Idempotent.
    fn kill_child(&self) {
        let child = self.child.lock().take();
        if let Some(mut child) = child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The crash window (if any) covering `now`.
fn in_crash_window(windows: &[(Duration, Duration)], now: Duration) -> bool {
    windows.iter().any(|(s, e)| now >= *s && now < *e)
}

/// Owns one `node-host` process: deploy → capture (handshake + health
/// check) → execute (the run, with crash windows realised as SIGKILL and
/// restart-with-backoff) → cleanup (kill + reap on shutdown or drop, so
/// no child outlives the driver, panics included).
pub struct Supervisor {
    shared: Arc<SupervisorShared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("backend", &self.shared.backend)
            .field("addr", &self.shared.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Supervisor {
    /// Spawns and health-checks a `node-host` for `backend`, then starts
    /// the supervision loop.
    pub fn launch(
        backend: &str,
        options: &BackendOptions,
        clock: SimClock,
        config: SupervisorConfig,
    ) -> Result<Arc<Supervisor>, DeployError> {
        let binary = resolve_node_host(config.node_host.as_ref())?;
        // A fixed port keeps the driver's client address stable across
        // restarts: probe a free one, release it, tell the node to bind
        // it. (Loopback-local; the tiny bind race is acceptable here.)
        let probe = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| DeployError::Spawn(format!("port probe: {e}")))?;
        let addr = probe
            .local_addr()
            .map_err(|e| DeployError::Spawn(format!("port probe: {e}")))?;
        drop(probe);

        let rpc = TcpRpcClient::new(
            addr,
            TcpClientConfig {
                connect_timeout: Duration::from_millis(500),
                ..TcpClientConfig::default()
            },
            // The supervisor's control channel rides out restarts it
            // causes itself.
            ReconnectPolicy {
                max_attempts: 20,
                base_backoff: Duration::from_millis(10),
                multiplier: 1.5,
                max_backoff: Duration::from_millis(200),
            },
        );
        let shared = Arc::new(SupervisorShared {
            binary,
            backend: backend.to_owned(),
            options: *options,
            speedup: clock.speedup(),
            clock,
            addr,
            config,
            child: Mutex::new(None),
            seeds: Mutex::new(Vec::new()),
            plan: Mutex::new(None),
            crash_windows: Mutex::new(Vec::new()),
            rpc,
            stop: AtomicBool::new(false),
            kills: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        });
        shared.spawn_process()?;
        // First health check: the chain must answer before the
        // deployment is handed to the driver.
        let deadline = Instant::now() + shared.config.health_timeout;
        loop {
            match shared.rpc.call("chain_name", Value::Null) {
                Ok(Ok(_)) => break,
                _ if Instant::now() >= deadline => {
                    shared.kill_child();
                    return Err(DeployError::Spawn(format!(
                        "node on {} never answered a health check",
                        shared.addr
                    )));
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("node-supervisor".to_owned())
            .spawn(move || supervise_loop(loop_shared))
            .expect("failed to spawn supervisor thread");
        Ok(Arc::new(Supervisor {
            shared,
            thread: Mutex::new(Some(thread)),
        }))
    }

    /// The node's TCP address (stable across restarts).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Records a genesis allocation for replay into restarted
    /// incarnations (the deployment forwards the live call itself).
    pub fn record_seed(&self, account: Address, checking: u64, savings: u64) {
        self.shared
            .seeds
            .lock()
            .push((account.0, checking, savings));
    }

    /// Stores the fault plan, forwards it to the node (blackhole /
    /// partition / latency windows act on the node's own simulated
    /// network), and arms the crash windows this supervisor realises as
    /// SIGKILL + restart.
    pub fn install_plan(&self, plan: FaultPlan) -> Result<(), DeployError> {
        let crashes: Vec<(Duration, Duration)> = plan
            .windows()
            .iter()
            .filter(|w| matches!(w.fault, Fault::Crash { .. }))
            .map(|w| (w.start, w.end))
            .collect();
        self.shared
            .call_checked("install_faults", plan.to_value())?;
        *self.shared.plan.lock() = Some(plan);
        *self.shared.crash_windows.lock() = crashes;
        Ok(())
    }

    /// Every endpoint registered on the node's own simulated network —
    /// the full topology, not just the discovered fault targets.
    pub fn endpoint_names(&self) -> Result<Vec<String>, DeployError> {
        let names = self.shared.call_checked("endpoint_names", Value::Null)?;
        names
            .as_array()
            .and_then(|list| {
                list.iter()
                    .map(|v| v.as_str().map(str::to_owned))
                    .collect::<Option<Vec<String>>>()
            })
            .ok_or_else(|| DeployError::Spawn("endpoint_names: expected a string list".to_owned()))
    }

    /// Kill/restart counters.
    pub fn stats(&self) -> ProcessFaultStats {
        ProcessFaultStats {
            kills: self.shared.kills.load(Ordering::Relaxed),
            restarts: self.shared.restarts.load(Ordering::Relaxed),
        }
    }

    /// Whether the node process is currently alive.
    pub fn node_alive(&self) -> bool {
        self.shared.child_alive()
    }

    /// Stops the supervision loop and reaps the node process. Idempotent;
    /// called by `Drop` (panic-safe: an unwinding test still reaps its
    /// children).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        self.shared.kill_child();
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The supervision loop: SIGKILL inside crash windows, restart (with
/// seed/plan replay and exponential backoff) outside them.
fn supervise_loop(shared: Arc<SupervisorShared>) {
    let mut backoff = shared.config.restart_backoff;
    let mut next_restart = Instant::now();
    while !shared.stop.load(Ordering::SeqCst) {
        let now = shared.clock.now();
        let crashed = in_crash_window(&shared.crash_windows.lock(), now);
        if crashed {
            if shared.child_alive() {
                shared.kill_child();
                shared.kills.fetch_add(1, Ordering::Relaxed);
            }
        } else if !shared.child_alive() && Instant::now() >= next_restart {
            match shared.spawn_process().and_then(|()| shared.replay_state()) {
                Ok(()) => {
                    shared.restarts.fetch_add(1, Ordering::Relaxed);
                    backoff = shared.config.restart_backoff;
                }
                Err(_) => {
                    // The port may linger in TIME_WAIT or the machine may
                    // be briefly out of resources: back off and retry.
                    shared.kill_child();
                    next_restart = Instant::now() + backoff;
                    backoff = (backoff * 2).min(shared.config.max_restart_backoff);
                }
            }
        }
        std::thread::sleep(shared.config.tick);
    }
}

/// The driver-facing handle of a multi-process deployment: a
/// [`TcpChainClient`] that additionally records genesis seeds into the
/// supervisor so restarts can replay them.
struct SupervisedChain {
    inner: Arc<TcpChainClient>,
    supervisor: Arc<Supervisor>,
}

impl BlockchainClient for SupervisedChain {
    fn chain_name(&self) -> &str {
        self.inner.chain_name()
    }
    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }
    fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
        self.inner.submit(tx)
    }
    fn latest_height(&self, shard: u32) -> Result<u64, ChainError> {
        self.inner.latest_height(shard)
    }
    fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
        self.inner.block_at(shard, height)
    }
    fn pending_txs(&self) -> Result<usize, ChainError> {
        self.inner.pending_txs()
    }
    fn subscribe_commits(&self) -> crossbeam::channel::Receiver<CommitEvent> {
        self.inner.subscribe_commits()
    }
    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

impl SimChain for SupervisedChain {
    fn seed_account(&self, account: Address, checking: u64, savings: u64) {
        self.supervisor.record_seed(account, checking, savings);
        self.inner.seed_account(account, checking, savings);
    }
    fn account(&self, account: Address) -> Option<AccountState> {
        self.inner.account(account)
    }
    fn ingress_nodes(&self) -> Vec<String> {
        self.inner.ingress_nodes()
    }
    fn sealer_nodes(&self) -> Vec<String> {
        self.inner.sealer_nodes()
    }
    fn verify_ledgers(&self) -> Result<(), LedgerError> {
        self.inner.verify_ledgers()
    }
    fn progress_mark(&self) -> u64 {
        self.inner.progress_mark()
    }
}

/// The driver-side reconnect policy for a multi-process deployment,
/// derived from the run's [`RetryPolicy`]: sim-time backoffs scale to
/// wall time, so at high speedups the TCP client fails fast and the
/// sim-time-aware retry machinery governs pacing. A disabled retry
/// policy means a single connection attempt per call.
pub fn reconnect_policy_for(policy: &RetryPolicy, clock: &SimClock) -> ReconnectPolicy {
    if !policy.enabled() {
        return ReconnectPolicy::none();
    }
    // Never fully zero: a sub-millisecond wall backoff busy-spins against
    // a connection-refused loopback port.
    let floor = Duration::from_millis(1);
    ReconnectPolicy {
        max_attempts: policy.max_retries,
        base_backoff: clock.to_wall(policy.base_backoff).max(floor),
        multiplier: policy.multiplier,
        max_backoff: clock.to_wall(policy.max_backoff).max(floor),
    }
}

/// Name → builder map for every deployable backend. [`BackendRegistry::builtin`]
/// holds the paper's four systems; [`BackendRegistry::register`] adds new
/// ones (a custom [`hammer_chain::kernel::ConsensusPolicy`] wrapped in a
/// builder closure — see `examples/custom_chain.rs`).
pub struct BackendRegistry {
    builders: Vec<(String, BackendBuilder)>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

const STALL_INTERVAL: std::time::Duration = std::time::Duration::from_secs(3600);

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BackendRegistry {
            builders: Vec::new(),
        }
    }

    /// A registry holding the paper's four systems under their display
    /// names, in Fig. 6 order.
    pub fn builtin() -> Self {
        let mut registry = Self::new();
        registry.register("ethereum-sim", |opts, clock, net| {
            let mut config = EthereumConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.mempool_capacity = capacity;
            }
            if opts.stall_sealing {
                config.block_interval = STALL_INTERVAL;
            }
            Deployment::from_chain(
                EthereumSim::start(config, clock.clone(), net.clone()),
                clock,
                net,
            )
        });
        registry.register("fabric-sim", |opts, clock, net| {
            let mut config = FabricConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.inbox_capacity = capacity;
            }
            if opts.stall_sealing {
                // Fabric's pool is the endorsement inbox: stalling the
                // endorsers keeps it full.
                config.endorse_cost = STALL_INTERVAL;
            }
            Deployment::from_chain(
                FabricSim::start(config, clock.clone(), net.clone()),
                clock,
                net,
            )
        });
        registry.register("meepo-sim", |opts, clock, net| {
            let mut config = MeepoConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.mempool_capacity = capacity;
            }
            if opts.stall_sealing {
                config.epoch_interval = STALL_INTERVAL;
            }
            Deployment::from_chain(
                MeepoSim::start(config, clock.clone(), net.clone()),
                clock,
                net,
            )
        });
        registry.register("neuchain-sim", |opts, clock, net| {
            let mut config = NeuchainConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.mempool_capacity = capacity;
            }
            if opts.stall_sealing {
                config.epoch_interval = STALL_INTERVAL;
            }
            Deployment::from_chain(
                NeuchainSim::start(config, clock.clone(), net.clone()),
                clock,
                net,
            )
        });
        registry
    }

    /// Registers (or replaces) a backend under `name`.
    pub fn register(
        &mut self,
        name: &str,
        builder: impl Fn(&BackendOptions, SimClock, SimNetwork) -> Deployment + Send + Sync + 'static,
    ) {
        if let Some(slot) = self.builders.iter_mut().find(|(n, _)| n == name) {
            slot.1 = Box::new(builder);
        } else {
            self.builders.push((name.to_owned(), Box::new(builder)));
        }
    }

    /// Every registered backend name, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.builders.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Deploys `name` on a fresh simulated network at `speedup`×.
    pub fn deploy(
        &self,
        name: &str,
        opts: &BackendOptions,
        speedup: f64,
    ) -> Result<Deployment, UnknownBackend> {
        let clock = SimClock::with_speedup(speedup);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        self.deploy_on(name, opts, clock, net)
    }

    /// Deploys `name` on an existing clock/network.
    pub fn deploy_on(
        &self,
        name: &str,
        opts: &BackendOptions,
        clock: SimClock,
        net: SimNetwork,
    ) -> Result<Deployment, UnknownBackend> {
        match self.builders.iter().find(|(n, _)| n == name) {
            Some((_, builder)) => Ok(builder(opts, clock, net)),
            None => Err(self.unknown(name)),
        }
    }

    fn unknown(&self, name: &str) -> UnknownBackend {
        UnknownBackend {
            name: name.to_owned(),
            known: self.names().iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Deploys `name` as its own `node-host` OS process behind real TCP,
    /// supervised for crash-fault realisation (SIGKILL + restart).
    ///
    /// `clock`/`net` are the *driver-side* clock and network: the node
    /// process runs its own simulated network internally, but its node
    /// names are registered on the local `net` so fault-target resolution,
    /// fault-plan validation and attribution all work exactly as in
    /// in-process mode.
    pub fn deploy_multi(
        &self,
        name: &str,
        opts: &BackendOptions,
        clock: SimClock,
        net: SimNetwork,
        supervisor_config: SupervisorConfig,
        reconnect: ReconnectPolicy,
    ) -> Result<Deployment, DeployError> {
        if !self.names().contains(&name) {
            return Err(self.unknown(name).into());
        }
        let supervisor = Supervisor::launch(name, opts, clock.clone(), supervisor_config)?;
        let inner =
            TcpChainClient::connect(supervisor.addr(), TcpClientConfig::default(), reconnect)
                .map_err(|e| {
                    supervisor.shutdown();
                    DeployError::Spawn(format!("connect to node: {e}"))
                })?;
        // Mirror the node's full topology onto the local network so
        // ChaosTargets placeholders and partition `rest` groups resolve,
        // and try_install_faults validates, exactly as in-process.
        // Endpoint registration persists after the handles drop.
        let names = supervisor
            .endpoint_names()
            .inspect_err(|_| supervisor.shutdown())?;
        let local = net.endpoint_names();
        for node in names {
            if !local.contains(&node) {
                let _ = net.register(&node);
            }
        }
        let chain = Arc::new(SupervisedChain {
            inner,
            supervisor: Arc::clone(&supervisor),
        });
        let mut deployment = Deployment::from_chain(chain, clock, net);
        deployment.supervisor = Some(supervisor);
        Ok(deployment)
    }
}

/// A running SUT: in-process on the simulated network, or a supervised
/// `node-host` OS process behind real TCP.
pub struct Deployment {
    client: Arc<dyn BlockchainClient>,
    chain: Arc<dyn SimChain>,
    clock: SimClock,
    net: SimNetwork,
    supervisor: Option<Arc<Supervisor>>,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("chain", &self.client().chain_name())
            .finish()
    }
}

impl Deployment {
    /// Wraps any started [`SimChain`] (built-in or custom policy) as a
    /// deployment.
    pub fn from_chain<T: SimChain + 'static>(
        chain: Arc<T>,
        clock: SimClock,
        net: SimNetwork,
    ) -> Self {
        Deployment {
            client: Arc::clone(&chain) as Arc<dyn BlockchainClient>,
            chain: chain as Arc<dyn SimChain>,
            clock,
            net,
            supervisor: None,
        }
    }

    /// The generic client handle the driver programs against.
    pub fn client(&self) -> Arc<dyn BlockchainClient> {
        Arc::clone(&self.client)
    }

    /// The deployment-facing chain surface: seeding, state reads,
    /// fault-target discovery, ledger audits.
    pub fn chain(&self) -> &Arc<dyn SimChain> {
        &self.chain
    }

    /// Seeds an account with initial balances (genesis allocation — the
    /// preparation-phase fixture the paper's client installs).
    pub fn seed_account(&self, account: Address, checking: u64, savings: u64) {
        self.chain.seed_account(account, checking, savings);
    }

    /// The simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The simulated network (resource monitoring reads its counters).
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// The node-process supervisor, if this is a multi-process deployment.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// Installs a fault plan on this deployment, whatever its mode.
    ///
    /// The plan always lands on the local simulated network (attribution
    /// and the fault journal read it from there). In multi-process mode it
    /// is additionally armed on the supervisor, which realises crash
    /// windows as SIGKILL of the actual node process and forwards the
    /// full plan to the node for its internal network.
    pub fn install_faults(&self, plan: FaultPlan) -> Result<(), String> {
        self.net
            .try_install_faults(plan.clone())
            .map_err(|e| e.to_string())?;
        if let Some(supervisor) = &self.supervisor {
            supervisor.install_plan(plan).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Stops block production (and, in multi-process mode, reaps the node
    /// process).
    pub fn down(&self) {
        self.client.shutdown();
        if let Some(supervisor) = &self.supervisor {
            supervisor.shutdown();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_reaches_the_chain() {
        let deployment = BackendRegistry::builtin()
            .deploy("fabric-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let account = Address::from_name("seeded");
        deployment.seed_account(account, 123, 456);
        assert_eq!(deployment.chain().account(account).unwrap().checking, 123);
        assert_eq!(deployment.client().pending_txs().unwrap(), 0);
    }

    #[test]
    fn registry_deploys_by_name() {
        let registry = BackendRegistry::builtin();
        assert_eq!(
            registry.names(),
            vec!["ethereum-sim", "fabric-sim", "meepo-sim", "neuchain-sim"]
        );
        for name in registry.names() {
            let deployment = registry
                .deploy(name, &BackendOptions::default(), 1000.0)
                .unwrap();
            assert_eq!(deployment.client().chain_name(), name);
            assert_eq!(deployment.client().latest_height(0).unwrap(), 0);
            deployment.down();
        }
    }

    #[test]
    fn registry_rejects_unknown_names() {
        let registry = BackendRegistry::builtin();
        let err = registry
            .deploy("tendermint", &BackendOptions::default(), 1000.0)
            .unwrap_err();
        assert!(err.to_string().contains("tendermint"));
        assert!(err.to_string().contains("neuchain-sim"));
    }

    #[test]
    fn registry_applies_generic_options() {
        use hammer_chain::client::ErrorKind;
        use hammer_chain::smallbank::Op;
        use hammer_chain::types::Transaction;
        use hammer_crypto::sig::SigParams;
        use hammer_crypto::Keypair;

        let registry = BackendRegistry::builtin();
        let opts = BackendOptions {
            mempool_capacity: Some(2),
            stall_sealing: true,
        };
        let deployment = registry.deploy("neuchain-sim", &opts, 1000.0).unwrap();
        let client = deployment.client();
        let mut saw_backpressure = false;
        for nonce in 0..10 {
            let tx = Transaction {
                client_id: 0,
                server_id: 0,
                nonce,
                op: Op::KvGet { key: nonce },
                chain_name: "neuchain-sim".to_owned(),
                contract_name: "smallbank".to_owned(),
            }
            .sign(&Keypair::from_seed(3), &SigParams::fast());
            if let Err(err) = client.submit(tx) {
                assert_eq!(err.kind(), ErrorKind::Backpressure);
                saw_backpressure = true;
                break;
            }
        }
        assert!(saw_backpressure, "capacity override not applied");
        deployment.down();
    }

    #[test]
    fn deploy_mode_spellings_roundtrip() {
        for mode in [DeployMode::InProcess, DeployMode::MultiProcess] {
            assert_eq!(DeployMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(DeployMode::parse("multi"), Some(DeployMode::MultiProcess));
        assert_eq!(DeployMode::parse("in"), Some(DeployMode::InProcess));
        assert_eq!(DeployMode::parse("remote"), None);
        assert_eq!(DeployMode::default(), DeployMode::InProcess);
    }

    #[test]
    fn reconnect_policy_scales_sim_backoffs_to_wall_time() {
        let clock = SimClock::with_speedup(100.0);
        let policy = RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(400),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(2),
            ..RetryPolicy::standard()
        };
        let reconnect = reconnect_policy_for(&policy, &clock);
        assert_eq!(reconnect.max_attempts, 4);
        assert_eq!(reconnect.base_backoff, Duration::from_millis(4));
        assert_eq!(reconnect.max_backoff, Duration::from_millis(20));

        // Sub-millisecond wall backoffs clamp up so a dead port is not
        // busy-spun against.
        let fast = reconnect_policy_for(&policy, &SimClock::with_speedup(1_000_000.0));
        assert!(fast.base_backoff >= Duration::from_millis(1));

        let none = reconnect_policy_for(&RetryPolicy::disabled(), &clock);
        assert_eq!(none.max_attempts, ReconnectPolicy::none().max_attempts);
    }

    #[test]
    fn crash_window_membership_is_half_open() {
        let windows = vec![
            (Duration::from_secs(1), Duration::from_secs(2)),
            (Duration::from_secs(5), Duration::from_secs(6)),
        ];
        assert!(!in_crash_window(&windows, Duration::from_millis(999)));
        assert!(in_crash_window(&windows, Duration::from_secs(1)));
        assert!(in_crash_window(&windows, Duration::from_millis(1999)));
        assert!(!in_crash_window(&windows, Duration::from_secs(2)));
        assert!(in_crash_window(&windows, Duration::from_millis(5500)));
        assert!(!in_crash_window(&windows, Duration::from_secs(7)));
    }

    #[test]
    fn deploy_multi_rejects_unknown_backend_without_spawning() {
        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let err = BackendRegistry::builtin()
            .deploy_multi(
                "tendermint",
                &BackendOptions::default(),
                clock,
                net,
                SupervisorConfig::default(),
                ReconnectPolicy::none(),
            )
            .unwrap_err();
        assert!(matches!(err, DeployError::Unknown(_)), "{err}");
    }

    #[test]
    fn missing_node_host_binary_is_a_spawn_error() {
        let config = SupervisorConfig {
            node_host: Some(PathBuf::from("/nonexistent/node-host")),
            ..SupervisorConfig::default()
        };
        let err = Supervisor::launch(
            "neuchain-sim",
            &BackendOptions::default(),
            SimClock::with_speedup(1000.0),
            config,
        )
        .unwrap_err();
        assert!(matches!(err, DeployError::Spawn(_)), "{err}");
    }
}
