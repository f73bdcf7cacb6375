//! A timing [`SimChain`] proxy.
//!
//! The benchmark wraps a deployed chain in [`TimingChain`] and hands it
//! back to the driver through the public `Deployment::from_chain`, so the
//! unmodified `Evaluation::run` drives it. Every call is forwarded
//! unchanged. Untraced, the proxy only notes the instant of the first
//! submission; traced, it also times each call at the ingress (submit)
//! and observe (height and block polls) boundaries and keeps what a
//! tracker replay needs.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use hammer::chain::client::{Architecture, BlockchainClient, ChainError, CommitEvent};
use hammer::chain::ledger::LedgerError;
use hammer::chain::state::AccountState;
use hammer::chain::{Address, Block, SignedTransaction, SimChain, TxId};
use hammer::net::SimClock;

/// One submission as the proxy saw it, for the tracker replay.
#[derive(Clone, Copy, Debug)]
pub struct Submission {
    /// The transaction id.
    pub id: TxId,
    /// Submitting client.
    pub client_id: u32,
    /// Submitting worker.
    pub server_id: u32,
    /// Simulated time of the call.
    pub start: Duration,
}

/// The ingress boundary: `submit`.
#[derive(Clone, Debug, Default)]
pub struct Ingress {
    /// Calls made.
    pub calls: u64,
    /// Calls the chain accepted.
    pub accepted: u64,
    /// Wall nanoseconds of each call.
    pub call_ns: Vec<u64>,
    /// Every submission, in call order.
    pub submissions: Vec<Submission>,
}

/// A fetched block, reduced to what the tracker matches on.
#[derive(Clone, Debug)]
pub struct SeenBlock {
    /// `(tx id, valid)` in block order.
    pub entries: Vec<(TxId, bool)>,
    /// The block's timestamp (simulated inclusion time).
    pub timestamp: Duration,
}

/// The observe boundary: `latest_height` and `block_at`.
#[derive(Clone, Debug, Default)]
pub struct Observe {
    /// `latest_height` calls.
    pub height_calls: u64,
    /// Wall time inside `latest_height`.
    pub height_busy: Duration,
    /// `latest_height` calls that returned a height above the last one
    /// seen on that shard.
    pub new_heights: u64,
    /// Highest height seen per shard.
    pub last_height: Vec<u64>,
    /// `block_at` calls.
    pub block_calls: u64,
    /// Wall nanoseconds of each `block_at` call.
    pub block_ns: Vec<u64>,
    /// `block_at` calls that found a block.
    pub blocks_found: u64,
    /// Every block returned.
    pub blocks: Vec<SeenBlock>,
}

/// The genesis seeding loop: first call to end of last call.
#[derive(Clone, Copy, Debug)]
pub struct Seeding {
    /// Accounts seeded.
    pub accounts: u64,
    /// When the first seed call started.
    pub first: Instant,
    /// When the last seed call returned.
    pub last: Instant,
}

/// The timing proxy. See the module docs.
pub struct TimingChain {
    inner: Arc<dyn SimChain>,
    clock: SimClock,
    traced: bool,
    first_submit: OnceLock<Instant>,
    seeding: Mutex<Option<Seeding>>,
    ingress: Mutex<Ingress>,
    observe: Mutex<Observe>,
}

impl TimingChain {
    /// Wraps `inner`; `traced` turns on per-call timing and recording.
    pub fn new(inner: Arc<dyn SimChain>, clock: SimClock, traced: bool) -> Self {
        TimingChain {
            inner,
            clock,
            traced,
            first_submit: OnceLock::new(),
            seeding: Mutex::new(None),
            ingress: Mutex::new(Ingress::default()),
            observe: Mutex::new(Observe::default()),
        }
    }

    /// When the driver made its first submission, if it made one.
    pub fn first_submit(&self) -> Option<Instant> {
        self.first_submit.get().copied()
    }

    /// The seeding loop (traced only).
    pub fn seeding(&self) -> Option<Seeding> {
        *self.seeding.lock().expect("a proxy call panicked")
    }

    /// What the ingress boundary recorded (traced only).
    pub fn take_ingress(&self) -> Ingress {
        std::mem::take(&mut *self.ingress.lock().expect("a proxy call panicked"))
    }

    /// What the observe boundary recorded (traced only).
    pub fn take_observe(&self) -> Observe {
        std::mem::take(&mut *self.observe.lock().expect("a proxy call panicked"))
    }
}

impl BlockchainClient for TimingChain {
    fn chain_name(&self) -> &str {
        self.inner.chain_name()
    }

    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }

    fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
        self.first_submit.get_or_init(Instant::now);
        if !self.traced {
            return self.inner.submit(tx);
        }
        let submission = Submission {
            id: tx.id,
            client_id: tx.tx.client_id,
            server_id: tx.tx.server_id,
            start: self.clock.now(),
        };
        let began = Instant::now();
        let result = self.inner.submit(tx);
        let took = began.elapsed();
        let mut ingress = self.ingress.lock().expect("a proxy call panicked");
        ingress.calls += 1;
        ingress.accepted += result.is_ok() as u64;
        ingress.call_ns.push(took.as_nanos() as u64);
        ingress.submissions.push(submission);
        result
    }

    fn latest_height(&self, shard: u32) -> Result<u64, ChainError> {
        if !self.traced {
            return self.inner.latest_height(shard);
        }
        let began = Instant::now();
        let result = self.inner.latest_height(shard);
        let took = began.elapsed();
        let mut observe = self.observe.lock().expect("a proxy call panicked");
        observe.height_calls += 1;
        observe.height_busy += took;
        if let Ok(height) = result {
            let shard = shard as usize;
            if observe.last_height.len() <= shard {
                observe.last_height.resize(shard + 1, 0);
            }
            if height > observe.last_height[shard] {
                observe.last_height[shard] = height;
                observe.new_heights += 1;
            }
        }
        result
    }

    fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
        if !self.traced {
            return self.inner.block_at(shard, height);
        }
        let began = Instant::now();
        let result = self.inner.block_at(shard, height);
        let took = began.elapsed();
        let mut observe = self.observe.lock().expect("a proxy call panicked");
        observe.block_calls += 1;
        observe.block_ns.push(took.as_nanos() as u64);
        if let Ok(Some(block)) = &result {
            observe.blocks_found += 1;
            observe.blocks.push(SeenBlock {
                entries: block.entries().collect(),
                timestamp: block.header.timestamp,
            });
        }
        result
    }

    fn pending_txs(&self) -> Result<usize, ChainError> {
        self.inner.pending_txs()
    }

    fn subscribe_commits(&self) -> Receiver<CommitEvent> {
        self.inner.subscribe_commits()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

impl SimChain for TimingChain {
    fn seed_account(&self, account: Address, checking: u64, savings: u64) {
        if !self.traced {
            return self.inner.seed_account(account, checking, savings);
        }
        let began = Instant::now();
        self.inner.seed_account(account, checking, savings);
        let ended = Instant::now();
        let mut seeding = self.seeding.lock().expect("a proxy call panicked");
        let s = seeding.get_or_insert(Seeding {
            accounts: 0,
            first: began,
            last: ended,
        });
        s.accounts += 1;
        s.last = ended;
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
