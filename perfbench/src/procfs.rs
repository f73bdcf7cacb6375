//! Readers for the Linux `/proc` files the benchmark takes CPU and memory
//! figures from, and the thread-role sampler of the traced run.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, fixed
/// at 100 by the Linux user-space ABI).
pub const TICKS_PER_S: f64 = 100.0;

/// Longest thread name the kernel keeps (`TASK_COMM_LEN` minus the NUL).
pub const COMM_LEN: usize = 15;

/// The fields of a `/proc/<pid>/stat` line the benchmark reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Field 2: the thread or process name, without its parentheses.
    pub comm: String,
    /// Field 4: the parent's pid.
    pub ppid: u32,
    /// Fields 14 + 15: user and system CPU in clock ticks.
    pub cpu_ticks: u64,
}

/// Parses one `stat` line. The name may hold spaces and `)`, so the
/// fields after it are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_owned();
    // Field 3 (state) is index 0 here.
    let fields: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let num = |field: usize| -> Option<u64> { fields.get(field - 3)?.parse().ok() };
    Some(Stat {
        comm,
        ppid: num(4)? as u32,
        cpu_ticks: num(14)? + num(15)?,
    })
}

/// Reads and parses `<dir>/stat` (a `/proc/<pid>` or task directory).
pub fn read_stat(dir: &Path) -> Option<Stat> {
    parse_stat(&std::fs::read_to_string(dir.join("stat")).ok()?)
}

/// On-CPU nanoseconds from a `schedstat` line (its first field).
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// The `VmHWM` (peak resident set) of a `status` file, in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Peak resident set of process `dir` in bytes, 0 when unreadable.
pub fn vm_hwm(dir: &Path) -> u64 {
    std::fs::read_to_string(dir.join("status"))
        .ok()
        .and_then(|s| parse_vm_hwm(&s))
        .unwrap_or(0)
}

/// This process's `/proc` directory.
pub fn self_dir() -> PathBuf {
    PathBuf::from(format!("/proc/{}", std::process::id()))
}

/// CPU seconds of process `dir` (all its threads, live and exited).
pub fn cpu_s(dir: &Path) -> f64 {
    read_stat(dir).map_or(0.0, |s| s.cpu_ticks as f64 / TICKS_PER_S)
}

/// Pids of this process's direct children named `comm`.
pub fn children_named(comm: &str) -> Vec<u32> {
    let own = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let entry = entry.ok()?;
        let pid: u32 = entry.file_name().to_str()?.parse().ok()?;
        let stat = read_stat(&entry.path())?;
        (stat.ppid == own && stat.comm == comm).then_some(pid)
    })
    .collect()
}

/// Whether a kernel-truncated `comm` belongs to a thread whose full name
/// starts with `prefix`. Only the first [`COMM_LEN`] bytes of a name
/// survive, so a prefix longer than that is cut to the same length.
pub fn comm_has_prefix(comm: &str, prefix: &str) -> bool {
    let cut = &prefix.as_bytes()[..prefix.len().min(COMM_LEN)];
    comm.as_bytes().starts_with(cut)
}

/// The roles CPU is attributed to in the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// `hammer-signer` threads.
    Signer,
    /// The chain's block producers: `<chain>-sealer-N`, and Fabric's
    /// endorsers, orderer and committer.
    Sealer,
    /// Gossip sinks: `neuchain-block-server-N`, `fabric-peer-N`.
    Gossip,
    /// The simulated network's `sim-net-scheduler`.
    NetScheduler,
    /// `tcp-rpc-conn` connection threads.
    TcpConn,
    /// Unnamed threads, which keep the process name: the benchmark's main
    /// thread running `Evaluation::run`, the pacer, the submit workers and
    /// the monitor.
    Driver,
    /// Every `node-host` thread no other role claims: its main thread,
    /// the accept loop and the RPC dispatch.
    NodeHost,
    /// This benchmark's own `perf-sampler` thread.
    Sampler,
    /// Every other named thread of the driver process.
    Other,
}

impl Role {
    /// Every role, in report order.
    pub const ALL: [Role; 9] = [
        Role::Signer,
        Role::Sealer,
        Role::Gossip,
        Role::NetScheduler,
        Role::TcpConn,
        Role::Driver,
        Role::NodeHost,
        Role::Sampler,
        Role::Other,
    ];

    /// The metric name of the role's CPU seconds.
    pub fn metric(self) -> &'static str {
        match self {
            Role::Signer => "cpu.signer_s",
            Role::Sealer => "cpu.sealer_s",
            Role::Gossip => "cpu.gossip_s",
            Role::NetScheduler => "cpu.net_scheduler_s",
            Role::TcpConn => "cpu.tcp_conn_s",
            Role::Driver => "cpu.driver_s",
            Role::NodeHost => "cpu.node_host_s",
            Role::Sampler => "cpu.sampler_s",
            Role::Other => "cpu.other_s",
        }
    }
}

/// Attributes a thread to a role by its `comm`, in either process.
/// `chain` is the backend's name, `process_comm` the name unnamed driver
/// threads inherit, and `in_node` whether the thread lives in the
/// `node-host` process.
pub fn classify(comm: &str, chain: &str, process_comm: &str, in_node: bool) -> Role {
    let sealer = format!("{chain}-sealer-");
    let is = |prefixes: &[&str]| prefixes.iter().any(|p| comm_has_prefix(comm, p));
    if is(&["tcp-rpc-conn"]) {
        Role::TcpConn
    } else if is(&["hammer-signer"]) {
        Role::Signer
    } else if is(&[
        &sealer,
        "fabric-endorser-",
        "fabric-orderer",
        "fabric-committer",
    ]) {
        Role::Sealer
    } else if is(&["neuchain-block-", "fabric-peer-"]) {
        Role::Gossip
    } else if is(&["sim-net-scheduler"]) {
        Role::NetScheduler
    } else if in_node {
        Role::NodeHost
    } else if is(&[SAMPLER_THREAD]) {
        Role::Sampler
    } else if comm == process_comm {
        Role::Driver
    } else {
        Role::Other
    }
}

/// The name of the sampler's own thread.
const SAMPLER_THREAD: &str = "perf-sampler";

/// One thread's CPU as the sampler last saw it.
struct ThreadSeen {
    role: Role,
    /// On-CPU ns at the first sight (0 for threads born after the start).
    first_ns: u64,
    last_ns: u64,
}

/// Per-thread on-CPU time of the driver process and, when given, the
/// `node-host` process, grouped by role.
struct Sampler {
    chain: String,
    process_comm: String,
    node: Option<PathBuf>,
    seen: HashMap<(bool, u32), ThreadSeen>,
    /// CPU of threads whose tid was reused, banked per role.
    banked: HashMap<Role, u64>,
}

impl Sampler {
    fn sample(&mut self, baseline: bool) {
        let mut dirs = vec![(false, self_dir().join("task"))];
        if let Some(node) = &self.node {
            dirs.push((true, node.join("task")));
        }
        for (in_node, dir) in dirs {
            let Ok(tasks) = std::fs::read_dir(&dir) else {
                continue;
            };
            for task in tasks.flatten() {
                let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let path = task.path();
                let Some(ns) = std::fs::read_to_string(path.join("schedstat"))
                    .ok()
                    .and_then(|s| parse_schedstat(&s))
                else {
                    continue;
                };
                let key = (in_node, tid);
                if let Some(seen) = self.seen.get_mut(&key) {
                    if ns >= seen.last_ns {
                        seen.last_ns = ns;
                        continue;
                    }
                    // A new thread took an exited one's tid.
                    *self.banked.entry(seen.role).or_default() += seen.last_ns - seen.first_ns;
                    self.seen.remove(&key);
                }
                let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
                let role = classify(comm.trim_end(), &self.chain, &self.process_comm, in_node);
                self.seen.insert(
                    key,
                    ThreadSeen {
                        role,
                        first_ns: if baseline { ns } else { 0 },
                        last_ns: ns,
                    },
                );
            }
        }
    }

    fn totals(&self) -> RoleCpu {
        let mut ns = self.banked.clone();
        for seen in self.seen.values() {
            *ns.entry(seen.role).or_default() += seen.last_ns - seen.first_ns;
        }
        RoleCpu {
            seconds: Role::ALL
                .iter()
                .map(|r| (*r, ns.get(r).copied().unwrap_or(0) as f64 / 1e9))
                .collect(),
        }
    }
}

/// CPU seconds per role over a sampled interval.
#[derive(Clone, Debug, Default)]
pub struct RoleCpu {
    /// Seconds per role, every role present.
    pub seconds: Vec<(Role, f64)>,
}

impl RoleCpu {
    /// The seconds of one role.
    pub fn get(&self, role: Role) -> f64 {
        self.seconds
            .iter()
            .find(|(r, _)| *r == role)
            .map_or(0.0, |(_, s)| *s)
    }

    /// The sum over roles.
    pub fn total(&self) -> f64 {
        self.seconds.iter().map(|(_, s)| s).sum()
    }
}

/// A background thread that samples per-thread CPU every `period`, so a
/// thread that exits mid-run loses at most one period of its CPU (that
/// loss shows as unattributed CPU).
pub struct RoleSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Sampler>,
}

impl RoleSampler {
    /// Takes the baseline sample and starts sampling.
    pub fn start(chain: &str, node: Option<PathBuf>, period: Duration) -> RoleSampler {
        let process_comm = std::fs::read_to_string(self_dir().join("comm"))
            .unwrap_or_default()
            .trim_end()
            .to_owned();
        let mut sampler = Sampler {
            chain: chain.to_owned(),
            process_comm,
            node,
            seen: HashMap::new(),
            banked: HashMap::new(),
        };
        sampler.sample(true);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(SAMPLER_THREAD.to_owned())
            .spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    std::thread::sleep(period);
                    sampler.sample(false);
                }
                sampler
            })
            .expect("spawn sampler");
        RoleSampler { stop, handle }
    }

    /// Takes a last sample and returns the CPU per role since the start.
    pub fn finish(self) -> RoleCpu {
        self.stop.store(true, Ordering::Release);
        let mut sampler = self.handle.join().expect("sampler panicked");
        sampler.sample(false);
        sampler.totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_and_parens_in_comm() {
        let line = "4242 (odd ) name) (x) S 17 4242 4242 0 -1 4194560 120 0 0 0 \
                    250 31 7 3 20 0 9 0 1234 5678 90 18446744073709551615";
        let stat = parse_stat(line).unwrap();
        assert_eq!(stat.comm, "odd ) name) (x");
        assert_eq!(stat.ppid, 17);
        assert_eq!(stat.cpu_ticks, 281);
    }

    #[test]
    fn truncated_stat_line_is_refused() {
        assert_eq!(
            parse_stat("1 (init) S 0 1 1 0 -1 4194560 120 0 0 0 250"),
            None
        );
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn own_stat_parses() {
        let stat = read_stat(&self_dir()).unwrap();
        assert_eq!(stat.ppid, std::os::unix::process::parent_id());
        assert!(vm_hwm(&self_dir()) > 0);
    }

    #[test]
    fn schedstat_and_status_fields() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn prefixes_match_the_fifteen_character_comm() {
        // `neuchain-sim-sealer-0` is kept as `neuchain-sim-se`.
        assert!(comm_has_prefix("neuchain-sim-se", "neuchain-sim-sealer-"));
        assert!(comm_has_prefix("sim-net-schedul", "sim-net-scheduler"));
        assert!(comm_has_prefix("hammer-signer", "hammer-signer"));
        assert!(comm_has_prefix("fabric-endorser", "fabric-endorser-"));
        assert!(!comm_has_prefix("fabric-sim-seal", "neuchain-sim-sealer-"));
        assert!(!comm_has_prefix("tcp-rpc-accept", "tcp-rpc-conn"));
        // A prefix shorter than 15 bytes still has to match whole.
        assert!(!comm_has_prefix("hammer-sign", "hammer-signer"));
    }

    #[test]
    fn roles_follow_thread_names() {
        let role = |comm, in_node| classify(comm, "neuchain-sim", "perfbench", in_node);
        assert_eq!(role("neuchain-sim-se", false), Role::Sealer);
        assert_eq!(role("neuchain-block-", false), Role::Gossip);
        assert_eq!(role("hammer-signer", false), Role::Signer);
        assert_eq!(role("sim-net-schedul", false), Role::NetScheduler);
        assert_eq!(role("perfbench", false), Role::Driver);
        assert_eq!(role("node-supervisor", false), Role::Other);
        assert_eq!(role("perf-sampler", false), Role::Sampler);
        assert_eq!(role("tcp-rpc-conn", true), Role::TcpConn);
        assert_eq!(role("neuchain-sim-se", true), Role::Sealer);
        assert_eq!(role("node-host", true), Role::NodeHost);
        assert_eq!(role("tcp-rpc-accept", true), Role::NodeHost);
        let fabric = |comm| classify(comm, "fabric-sim", "perfbench", false);
        assert_eq!(fabric("fabric-sim-seal"), Role::Sealer);
        assert_eq!(fabric("fabric-committer"), Role::Sealer);
        assert_eq!(fabric("fabric-peer-3"), Role::Gossip);
    }

    #[test]
    fn sampler_sees_a_busy_thread() {
        let sampler = RoleSampler::start("none", None, Duration::from_millis(5));
        let worker = std::thread::Builder::new()
            .name("hammer-signer".to_owned())
            .spawn(|| {
                let start = std::time::Instant::now();
                let mut x = 0u64;
                while start.elapsed() < Duration::from_millis(60) {
                    x = x.wrapping_mul(31).wrapping_add(1);
                }
                std::hint::black_box(x);
                // Stay alive past a sample so the CPU is seen.
                std::thread::sleep(Duration::from_millis(30));
            })
            .unwrap();
        worker.join().unwrap();
        let cpu = sampler.finish();
        assert!(cpu.get(Role::Signer) > 0.03, "{cpu:?}");
    }
}
