//! Thread affinity: CPU topology discovery and core pinning for the
//! service's long-lived threads.
//!
//! The sharded service runs a fixed cast of threads — per-shard publisher
//! ("writer") threads, epoll reactor threads, request workers and the
//! batch planner's fan-out lanes. Letting the scheduler migrate them costs
//! cache and (on multi-socket hosts) NUMA locality: a shard's publisher
//! rebuilds that shard's snapshot from the pending batch, and the fan-out
//! lane that fills from the snapshot wants to be where those lines are.
//! This module finishes ROADMAP item 1's "core-/NUMA-pinned shard
//! writers": a [`CoreMap`] policy in `ServiceConfig` decides *whether and
//! where* to pin, [`Topology`] discovers what the host offers, and a
//! [`Pinner`] hands cores to threads as they start.
//!
//! Policy resolution order:
//!
//! 1. the `LRB_PIN` environment variable, when set, overrides the config:
//!    `none`/`off` disables pinning, `spread` round-robins over the
//!    discovered cores (NUMA-node-major), and a CPU list like `0,2,4-6`
//!    pins to exactly those cores;
//! 2. otherwise the [`CoreMap`] from `ServiceConfig` applies;
//! 3. the default is [`CoreMap::None`] — pinning is strictly opt-in.
//!
//! **Failure is always graceful.** When `/sys/devices/system/cpu` is
//! unreadable, when a named core does not
//! exist, or when `sched_setaffinity` is denied (e.g. a container's
//! seccomp/cpuset policy), [`Pinner::pin_current`] reports `None` and the
//! thread simply runs unpinned — the service never degrades because the
//! host refuses an affinity mask. [`Pinner::pinned_threads`] exposes how
//! many pins actually took effect (the `lrb_service_pinned_threads`
//! metrics gauge), so a silently-refused policy is visible in telemetry
//! rather than a mystery.
//!
//! The raw `sched_setaffinity` surface lives in the module-scoped
//! `sys` island (`#[allow(unsafe_code)]`), mirroring `reactor::sys`:
//! the crate stays `#![deny(unsafe_code)]` everywhere else.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Where the service's long-lived threads may be pinned.
///
/// The policy is deliberately coarse: pinned threads take cores
/// round-robin from the resolved list in start order (publishers first,
/// then reactors/workers/fan-out lanes as they spawn). With more threads
/// than cores the assignment wraps — two threads sharing a core is still
/// better than all of them migrating.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CoreMap {
    /// No pinning (the default): every thread floats.
    #[default]
    None,
    /// Round-robin over every online core, NUMA-node-major (all of node
    /// 0's cores before node 1's), so consecutive shard writers pack a
    /// node before spilling to the next — shard state stays node-local.
    Spread,
    /// Pin to exactly these core ids, round-robin in the given order.
    /// Unknown ids fail the individual pin gracefully (see module docs).
    Explicit(Vec<usize>),
}

/// One online logical CPU and the NUMA node it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCore {
    /// Logical CPU id (the `N` of `/sys/devices/system/cpu/cpuN`).
    pub id: usize,
    /// NUMA node id (0 on single-node hosts and wherever node information
    /// is unavailable).
    pub node: usize,
}

/// The host's online CPUs, NUMA-node-major. See [`Topology::discover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    cores: Vec<CpuCore>,
}

impl Topology {
    /// Discover the host topology.
    ///
    /// This parses `/sys/devices/system/cpu/online` for the online CPU set
    /// and `/sys/devices/system/node/node*/cpulist` for node membership
    /// (absent node directories mean a single-node host). When sysfs is
    /// unreadable it falls back to `available_parallelism` cores on one
    /// node, which keeps `Spread` meaningful even without sysfs (the pin
    /// itself may still no-op).
    pub fn discover() -> Self {
        Self::from_sysfs("/sys").unwrap_or_else(Self::fallback)
    }

    /// The online cores, NUMA-node-major then id-ascending.
    pub fn cores(&self) -> &[CpuCore] {
        &self.cores
    }

    /// Parse a topology out of a sysfs root (separated from
    /// [`discover`](Self::discover) so tests can point it at a fixture
    /// tree). Returns `None` when the online-CPU file is missing or
    /// unparseable.
    pub fn from_sysfs(root: &str) -> Option<Self> {
        let online = std::fs::read_to_string(format!("{root}/devices/system/cpu/online")).ok()?;
        let online = parse_cpu_list(online.trim())?;
        if online.is_empty() {
            return None;
        }
        // Node membership: node directories are optional (UMA hosts often
        // have none); any CPU not claimed by a node file lands on node 0.
        let mut cores: Vec<CpuCore> = online.iter().map(|&id| CpuCore { id, node: 0 }).collect();
        if let Ok(entries) = std::fs::read_dir(format!("{root}/devices/system/node")) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(node) = name
                    .strip_prefix("node")
                    .and_then(|n| n.parse::<usize>().ok())
                else {
                    continue;
                };
                let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) else {
                    continue;
                };
                let Some(members) = parse_cpu_list(list.trim()) else {
                    continue;
                };
                for core in cores.iter_mut() {
                    if members.contains(&core.id) {
                        core.node = node;
                    }
                }
            }
        }
        cores.sort_by_key(|c| (c.node, c.id));
        Some(Self { cores })
    }

    /// `available_parallelism` cores on one node — the no-sysfs fallback.
    fn fallback() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            cores: (0..n).map(|id| CpuCore { id, node: 0 }).collect(),
        }
    }
}

/// Parse a sysfs CPU list (`"0-3,8,10-11"`) into ascending core ids.
/// Returns `None` on any malformed field — a garbled sysfs reads as "no
/// topology", never as a wrong one.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    if list.is_empty() {
        return Some(cpus);
    }
    for field in list.split(',') {
        let field = field.trim();
        match field.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                if hi < lo {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(field.parse().ok()?),
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    Some(cpus)
}

/// Resolve the effective policy: the `LRB_PIN` environment variable when
/// set (see the module docs for its grammar), else `configured`. An
/// unparseable `LRB_PIN` disables pinning — a typo must not pin threads to
/// surprising cores.
fn effective_policy(configured: &CoreMap) -> CoreMap {
    match std::env::var("LRB_PIN") {
        Ok(value) => {
            let value = value.trim().to_ascii_lowercase();
            match value.as_str() {
                "" => configured.clone(),
                "none" | "off" | "0" => CoreMap::None,
                "spread" => CoreMap::Spread,
                list => parse_cpu_list(list).map_or(CoreMap::None, CoreMap::Explicit),
            }
        }
        Err(_) => configured.clone(),
    }
}

/// Hands cores to the service's long-lived threads as they start.
///
/// Created once per `ServiceCore` from the configured [`CoreMap`] (after
/// the `LRB_PIN` override); every pinned thread calls
/// [`pin_current`](Self::pin_current) on startup. Thread-safe: the
/// round-robin cursor and the success counter are atomics.
#[derive(Debug)]
pub struct Pinner {
    /// The resolved core rotation; empty = pinning disabled.
    cores: Vec<usize>,
    /// Round-robin cursor over `cores`.
    next: AtomicUsize,
    /// Pins that actually took effect (`sched_setaffinity` succeeded).
    pinned: AtomicU64,
}

impl Pinner {
    /// A pinner for `configured`, after applying the `LRB_PIN` override
    /// and discovering the topology (only when the policy needs it).
    pub fn from_config(configured: &CoreMap) -> Self {
        let cores = match effective_policy(configured) {
            CoreMap::None => Vec::new(),
            CoreMap::Spread => Topology::discover().cores().iter().map(|c| c.id).collect(),
            CoreMap::Explicit(cores) => cores,
        };
        Self {
            cores,
            next: AtomicUsize::new(0),
            pinned: AtomicU64::new(0),
        }
    }

    /// A pinner that never pins (the [`CoreMap::None`] fast path).
    pub fn disabled() -> Self {
        Self {
            cores: Vec::new(),
            next: AtomicUsize::new(0),
            pinned: AtomicU64::new(0),
        }
    }

    /// Whether any pinning policy is active (cores were resolved).
    pub fn is_active(&self) -> bool {
        !self.cores.is_empty()
    }

    /// Pin the calling thread to the next core in the rotation. Returns
    /// the core id on success, `None` when pinning is disabled or the
    /// syscall refused the mask (denied, unknown core) — in
    /// every failure mode the thread just keeps running unpinned.
    pub fn pin_current(&self) -> Option<usize> {
        if self.cores.is_empty() {
            return None;
        }
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        let core = self.cores[slot % self.cores.len()];
        if sys::pin_to_core(core) {
            self.pinned.fetch_add(1, Ordering::Relaxed);
            Some(core)
        } else {
            None
        }
    }

    /// How many [`pin_current`](Self::pin_current) calls actually stuck
    /// (the `lrb_service_pinned_threads` gauge).
    pub fn pinned_threads(&self) -> u64 {
        self.pinned.load(Ordering::Relaxed)
    }
}

/// Raw `sched_setaffinity` surface — the audited unsafe island (same
/// pattern as `reactor::sys`; see the module docs for the policy layer).
///
/// Safety argument: the single call passes a stack-owned, fully
/// initialised mask buffer and its exact byte length; `pid = 0` means the
/// calling thread, so no foreign thread or process is touched; the kernel
/// copies the mask in and holds no reference past the call. A failed call
/// returns -1 with `errno` set and changes nothing. No pointers outlive
/// the call, no fds are created.
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::{c_int, c_ulong};

    /// Mask words: `MASK_WORDS * c_ulong::BITS` CPUs (1024 on 64-bit,
    /// matching glibc's default `cpu_set_t`).
    const MASK_WORDS: usize = 1024 / c_ulong::BITS as usize;

    extern "C" {
        /// glibc wrapper; `pid == 0` targets the calling thread.
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    }

    /// Restrict the calling thread to `core`. Returns whether the kernel
    /// accepted the mask; out-of-range ids and denied syscalls are `false`.
    pub(super) fn pin_to_core(core: usize) -> bool {
        let bits = c_ulong::BITS as usize;
        if core >= MASK_WORDS * bits {
            return false;
        }
        let mut mask = [0 as c_ulong; MASK_WORDS];
        mask[core / bits] = 1 << (core % bits);
        // SAFETY: `mask` is a live, initialised stack buffer of exactly
        // `size_of_val(&mask)` bytes; pid 0 = current thread; the kernel
        // copies the buffer and keeps no pointer to it.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        rc == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_ranges_singles_and_junk() {
        assert_eq!(
            parse_cpu_list("0-3,8,10-11"),
            Some(vec![0, 1, 2, 3, 8, 10, 11])
        );
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list("3,1, 2 "), Some(vec![1, 2, 3]));
        assert_eq!(parse_cpu_list(""), Some(Vec::new()));
        assert_eq!(parse_cpu_list("2-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        assert_eq!(parse_cpu_list("1,,2"), None);
    }

    #[test]
    fn sysfs_fixture_topology_is_node_major() {
        let root = std::env::temp_dir().join(format!("lrb-affinity-test-{}", std::process::id()));
        let cpu = root.join("devices/system/cpu");
        let node0 = root.join("devices/system/node/node0");
        let node1 = root.join("devices/system/node/node1");
        std::fs::create_dir_all(&cpu).unwrap();
        std::fs::create_dir_all(&node0).unwrap();
        std::fs::create_dir_all(&node1).unwrap();
        std::fs::write(cpu.join("online"), "0-3\n").unwrap();
        // Interleaved node membership: evens on node 0, odds on node 1.
        std::fs::write(node0.join("cpulist"), "0,2\n").unwrap();
        std::fs::write(node1.join("cpulist"), "1,3\n").unwrap();
        let topo = Topology::from_sysfs(root.to_str().unwrap()).unwrap();
        let ids: Vec<(usize, usize)> = topo.cores().iter().map(|c| (c.node, c.id)).collect();
        assert_eq!(ids, vec![(0, 0), (0, 2), (1, 1), (1, 3)]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn discovery_always_yields_at_least_one_core() {
        // Whatever the host: sysfs or the fallback, never empty.
        assert!(!Topology::discover().cores().is_empty());
    }

    #[test]
    fn disabled_and_unknown_core_pins_are_graceful() {
        let disabled = Pinner::disabled();
        assert!(!disabled.is_active());
        assert_eq!(disabled.pin_current(), None);
        assert_eq!(disabled.pinned_threads(), 0);
        // A core id far beyond any real host: the pin must fail without
        // side effects, and the success counter must stay at zero.
        let bogus = Pinner::from_config(&CoreMap::Explicit(vec![100_000]));
        assert!(bogus.is_active());
        assert_eq!(bogus.pin_current(), None);
        assert_eq!(bogus.pinned_threads(), 0);
    }

    #[test]
    fn pinning_to_a_real_core_sticks_when_permitted() {
        // Pin to the first online core. Containers may deny the syscall;
        // both outcomes are legal, but they must agree with the counter.
        let topo = Topology::discover();
        let first = topo.cores()[0].id;
        let pinner = Pinner::from_config(&CoreMap::Explicit(vec![first]));
        match pinner.pin_current() {
            Some(core) => {
                assert_eq!(core, first);
                assert_eq!(pinner.pinned_threads(), 1);
            }
            None => assert_eq!(pinner.pinned_threads(), 0),
        }
    }
}
