//! Durability and crash-recovery integration tests.
//!
//! Three layers of assurance, bottom-up:
//!
//! 1. **Property tests over injected storage faults** — seeded
//!    [`FaultPlan`] schedules (short writes, torn writes, fsync errors,
//!    bit flips), arbitrary truncation points and arbitrary single-bit
//!    flips all leave a WAL that replays to a *prefix* of the appends
//!    that reported success, without panicking, and that replays clean
//!    after truncation to the reported valid length (recovery invariants
//!    1 and 2 in `lrb-durable`'s crate docs).
//! 2. **Reopen determinism** — an engine reopened over a WAL directory
//!    recovers weights **bit-identical** to an oracle engine that
//!    replayed the same publish sequence in memory, and serves the same
//!    draw sequence (invariant 4). Under the serving config, whose
//!    publishes patch, the reopened engine keeps the pre-crash version,
//!    weight bits and total bits.
//! 3. **Kill-and-restore** — a child process (`durable_storm`) runs a
//!    deterministic publish storm against a WAL-durable engine and is
//!    SIGKILLed mid-storm at several points; the parent reopens the
//!    directory and checks the recovered state against the oracle replay
//!    of exactly the recovered-version prefix. A sharded service reopen
//!    checks the per-shard WAL split the same way.

use std::io::BufRead;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use lrb_durable::{
    replay_with, FaultPlan, FaultyFile, MemFile, ReplayStep, StorageFile, Wal, WalRecord,
};
use lrb_engine::{Durability, EngineConfig, FsyncPolicy, PatchPolicy, SelectionEngine, WalOptions};
use lrb_integration::storm;
use lrb_rng::Philox4x32;
use lrb_service::{ServiceConfig, ShardedService};
use proptest::prelude::*;

const CATEGORIES: usize = 64;
const STORM_SEED: u64 = 0xB1D5_CA5E;

/// A per-test scratch directory under the system temp dir, removed on
/// drop (PID + name keyed, so parallel tests never collide).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("lrb-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The deterministic engine config both the recovered side and the
/// oracle use: the fenwick backend and no patches — every publish rebuilds
/// from the folded weights, as recovery does, so both sides hold the same
/// tree and their draws compare index for index.
fn deterministic_config(durability: Durability) -> EngineConfig {
    EngineConfig {
        backend: "fenwick",
        patch: PatchPolicy::Never,
        durability,
    }
}

fn wal_config(dir: &Path, checkpoint_every: u64) -> EngineConfig {
    deterministic_config(Durability::Wal(WalOptions {
        dir: dir.to_path_buf(),
        // SIGKILL does not lose page-cache writes, so the crash tests
        // exercise recovery without paying a disk flush per publish.
        fsync: FsyncPolicy::Off,
        checkpoint_every,
    }))
}

/// The oracle: a fresh in-memory engine that replays storm publishes
/// `1..=version` and therefore holds the exact state the durable engine
/// must recover.
fn oracle_at(version: u64) -> SelectionEngine {
    let engine = SelectionEngine::new(
        storm::initial_weights(CATEGORIES),
        deterministic_config(Durability::Off),
    )
    .expect("oracle engine");
    for k in 1..=version {
        storm::apply_publish(&engine, STORM_SEED, k, CATEGORIES).expect("oracle publish");
    }
    engine
}

/// Same weight bits, index by index.
fn assert_weight_bits_equal(recovered: &[f64], expected: &[f64]) {
    assert_eq!(recovered.len(), expected.len());
    for (i, (r, o)) in recovered.iter().zip(expected).enumerate() {
        assert_eq!(
            r.to_bits(),
            o.to_bits(),
            "weight {i} diverged after recovery: {r} vs {o}"
        );
    }
}

/// Bit-identical state: same version, same weight bits, same draw
/// sequence under identical RNG streams.
fn assert_states_identical(recovered: &SelectionEngine, oracle: &SelectionEngine) {
    assert_eq!(recovered.version(), oracle.version(), "recovered version");
    assert_weight_bits_equal(
        &recovered.read(|s| s.weights().to_vec()),
        &oracle.read(|s| s.weights().to_vec()),
    );
    for substream in 0..64 {
        let mut recovered_rng = Philox4x32::for_substream(0xD00D, substream);
        let mut oracle_rng = Philox4x32::for_substream(0xD00D, substream);
        assert_eq!(
            recovered
                .sample(&mut recovered_rng)
                .expect("recovered draw"),
            oracle.sample(&mut oracle_rng).expect("oracle draw"),
            "draw diverged on substream {substream}"
        );
    }
}

/// One storm-shaped WAL record for the fault-injection properties.
fn storm_record(version: u64) -> WalRecord {
    WalRecord {
        version,
        scale: if version.is_multiple_of(5) { 0.75 } else { 1.0 },
        overrides: vec![
            (version as usize % CATEGORIES, version as f64 * 1.5),
            (7, 0.25 + version as f64),
        ],
    }
}

proptest! {
    /// Invariants 1 + 2 under a seeded storm of injected faults: appends
    /// that report success and survive uncorrupted replay as a strict
    /// in-order prefix; nothing panics; truncating to the reported valid
    /// length yields a clean log.
    #[test]
    fn prop_faulted_wal_replays_a_valid_prefix(
        seed: u64,
        per_mille in 20u32..400,
    ) {
        let plan = FaultPlan::seeded(seed, 256, per_mille);
        let faulty = FaultyFile::new(MemFile::new(), plan, seed ^ 0xF00D);
        let mut wal = Wal::new(faulty, 0, FsyncPolicy::EveryN(3));
        let mut succeeded = Vec::new();
        for version in 1..=48u64 {
            let record = storm_record(version);
            if wal.append(&record).is_ok() {
                succeeded.push(record);
            }
        }
        let mut disk = wal.file_mut().inner().clone();
        let mut applied = Vec::new();
        let summary = replay_with(&mut disk, |record| {
            applied.push(record.clone());
            ReplayStep::Apply
        }).unwrap();
        // Whatever replays is an in-order prefix of the successful
        // appends — a bit-flipped record stops replay *before* itself.
        prop_assert!(applied.len() <= succeeded.len());
        for (got, expected) in applied.iter().zip(&succeeded) {
            prop_assert_eq!(got, expected);
        }
        // Truncating to the valid prefix makes the log clean again, with
        // the same records.
        disk.set_len(summary.valid_bytes).unwrap();
        let cleaned = replay_with(&mut disk, |_| ReplayStep::Apply).unwrap();
        prop_assert!(cleaned.clean);
        prop_assert_eq!(cleaned.applied, applied.len() as u64);
        prop_assert_eq!(cleaned.truncated_bytes, 0);
    }

    /// A crash can cut the log at *any* byte; the cut log replays to a
    /// prefix of the original records and reports a valid length that
    /// replays clean.
    #[test]
    fn prop_truncation_at_any_byte_recovers_a_prefix(
        records in 1u64..20,
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut wal = Wal::new(MemFile::new(), 0, FsyncPolicy::Off);
        let originals: Vec<WalRecord> = (1..=records).map(storm_record).collect();
        for record in &originals {
            wal.append(record).unwrap();
        }
        let cut = (wal.bytes() as f64 * cut_fraction) as u64;
        let mut disk = wal.file_mut().clone();
        disk.set_len(cut).unwrap();
        let mut applied = Vec::new();
        let summary = replay_with(&mut disk, |record| {
            applied.push(record.clone());
            ReplayStep::Apply
        }).unwrap();
        prop_assert!(summary.valid_bytes <= cut);
        prop_assert_eq!(summary.valid_bytes + summary.truncated_bytes, cut);
        for (got, expected) in applied.iter().zip(&originals) {
            prop_assert_eq!(got, expected);
        }
        disk.set_len(summary.valid_bytes).unwrap();
        prop_assert!(replay_with(&mut disk, |_| ReplayStep::Apply).unwrap().clean);
    }

    /// Silent media corruption: flip any single bit anywhere in the log;
    /// replay must not panic, and every record that replays from before
    /// the damaged byte is byte-identical to the original.
    #[test]
    fn prop_single_bit_flip_never_panics(
        records in 2u64..16,
        flip: u64,
    ) {
        let mut wal = Wal::new(MemFile::new(), 0, FsyncPolicy::Off);
        let originals: Vec<WalRecord> = (1..=records).map(storm_record).collect();
        let mut frame_ends = Vec::new();
        let mut offset = 0u64;
        for record in &originals {
            wal.append(record).unwrap();
            offset += record.frame_bytes() as u64;
            frame_ends.push(offset);
        }
        let mut disk = wal.file_mut().clone();
        let bit = flip % (disk.contents().len() as u64 * 8);
        let flipped_byte = bit / 8;
        disk.contents_mut()[flipped_byte as usize] ^= 1 << (bit % 8);
        let mut applied = Vec::new();
        replay_with(&mut disk, |record| {
            applied.push(record.clone());
            ReplayStep::Apply
        }).unwrap();
        prop_assert!(applied.len() <= originals.len());
        for (i, got) in applied.iter().enumerate() {
            if frame_ends[i] <= flipped_byte {
                prop_assert_eq!(got, &originals[i]);
            }
        }
    }
}

#[test]
fn engine_reopen_matches_oracle_without_crash() {
    let dir = TempDir::new("reopen");
    const PUBLISHES: u64 = 300;
    {
        let engine = SelectionEngine::new(
            storm::initial_weights(CATEGORIES),
            wal_config(dir.path(), 64),
        )
        .expect("durable engine");
        for k in 1..=PUBLISHES {
            storm::apply_publish(&engine, STORM_SEED, k, CATEGORIES).expect("storm publish");
        }
        assert_eq!(engine.version(), PUBLISHES);
    }
    let recovered = SelectionEngine::new(
        storm::initial_weights(CATEGORIES),
        wal_config(dir.path(), 64),
    )
    .expect("recovered engine");
    assert_eq!(recovered.observability().recoveries(), 1);
    assert_states_identical(&recovered, &oracle_at(PUBLISHES));
}

#[test]
fn serving_config_reopen_keeps_version_weights_and_total() {
    // The default config patches whenever the backend's rule says it pays,
    // as every served shard does. Recovery rebuilds, and a rebuilt Fenwick
    // tree may differ from the patched one in its inner sums' last bits,
    // so draws are not compared (`FrozenBackend::try_patch`).
    let dir = TempDir::new("reopen-serving");
    const PUBLISHES: u64 = 300;
    let config = || EngineConfig {
        durability: Durability::Wal(WalOptions {
            dir: dir.path().to_path_buf(),
            fsync: FsyncPolicy::Off,
            checkpoint_every: 64,
        }),
        ..EngineConfig::default()
    };
    let (version, weights, total) = {
        let engine = SelectionEngine::new(storm::initial_weights(CATEGORIES), config())
            .expect("durable engine");
        for k in 1..=PUBLISHES {
            storm::apply_publish(&engine, STORM_SEED, k, CATEGORIES).expect("storm publish");
        }
        assert!(engine.stats().patched > 0, "no storm publish patched");
        engine.read(|s| (s.version(), s.weights().to_vec(), s.total_weight()))
    };
    let recovered = SelectionEngine::new(storm::initial_weights(CATEGORIES), config())
        .expect("recovered engine");
    assert_eq!(recovered.observability().recoveries(), 1);
    assert_eq!(recovered.version(), version);
    assert_weight_bits_equal(&recovered.read(|s| s.weights().to_vec()), &weights);
    assert_eq!(
        recovered.total_weight().to_bits(),
        total.to_bits(),
        "snapshot total diverged after recovery"
    );
}

/// Spawn the `durable_storm` crash child over `dir`.
fn storm_child(dir: &Path, publishes: u64, checkpoint_every: u64) -> Child {
    Command::new(env!("CARGO_BIN_EXE_durable_storm"))
        .arg(dir.as_os_str())
        .arg(CATEGORIES.to_string())
        .arg(publishes.to_string())
        .arg(STORM_SEED.to_string())
        .arg(checkpoint_every.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn durable_storm")
}

/// Block until the child reports its WAL is live (kill timers start at a
/// known point in its lifecycle, not at exec).
fn await_publishing(child: &mut Child) -> BufReader<std::process::ChildStdout> {
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("child readiness line");
    assert_eq!(line.trim(), "publishing");
    reader
}

#[test]
fn uninterrupted_storm_recovers_exactly() {
    const PUBLISHES: u64 = 400;
    let dir = TempDir::new("storm-full");
    let mut child = storm_child(dir.path(), PUBLISHES, 64);
    let mut reader = await_publishing(&mut child);
    let mut done = String::new();
    reader.read_line(&mut done).expect("child done line");
    assert_eq!(done.trim(), format!("done {PUBLISHES}"));
    assert!(child.wait().expect("child exit").success());

    let recovered = SelectionEngine::new(
        storm::initial_weights(CATEGORIES),
        wal_config(dir.path(), 64),
    )
    .expect("recovered engine");
    assert_eq!(recovered.version(), PUBLISHES);
    assert_states_identical(&recovered, &oracle_at(PUBLISHES));
}

#[cfg(unix)]
#[test]
fn sigkilled_storm_recovers_bit_identically() {
    // Far more publishes than any kill delay allows, so the kill always
    // lands mid-storm; checkpoints keep the WAL (and recovery) bounded.
    const PUBLISHES: u64 = 5_000_000;
    const CHECKPOINT_EVERY: u64 = 512;
    let mut total_recovered = 0u64;
    for (run, delay_ms) in [3u64, 15, 45].into_iter().enumerate() {
        let dir = TempDir::new(&format!("storm-kill-{run}"));
        let mut child = storm_child(dir.path(), PUBLISHES, CHECKPOINT_EVERY);
        let _reader = await_publishing(&mut child);
        std::thread::sleep(Duration::from_millis(delay_ms));
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");

        let recovered = SelectionEngine::new(
            storm::initial_weights(CATEGORIES),
            wal_config(dir.path(), CHECKPOINT_EVERY),
        )
        .expect("recovery after SIGKILL");
        let version = recovered.version();
        assert!(version < PUBLISHES, "kill landed after the whole storm");
        total_recovered += version;
        assert_states_identical(&recovered, &oracle_at(version));
    }
    assert!(
        total_recovered > 0,
        "no kill run recovered any publishes — the storm never got going"
    );
}

#[test]
fn sharded_service_recovers_each_shard() {
    let dir = TempDir::new("shards");
    let weights: Vec<f64> = (1..=24).map(f64::from).collect();
    let config = ServiceConfig {
        shards: 3,
        engine: wal_config(dir.path(), 16),
        ..ServiceConfig::default()
    };
    let service = ShardedService::new(weights.clone(), config.clone()).expect("durable service");
    for (index, weight) in [(0usize, 5.0), (7, 0.25), (12, 9.0), (23, 3.5)] {
        service.update(index, weight).expect("update");
    }
    service.scale_all(0.5).expect("scale");
    service.publish_all().expect("publish");
    let totals_before = service.shard_totals();
    drop(service);

    // Each shard owns an independent WAL under its own subdirectory.
    for shard in 0..3 {
        assert!(
            dir.path().join(format!("shard-{shard}")).is_dir(),
            "shard {shard} has no WAL directory"
        );
    }

    let reopened = ShardedService::new(weights, config).expect("recovered service");
    let totals_after = reopened.shard_totals();
    assert_eq!(totals_before.len(), totals_after.len());
    for (shard, (before, after)) in totals_before.iter().zip(&totals_after).enumerate() {
        assert_eq!(
            before.to_bits(),
            after.to_bits(),
            "shard {shard} total diverged after recovery: {before} vs {after}"
        );
    }
}
