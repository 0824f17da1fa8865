//! Quick gate for the `lrb-durable` write-ahead log as wired through the
//! engine's publish path.
//!
//! ```text
//! cargo run -p lrb-bench --release --bin durable_quick [-- --json 1]
//! ```
//!
//! Three checks:
//!
//! 1. **Overhead** — durability must be cheap enough to leave on in the
//!    engine's natural regime (draws dominate publishes: 1024 draws per
//!    16-override publish over 4096 categories). Runs [`GATE_PAIRS`] pairs
//!    of a closed-loop draw+publish driver, [`Durability::Off`] and
//!    [`Durability::Wal`] (fsync off — the gate prices the *append*, not
//!    the disk), 250 ms each. By the [`gate`] rule the arm that runs
//!    first flips from pair to pair, and the gate reads the median pair
//!    ratio of draw throughput against [`MIN_RATIO`].
//! 2. **Recovery** — a WAL of 20 000 publish batches is written without
//!    intermediate checkpoints, then reopened; replay must restore the
//!    exact last version. The WAL size and replay time are recorded beside
//!    it.
//! 3. **Function** — every durable arm actually logged, and the recovered
//!    engine journals a `Recovered` event.
//!
//! The recovery and function checks are conformance margins beside the
//! overhead gate. `--json 1` appends a machine-readable report
//! (`BENCH_durable.json` records the recording host's numbers).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lrb_bench::cli::Options;
use lrb_bench::gate::{self, GateMargin, GATE_PAIRS};
use lrb_engine::{
    Durability, EngineConfig, EngineEvent, FsyncPolicy, PatchPolicy, SelectionEngine, WalOptions,
};
use lrb_rng::Philox4x32;
use serde::Serialize;

/// Bar of the WAL-over-off draw throughput ratio: 0.8–1.0× of the median
/// recorded on the 2-vCPU host (`BENCH_durable.json`).
const MIN_RATIO: f64 = 0.85;
/// Categories of every engine here.
const N: usize = 4096;
/// Draws per publish in the overhead driver.
const DRAWS_PER_PUBLISH: u64 = 1024;
/// Length of each overhead run.
const DURATION_MS: u64 = 250;
/// Publishes in the WAL that recovery replays.
const RECOVERY_PUBLISHES: u64 = 20_000;

/// Machine-readable outcome (`--json 1`).
#[derive(Debug, Serialize)]
struct DurableReport {
    /// Median of `pairs[].ratio`.
    overhead_ratio: f64,
    pairs: Vec<Pair>,
    recovery_publishes: u64,
    recovery_wal_mb: f64,
    recovery_ms: f64,
    margins: Vec<GateMargin>,
}

/// One closed-loop run's outcome.
#[derive(Debug, Serialize)]
struct DriverOutcome {
    samples_per_sec: f64,
    wal_records: u64,
    wal_bytes: u64,
}

/// One off/wal pair and its throughput ratio.
#[derive(Debug, Serialize)]
struct Pair {
    off: DriverOutcome,
    wal: DriverOutcome,
    ratio: f64,
}

/// A scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("lrb-durable-quick-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    /// Total bytes of every file under the directory (WAL + checkpoints).
    fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic engine config for one arm. Fixed backend + no patches,
/// so both arms of a pair do identical in-memory work and the ratio
/// isolates the WAL append.
fn arm_config(durability: Durability) -> EngineConfig {
    EngineConfig {
        backend: "fenwick",
        patch: PatchPolicy::Never,
        durability,
    }
}

/// Run the closed loop: [`DRAWS_PER_PUBLISH`] draws (64 at a time), 16
/// overrides, one publish, repeat until [`DURATION_MS`] elapses.
fn run_driver(seed: u64, durability: Durability) -> DriverOutcome {
    let weights: Vec<f64> = (1..=N).map(|i| 1.0 + (i % 97) as f64).collect();
    let engine = SelectionEngine::new(weights, arm_config(durability)).expect("driver engine");
    let mut rng = Philox4x32::for_substream(seed, 1);
    let mut buffer = vec![0usize; 64];
    let budget = std::time::Duration::from_millis(DURATION_MS);
    let started = Instant::now();
    let mut samples = 0u64;
    let mut round = 0u64;
    while started.elapsed() < budget {
        let mut drawn = 0u64;
        while drawn < DRAWS_PER_PUBLISH {
            let chunk = buffer.len().min((DRAWS_PER_PUBLISH - drawn) as usize);
            engine
                .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer[..chunk]))
                .expect("positive weights sample");
            drawn += chunk as u64;
        }
        samples += drawn;
        for i in 0..16u64 {
            let index = ((round * 16 + i) % N as u64) as usize;
            engine
                .enqueue(index, 1.0 + ((round + i) % 251) as f64)
                .expect("index in range");
        }
        engine.publish().expect("weights stay valid");
        round += 1;
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let obs = engine.observability();
    DriverOutcome {
        samples_per_sec: samples as f64 / elapsed,
        wal_records: obs.wal_records(),
        wal_bytes: obs.wal_bytes(),
    }
}

fn main() -> ExitCode {
    let json = Options::from_env(&["json"]).contains("json");

    println!(
        "durable_quick: n = {N}, {DRAWS_PER_PUBLISH} draws per publish, {DURATION_MS} ms \
         windows, fsync off (pricing the append, not the disk)\n"
    );

    // ---- Check 1: WAL overhead in the draw-dominated regime -------------
    println!("WAL overhead ({GATE_PAIRS} off/wal pairs, median pair ratio):");
    let pairs: Vec<Pair> = (0..GATE_PAIRS)
        .map(|pair| {
            let seed = 2024 + pair as u64;
            let dir = ScratchDir::new(&format!("pair-{pair}"));
            let (off, wal) = gate::alternate(
                pair,
                || run_driver(seed, Durability::Off),
                || {
                    run_driver(
                        seed,
                        Durability::Wal(WalOptions {
                            dir: dir.0.clone(),
                            fsync: FsyncPolicy::Off,
                            checkpoint_every: 0,
                        }),
                    )
                },
            );
            let ratio = wal.samples_per_sec / off.samples_per_sec.max(1.0);
            println!(
                "  off {:>12.0} draws/s   wal {:>12.0} draws/s   ratio {ratio:.4}   \
                 ({} records, {} bytes)",
                off.samples_per_sec, wal.samples_per_sec, wal.wal_records, wal.wal_bytes
            );
            Pair { off, wal, ratio }
        })
        .collect();
    let ratios: Vec<f64> = pairs.iter().map(|pair| pair.ratio).collect();
    let overhead_ratio = gate::median(&ratios);
    println!("  median pair ratio {overhead_ratio:.4} (gate: >= {MIN_RATIO:.2})");
    let every_arm_logged = pairs
        .iter()
        .all(|pair| pair.wal.wal_records > 0 && pair.wal.wal_bytes > 0);

    // ---- Check 2: recovery exactness ------------------------------------
    let dir = ScratchDir::new("recovery");
    let wal_options = WalOptions {
        dir: dir.0.clone(),
        fsync: FsyncPolicy::Off,
        checkpoint_every: 0, // genesis checkpoint only: recovery replays the whole WAL
    };
    {
        let engine = SelectionEngine::new(
            (1..=N).map(|i| i as f64).collect(),
            arm_config(Durability::Wal(wal_options.clone())),
        )
        .expect("recovery writer");
        for round in 0..RECOVERY_PUBLISHES {
            for i in 0..16u64 {
                let index = ((round * 16 + i) % N as u64) as usize;
                engine
                    .enqueue(index, 1.0 + ((round + i) % 251) as f64)
                    .expect("index in range");
            }
            engine.publish().expect("weights stay valid");
        }
    }
    let wal_mb = dir.bytes() as f64 / (1024.0 * 1024.0);
    let reopen_started = Instant::now();
    let recovered = SelectionEngine::new(
        (1..=N).map(|i| i as f64).collect(),
        arm_config(Durability::Wal(wal_options)),
    )
    .expect("recovery reopen");
    let recovery_ms = reopen_started.elapsed().as_secs_f64() * 1e3;
    let journaled_recovery = recovered
        .observability()
        .journal()
        .iter()
        .any(|entry| matches!(entry.event, EngineEvent::Recovered { .. }));
    println!("\nrecovery: {RECOVERY_PUBLISHES} publishes, {wal_mb:.2} MB of WAL");
    println!(
        "  replayed to version {} in {recovery_ms:.1} ms",
        recovered.version()
    );

    let margins = vec![
        GateMargin::at_least("wal_overhead_ratio", overhead_ratio, MIN_RATIO),
        GateMargin::conformance("durable_arms_logged_every_pair", every_arm_logged),
        GateMargin::conformance(
            "recovery_restores_last_version",
            recovered.version() == RECOVERY_PUBLISHES,
        ),
        GateMargin::conformance("recovery_journaled", journaled_recovery),
    ];
    let report = DurableReport {
        overhead_ratio,
        pairs,
        recovery_publishes: RECOVERY_PUBLISHES,
        recovery_wal_mb: wal_mb,
        recovery_ms,
        margins,
    };
    gate::verdict(&report.margins, json.then_some(&report))
}
