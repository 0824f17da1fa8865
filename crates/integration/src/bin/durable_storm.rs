//! Crash-storm child for the kill-and-restore recovery test
//! (`tests/durability_recovery.rs`).
//!
//! Runs the deterministic publish storm from [`lrb_integration::storm`]
//! against a WAL-durable engine rooted at the given directory, printing
//! `publishing` once the engine is up (the parent waits for that line
//! before pulling the trigger) and `done <version>` if it survives the
//! whole storm. The parent SIGKILLs it mid-storm, reopens an engine over
//! the same directory, and checks the recovered state against an oracle
//! that replays the same storm prefix.
//!
//! Usage: `durable_storm <dir> <categories> <publishes> <seed> <checkpoint_every>`

use std::io::Write;

use lrb_engine::{Durability, EngineConfig, FsyncPolicy, PatchPolicy, SelectionEngine, WalOptions};
use lrb_integration::storm;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 6 {
        eprintln!("usage: durable_storm <dir> <categories> <publishes> <seed> <checkpoint_every>");
        std::process::exit(2);
    }
    let dir = &args[1];
    let categories: usize = args[2].parse().expect("categories");
    let publishes: u64 = args[3].parse().expect("publishes");
    let seed: u64 = args[4].parse().expect("seed");
    let checkpoint_every: u64 = args[5].parse().expect("checkpoint_every");

    let config = EngineConfig {
        backend: "fenwick",
        patch: PatchPolicy::Never,
        durability: Durability::Wal(WalOptions {
            dir: dir.into(),
            // SIGKILL does not lose page-cache writes, so the storm can
            // skip fsync and still be recoverable — and run fast enough
            // that the parent's kill lands mid-storm, not after it.
            fsync: FsyncPolicy::Off,
            checkpoint_every,
        }),
        ..EngineConfig::default()
    };
    let engine = SelectionEngine::new(storm::initial_weights(categories), config)
        .expect("storm engine opens");

    // Signal readiness only once the WAL is live; the parent's kill timer
    // starts here.
    println!("publishing");
    std::io::stdout().flush().expect("stdout flush");

    for k in 1..=publishes {
        storm::apply_publish(&engine, seed, k, categories).expect("storm publish");
    }
    println!("done {}", engine.version());
}
