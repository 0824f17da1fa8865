//! Serve a sharded selection wheel over a socket and drive it end to end.
//!
//! ```text
//! cargo run --example service_demo
//! ```
//!
//! Builds a 4-shard [`ShardedService`] over 1 000 categories with per-shard
//! publisher threads, fronts it with a [`ServiceServer`] on a Unix-domain
//! socket, then exercises the protocol from a few concurrent
//! [`ServiceClient`]s: single draws, batch draws, weight updates
//! and an evaporation scale. Finishes by printing the merged service
//! metrics (per-shard publish/read histograms included).

use std::time::Duration;

use lrb_service::{ServiceClient, ServiceConfig, ServiceServer, ShardedService};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mildly skewed wheel: weight i+1 for category i.
    let weights: Vec<f64> = (1..=1_000).map(f64::from).collect();
    let service = ShardedService::new(
        weights,
        ServiceConfig {
            shards: 4,
            publish_interval: Some(Duration::from_millis(2)),
            ..ServiceConfig::default()
        },
    )?;

    let path = std::env::temp_dir().join(format!("lrb-service-demo-{}.sock", std::process::id()));
    let server = ServiceServer::bind_uds(service.core(), &path, 42)?;
    println!("serving at {:?}", server.local_addr());

    // A handful of concurrent clients issuing single draws: each draw
    // comes from its connection's own server-side RNG stream.
    let mut readers = Vec::new();
    for _ in 0..4 {
        let addr = server.local_addr().clone();
        readers.push(std::thread::spawn(move || {
            let mut client = ServiceClient::connect(&addr).expect("connect");
            let mut histogram = [0u64; 4];
            for _ in 0..500 {
                let pick = client.draw().expect("draw");
                histogram[pick / 250] += 1;
            }
            histogram
        }));
    }

    // One writer: bump a hot category, evaporate everything else a bit.
    // The per-shard publisher threads make it visible within ~2 ms.
    let mut writer = ServiceClient::connect(server.local_addr())?;
    writer.update(999, 50_000.0)?;
    writer.scale_all(0.9)?;

    let mut quarters = [0u64; 4];
    for reader in readers {
        let counts = reader.join().expect("reader thread");
        for (q, c) in quarters.iter_mut().zip(counts) {
            *q += c;
        }
    }
    println!("draws per quarter of the category space: {quarters:?}");
    println!("(the top quarter dominates: weights grow linearly and 999 got a 50k boost)");

    // Batch draws land on the fused buffer-fill path directly.
    let picks = writer.draw_batch(10_000)?;
    let hot = picks.iter().filter(|&&p| p == 999).count();
    println!("batch of 10k draws hit the boosted category {hot} times");

    let totals = writer.totals()?;
    println!("per-shard totals: {totals:?}");

    let metrics = writer.metrics_json()?;
    println!("\nmerged service metrics (JSON, truncated):");
    let line: String = metrics.chars().take(400).collect();
    println!("{line}…");
    Ok(())
}
