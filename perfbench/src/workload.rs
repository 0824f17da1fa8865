//! The three named workloads and their seed-deterministic inputs: the
//! weight vector, the sparse support positions and the writer's update
//! script. The service only ever sees what these generators produce.

use std::time::Duration;

use lrb_rng::{RandomSource, SplitMix64};

/// Which traffic shape a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Serial single `DRAW`s, one request in flight per connection.
    Single,
    /// `DRAW_BATCH` requests of `batch` draws, one in flight per connection.
    Batch(u32),
    /// Single `DRAW`s pipelined with `window` requests in flight.
    Pipelined(usize),
}

/// Everything that defines one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Categories.
    pub n: usize,
    /// Non-zero categories (`n` for a dense vector).
    pub nonzero: usize,
    pub shards: usize,
    /// Connections issuing draws, each on its own client thread.
    pub readers: usize,
    pub shape: Shape,
    /// Throughput and request latency are taken per window of this
    /// length (long enough for about a thousand requests), then as the
    /// median over the windows.
    pub window: Duration,
    /// WAL durability (`FsyncPolicy::Off`) under a scratch directory.
    pub durable: bool,
    /// Cadence of the concurrent writer; `None` = no writes during the
    /// read window (a closed-loop write probe runs after it instead).
    pub write_every: Option<Duration>,
    /// Length of the closed-loop write probe after the read window of
    /// workloads without a concurrent writer.
    pub probe: Duration,
}

/// Share of the categories one `UPDATE_MANY` touches.
const WRITE_SHARE: f64 = 0.01;
/// Chance that a dense workload's update zeroes its category, so the
/// support moves between versions and the churn check has teeth.
const ZERO_CHANCE: f64 = 0.25;

#[cfg(test)]
pub const NAMES: [&str; 3] = ["wire_single", "batch_sparse", "churn"];

impl Spec {
    /// The full-size workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "wire_single" => Spec {
                name: "wire_single",
                n: 4096,
                nonzero: 4096,
                shards: 4,
                readers: 2,
                shape: Shape::Single,
                window: Duration::from_millis(250),
                durable: false,
                write_every: None,
                probe: Duration::from_secs(3),
            },
            "batch_sparse" => Spec {
                name: "batch_sparse",
                n: 1 << 16,
                nonzero: 256,
                shards: 4,
                readers: 1,
                shape: Shape::Batch(4096),
                window: Duration::from_millis(500),
                durable: false,
                write_every: None,
                probe: Duration::from_secs(3),
            },
            "churn" => Spec {
                name: "churn",
                n: 4096,
                nonzero: 4096,
                shards: 4,
                readers: 1,
                shape: Shape::Pipelined(32),
                window: Duration::from_millis(250),
                durable: true,
                write_every: Some(Duration::from_millis(2)),
                probe: Duration::ZERO,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// A scaled-down copy for smoke tests: same shape, small sizes.
    #[cfg(test)]
    pub fn tiny(mut self) -> Spec {
        self.n /= 16;
        self.nonzero = self.nonzero.min(self.n);
        if let Shape::Batch(b) = self.shape {
            self.shape = Shape::Batch(b / 16);
        }
        self.probe = self.probe.min(Duration::from_millis(100));
        self
    }

    /// Clamp client threads to the host: at most `nproc` reading
    /// connections.
    pub fn fit_to_host(mut self, nproc: usize) -> Spec {
        self.readers = self.readers.min(nproc.max(1));
        self
    }

    /// Draws the server executes together for one unit of this traffic:
    /// one request, or a full pipelined window coalesced into a run.
    pub fn server_batch(&self) -> usize {
        match self.shape {
            Shape::Single => 1,
            Shape::Batch(b) => b as usize,
            Shape::Pipelined(w) => w,
        }
    }

    /// Entries in one `UPDATE_MANY`.
    pub fn write_entries(&self) -> usize {
        ((self.n as f64 * WRITE_SHARE).ceil() as usize).max(1)
    }

    /// The `[start, end)` global range of shard `s`, partitioned the way
    /// `ShardedService` partitions (contiguous, the first `n % shards`
    /// shards one longer).
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        let base = self.n / self.shards;
        let extra = self.n % self.shards;
        let start = s * base + s.min(extra);
        (start, start + base + usize::from(s < extra))
    }
}

/// Independent, named sub-seeds of the workload seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

pub const SEED_WEIGHTS: u64 = 1;
pub const SEED_SCRIPT: u64 = 2;
pub const SEED_SERVER: u64 = 3;
pub const SEED_REPLAY: u64 = 4;

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    (rng.next_f64() * bound as f64) as usize % bound
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// The sorted non-zero positions: `nonzero / shards` distinct positions
/// inside each shard's range, so every shard holds part of the support.
pub fn support(spec: &Spec, seed: u64) -> Vec<usize> {
    if spec.nonzero >= spec.n {
        return (0..spec.n).collect();
    }
    let mut rng = SplitMix64::new(sub_seed(seed, SEED_WEIGHTS) ^ 0x5A);
    let mut positions = Vec::with_capacity(spec.nonzero);
    for s in 0..spec.shards {
        let (start, end) = spec.shard_range(s);
        let take = spec.nonzero / spec.shards + usize::from(s < spec.nonzero % spec.shards);
        let mut range: Vec<usize> = (start..end).collect();
        shuffle(&mut rng, &mut range);
        positions.extend_from_slice(&range[..take.min(range.len())]);
    }
    positions.sort_unstable();
    positions
}

/// Zipf(1) weights over the support, ranks assigned by a seeded
/// permutation; zero everywhere else.
pub fn weights(spec: &Spec, seed: u64) -> Vec<f64> {
    let support = support(spec, seed);
    let mut ranks: Vec<usize> = (0..support.len()).collect();
    let mut rng = SplitMix64::new(sub_seed(seed, SEED_WEIGHTS));
    shuffle(&mut rng, &mut ranks);
    let mut weights = vec![0.0; spec.n];
    for (&position, &rank) in support.iter().zip(&ranks) {
        weights[position] = 1.0 / (rank + 1) as f64;
    }
    weights
}

/// The writer's deterministic stream of `UPDATE_MANY` batches.
///
/// Dense workloads pick categories anywhere and zero a quarter of them,
/// reviving others, so the support changes from version to version.
/// Sparse workloads only reweight their support, so zero stays zero.
pub struct WriteScript {
    rng: SplitMix64,
    base: Vec<f64>,
    support: Vec<usize>,
    entries: usize,
    dense: bool,
}

impl WriteScript {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(sub_seed(seed, SEED_SCRIPT)),
            base: weights(spec, seed),
            support: support(spec, seed),
            entries: spec.write_entries(),
            dense: spec.nonzero >= spec.n,
        }
    }

    pub fn next_batch(&mut self) -> Vec<(usize, f64)> {
        (0..self.entries)
            .map(|_| {
                let index = self.support[below(&mut self.rng, self.support.len())];
                let zero = self.dense && self.rng.next_f64() < ZERO_CHANCE;
                let scale = 0.5 + self.rng.next_f64();
                (index, if zero { 0.0 } else { self.base[index] * scale })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        for name in NAMES {
            let spec = Spec::named(name).unwrap();
            assert_eq!(weights(&spec, 7), weights(&spec, 7), "{name}");
            assert_eq!(support(&spec, 7), support(&spec, 7), "{name}");
            let (mut a, mut b) = (WriteScript::new(&spec, 7), WriteScript::new(&spec, 7));
            for _ in 0..50 {
                assert_eq!(a.next_batch(), b.next_batch(), "{name}");
            }
            assert_ne!(weights(&spec, 7), weights(&spec, 8), "{name}");
        }
    }

    #[test]
    fn sparse_support_spreads_over_every_shard() {
        let spec = Spec::named("batch_sparse").unwrap();
        let w = weights(&spec, 3);
        assert_eq!(w.iter().filter(|&&x| x > 0.0).count(), spec.nonzero);
        for s in 0..spec.shards {
            let (start, end) = spec.shard_range(s);
            let in_shard = w[start..end].iter().filter(|&&x| x > 0.0).count();
            assert_eq!(in_shard, spec.nonzero / spec.shards);
        }
        let mut script = WriteScript::new(&spec, 3);
        for _ in 0..20 {
            for (index, weight) in script.next_batch() {
                assert!(w[index] > 0.0 && weight > 0.0);
            }
        }
    }

    #[test]
    fn dense_scripts_move_the_support() {
        let spec = Spec::named("churn").unwrap();
        let mut script = WriteScript::new(&spec, 5);
        let batch = script.next_batch();
        assert_eq!(batch.len(), spec.write_entries());
        let zeros = (0..20)
            .flat_map(|_| script.next_batch())
            .filter(|&(_, w)| w == 0.0)
            .count();
        assert!(zeros > 0);
    }
}
