//! Flat-combining draw aggregator: concurrent single-draw requests are
//! coalesced into batches so they hit the engine's fused buffer-fill path
//! ([`Snapshot::sample_into`](lrb_engine::Snapshot::sample_into)) instead
//! of paying one snapshot acquisition and one tree descent each.
//!
//! The shape is classic flat combining with channels instead of a
//! publication list: a caller enqueues a reply slot, then tries to become
//! the **combiner** (a `try_lock` on the shared RNG). Whoever holds the
//! combiner lock drains the queue in chunks of at most `COMBINE_CHUNK`
//! draws, serves each chunk with **one** two-level batched draw
//! ([`ServiceCore::draw_into`]), and posts every result back. Callers that
//! lose the race just wait on their reply channel, re-contending for the
//! combiner role on a short timeout so a combiner that drained the queue a
//! hair before their enqueue can never strand them.
//!
//! The server does not use it: each reactor draws from the requesting
//! connection's own RNG, so one connection's draws never depend on
//! another's. The type stays because the end-to-end benchmark's layer
//! replay still builds one to time the coalescing layer.

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lrb_core::SelectionError;
use lrb_rng::{MersenneTwister64, SeedableSource};

use crate::sharded::ServiceCore;

/// How long a waiter parks on its reply channel before re-contending for
/// the combiner role.
const RECONTEND: Duration = Duration::from_micros(200);

/// Largest number of queued draws one combiner pass serves with a single
/// batched fill.
const COMBINE_CHUNK: usize = 64;

/// Coalesces concurrent single draws into batched two-level draws. See the
/// module docs for the protocol.
#[derive(Debug)]
pub struct DrawAggregator {
    core: Arc<ServiceCore>,
    /// Reply slots of draws waiting to be served.
    queue: Mutex<VecDeque<SyncSender<Result<usize, SelectionError>>>>,
    /// The combiner role: whoever holds it owns the service-side RNG and
    /// must drain the queue before releasing it.
    combiner: Mutex<MersenneTwister64>,
}

impl DrawAggregator {
    /// An aggregator over `core`, drawing from a service-side RNG seeded
    /// with `seed`.
    pub fn new(core: Arc<ServiceCore>, seed: u64) -> Self {
        Self {
            core,
            queue: Mutex::new(VecDeque::new()),
            combiner: Mutex::new(MersenneTwister64::seed_from_u64(seed)),
        }
    }

    /// The shared core this aggregator draws from.
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// One draw, possibly served inside a coalesced batch. Blocks until a
    /// combiner (often the caller itself) produces the result.
    ///
    /// Survives a panicking combiner: if a combiner dies mid-combine
    /// (queue drained, replies never sent), the stranded waiters observe a
    /// disconnected reply channel and transparently re-enqueue, and the
    /// poisoned combiner lock is recovered rather than abandoned.
    pub fn draw(&self) -> Result<usize, SelectionError> {
        // Outer loop: one iteration per enqueued reply slot. A slot is
        // abandoned (and the draw re-enqueued) only if its sender was
        // dropped unsent by a combiner that panicked mid-combine.
        loop {
            let (reply, result) = mpsc::sync_channel(1);
            self.queue
                .lock()
                .expect("aggregator queue poisoned")
                .push_back(reply);
            loop {
                if let Some(mut rng) = self.try_combine_lock() {
                    self.combine(&mut rng);
                }
                // Either we combined (our own result is posted) or someone
                // else holds the role; check, then park briefly before
                // re-contending.
                match result.try_recv() {
                    Ok(outcome) => return outcome,
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => break, // combiner died; retry
                }
                match result.recv_timeout(RECONTEND) {
                    Ok(outcome) => return outcome,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break, // combiner died; retry
                }
            }
        }
    }

    /// Try to take the combiner role. A poisoned lock (a previous combiner
    /// panicked) is recovered — the RNG state is always valid bits, and
    /// refusing the role would strand every queued waiter forever.
    fn try_combine_lock(&self) -> Option<std::sync::MutexGuard<'_, MersenneTwister64>> {
        match self.combiner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Drain the queue in [`COMBINE_CHUNK`] chunks, serving each with one
    /// batched two-level draw. Runs under the combiner lock.
    fn combine(&self, rng: &mut MersenneTwister64) {
        loop {
            let batch: Vec<SyncSender<Result<usize, SelectionError>>> = {
                let mut queue = self.queue.lock().expect("aggregator queue poisoned");
                let take = queue.len().min(COMBINE_CHUNK);
                queue.drain(..take).collect()
            };
            if batch.is_empty() {
                return;
            }
            let mut out = vec![0usize; batch.len()];
            match self.core.draw_into(rng, &mut out) {
                Ok(()) => {
                    self.core.telemetry().record_batch(batch.len() as u64);
                    for (reply, &index) in batch.iter().zip(&out) {
                        // A waiter that vanished (connection died) is fine.
                        let _ = reply.send(Ok(index));
                    }
                }
                Err(error) => {
                    for reply in &batch {
                        let _ = reply.send(Err(error));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{ServiceConfig, ShardedService};

    #[test]
    fn concurrent_draws_coalesce_into_batches() {
        let service =
            ShardedService::new((1..=16).map(f64::from).collect(), ServiceConfig::default())
                .unwrap();
        let aggregator = Arc::new(DrawAggregator::new(service.core(), 0xA66));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let aggregator = Arc::clone(&aggregator);
            handles.push(std::thread::spawn(move || {
                let mut picks = Vec::new();
                for _ in 0..50 {
                    picks.push(aggregator.draw().unwrap());
                }
                picks
            }));
        }
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().unwrap());
        }
        assert_eq!(all.len(), 400);
        assert!(all.iter().all(|&p| p < 16));
        let telemetry = service.telemetry();
        assert_eq!(telemetry.batched_draws(), 400);
        // Every draw went through some batch; with one combiner at a time
        // there are at most as many batches as draws.
        let batches = telemetry.batches();
        assert!((1..=400).contains(&batches), "{batches}");
    }

    #[test]
    fn draws_recover_after_a_combiner_panics() {
        let service =
            ShardedService::new((1..=16).map(f64::from).collect(), ServiceConfig::default())
                .unwrap();
        let aggregator = Arc::new(DrawAggregator::new(service.core(), 0xDEAD));
        // Poison the combiner lock the way a panicking combiner would.
        let poisoner = Arc::clone(&aggregator);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.combiner.lock().unwrap();
            panic!("simulated combiner death");
        })
        .join();
        assert!(aggregator.combiner.is_poisoned());
        // Waiters must still be served: the poisoned lock is recovered.
        assert!(aggregator.draw().unwrap() < 16);
    }

    #[test]
    fn aggregated_draw_errors_propagate_to_every_waiter() {
        let service = ShardedService::new(vec![0.0, 0.0, 0.0], ServiceConfig::default()).unwrap();
        let aggregator = DrawAggregator::new(service.core(), 1);
        assert_eq!(aggregator.draw(), Err(SelectionError::AllZeroFitness));
    }
}
