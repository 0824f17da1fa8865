//! The pluggable frozen-backend registry.
//!
//! A [`FrozenBackend`] knows how to freeze a weight vector into a read-only
//! [`FrozenSampler`] and, optionally, how to patch the previous snapshot's
//! sampler with a coalesced batch instead of rebuilding. The engine
//! dispatches through a [`BackendRegistry`] of trait objects instead of a
//! closed enum, so new sampler families plug in without touching the
//! engine; an engine serves the one backend its config names.
//!
//! The [standard registry](BackendRegistry::standard) ships the three
//! families the paper's setting needs:
//!
//! | backend | build | patch (`d` dirty) | per draw |
//! |---|---|---|---|
//! | `fenwick` (default) | `O(n)` | `n/2 (+ n/4 scaled) + d · log₂ n` | `O(log n)`, skew-immune |
//! | `alias` | `O(n)`, three passes | — (rebuilds, worklists rayon-parallel) | `O(1)` |
//! | `stochastic-acceptance` | `O(n)` | `n/4 (+ n/2 scaled) + 2d` | `n · w_max / Σ w` expected rejection rounds |
//!
//! The *patch* column is [`FrozenBackend::try_patch`] — freezing the next
//! snapshot from the previous one plus the coalesced batch instead of
//! rebuilding — priced in units of one rebuild pass per category (the
//! `n`-proportional terms are straight `memcpy`s, priced fractionally
//! against the rebuild's branchy passes; a scale fold adds one multiply
//! pass). [`FrozenBackend::patch_pays`] compares that price against the
//! `n`-op rebuild — the rule `PatchPolicy::Auto` follows on every publish.

use std::sync::Arc;

use lrb_core::error::SelectionError;
use lrb_core::sequential::{AliasSampler, AliasScratch};
use lrb_core::traits::{FrozenSampler, PreparedSampler};
use lrb_dynamic::{FenwickSampler, StochasticAcceptanceSampler};
use lrb_rng::RandomSource;

/// Pooled transient build buffers, owned by the engine and passed to every
/// snapshot build on the (serialised) publish path. Nothing in here
/// survives a build — a snapshot's *retained* storage (its weight vector,
/// Fenwick tree, alias table) is state, not a buffer, and is still
/// allocated per publish — but the scratch kills the per-publish transients:
/// the drained override list and the alias method's worklists and
/// scaled-probability vector. Buffers grow to the workload's high-water
/// mark and are reused thereafter, so a steady-state publish performs no
/// transient allocation.
#[derive(Debug, Default)]
pub struct BuildScratch {
    /// Drained coalesced overrides, reused across publishes.
    pub(crate) overrides: Vec<(usize, f64)>,
    /// Vose build worklists for [`AliasBackend`] rebuilds.
    pub alias: AliasScratch,
}

/// A sampler family the engine can freeze snapshots under.
///
/// Implementations must be cheap to clone behind an [`Arc`] and build
/// samplers whose draws are exactly `F_i = w_i / Σ w_j` over the weights
/// they were given.
pub trait FrozenBackend: Send + Sync {
    /// A short, stable, machine-friendly name (used in reports, JSON and
    /// [`EngineConfig::backend`](crate::EngineConfig::backend)).
    fn name(&self) -> &'static str;

    /// Freeze `weights` (already validated: non-empty, finite, non-negative;
    /// an all-zero vector is allowed and must build a sampler whose draws
    /// fail with [`SelectionError::AllZeroFitness`]).
    fn build(&self, weights: &[f64]) -> Result<Box<dyn FrozenSampler>, SelectionError>;

    /// Like [`build`](FrozenBackend::build), but with access to the
    /// engine's pooled [`BuildScratch`] so repeated rebuilds can reuse
    /// transient buffers. The default ignores the scratch and delegates to
    /// `build`; backends with allocation-heavy constructions (the alias
    /// table) override it. Must produce a sampler indistinguishable from
    /// `build`'s.
    fn build_pooled(
        &self,
        weights: &[f64],
        scratch: &mut BuildScratch,
    ) -> Result<Box<dyn FrozenSampler>, SelectionError> {
        let _ = scratch;
        self.build(weights)
    }

    /// Incremental-publish fast path: build the next snapshot's sampler
    /// from the previous one plus the coalesced batch (`scale` fold first,
    /// then absolute `overrides`), skipping the `O(n)` rebuild.
    ///
    /// Returns `None` when the backend has no patch path (or `prev` is not
    /// a sampler this backend built); the engine then falls back to
    /// [`build_pooled`](FrozenBackend::build_pooled). A `Some(Err(…))`
    /// carries the same validation failures a full rebuild over the folded
    /// weights would raise (a scale fold overflowing a weight to `∞`), so
    /// the two paths are interchangeable error-for-error.
    ///
    /// **Contract:** the patched sampler's weights must equal, bit for
    /// bit, those of a full rebuild over the folded vector.
    fn try_patch(
        &self,
        prev: &dyn FrozenSampler,
        overrides: &[(usize, f64)],
        scale: f64,
    ) -> Option<Result<Box<dyn FrozenSampler>, SelectionError>> {
        let _ = (prev, overrides, scale);
        None
    }

    /// Whether patching `dirty` of `categories` categories (with a
    /// whole-vector scale fold when `scaled`) is cheaper than an `n`-op
    /// rebuild — the patch-versus-rebuild rule
    /// [`PatchPolicy::Auto`](crate::PatchPolicy::Auto) follows on every
    /// publish. The default (no patch path) never patches.
    fn patch_pays(&self, categories: usize, dirty: usize, scaled: bool) -> bool {
        let _ = (categories, dirty, scaled);
        false
    }
}

/// Fenwick tree: `O(log n)` draws, cheapest build, skew-immune.
#[derive(Debug, Clone, Copy, Default)]
pub struct FenwickBackend;

impl FrozenBackend for FenwickBackend {
    fn name(&self) -> &'static str {
        "fenwick"
    }

    fn build(&self, weights: &[f64]) -> Result<Box<dyn FrozenSampler>, SelectionError> {
        Ok(Box::new(FenwickSampler::from_weights(weights.to_vec())?))
    }

    fn try_patch(
        &self,
        prev: &dyn FrozenSampler,
        overrides: &[(usize, f64)],
        scale: f64,
    ) -> Option<Result<Box<dyn FrozenSampler>, SelectionError>> {
        let prev = prev.as_any().downcast_ref::<FenwickSampler>()?;
        Some(
            FenwickSampler::patched_from(prev, overrides, scale)
                .map(|sampler| Box::new(sampler) as Box<dyn FrozenSampler>),
        )
    }

    fn patch_pays(&self, categories: usize, dirty: usize, scaled: bool) -> bool {
        let n = categories.max(1) as f64;
        let dirty = dirty as f64;
        let scale_pass = if scaled { 0.25 * n } else { 0.0 };
        // Two memcpy passes (weights + tree) priced at a quarter of a build
        // op per element — straight-line copies against the rebuild's
        // branchy validate/accumulate passes — plus one multiply pass when
        // a scale folds, plus O(log n) tree nodes per dirty category.
        0.5 * n + scale_pass + dirty * n.log2().max(1.0) < n
    }
}

/// A Vose alias table frozen at snapshot-build time: the table is built
/// once per publish, so readers never pay a rebuild and share it without
/// a lock.
struct FrozenAlias {
    weights: Vec<f64>,
    total: f64,
    /// `None` when every weight is zero (the table cannot be built; draws
    /// fail with [`SelectionError::AllZeroFitness`]).
    table: Option<AliasSampler>,
}

impl FrozenAlias {
    /// Build the table straight from the engine-validated weights — no
    /// intermediate `Fitness` copy — reusing the caller's Vose worklists.
    /// Re-validates each value (a publish-time evaporation fold can push a
    /// weight to `∞`, which must fail the build, not poison the table).
    fn build_with(weights: Vec<f64>, scratch: &mut AliasScratch) -> Result<Self, SelectionError> {
        for (index, &value) in weights.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(SelectionError::InvalidFitness { index, value });
            }
        }
        let total: f64 = weights.iter().sum();
        let table = if total > 0.0 {
            Some(AliasSampler::from_validated_weights(
                &weights, total, scratch,
            )?)
        } else {
            None
        };
        Ok(Self {
            weights,
            total,
            table,
        })
    }
}

impl FrozenSampler for FrozenAlias {
    fn len(&self) -> usize {
        self.weights.len()
    }

    fn weight(&self, index: usize) -> f64 {
        self.weights[index]
    }

    fn total_weight(&self) -> f64 {
        self.total
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> Result<usize, SelectionError> {
        match &self.table {
            Some(table) => Ok(table.sample(rng)),
            None => Err(SelectionError::AllZeroFitness),
        }
    }

    fn sample_into(
        &self,
        rng: &mut dyn RandomSource,
        out: &mut [usize],
    ) -> Result<(), SelectionError> {
        match &self.table {
            Some(table) => {
                table.sample_into(rng, out);
                Ok(())
            }
            None => Err(SelectionError::AllZeroFitness),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Vose alias table: `O(1)` draws after the priciest build.
#[derive(Debug, Clone, Copy, Default)]
pub struct AliasBackend;

impl FrozenBackend for AliasBackend {
    fn name(&self) -> &'static str {
        "alias"
    }

    fn build(&self, weights: &[f64]) -> Result<Box<dyn FrozenSampler>, SelectionError> {
        let mut scratch = AliasScratch::default();
        Ok(Box::new(FrozenAlias::build_with(
            weights.to_vec(),
            &mut scratch,
        )?))
    }

    fn build_pooled(
        &self,
        weights: &[f64],
        scratch: &mut BuildScratch,
    ) -> Result<Box<dyn FrozenSampler>, SelectionError> {
        Ok(Box::new(FrozenAlias::build_with(
            weights.to_vec(),
            &mut scratch.alias,
        )?))
    }
}

/// Stochastic acceptance: `O(1)` expected draws on balanced weights,
/// degrading with skew.
#[derive(Debug, Clone, Copy, Default)]
pub struct StochasticAcceptanceBackend;

impl FrozenBackend for StochasticAcceptanceBackend {
    fn name(&self) -> &'static str {
        "stochastic-acceptance"
    }

    fn build(&self, weights: &[f64]) -> Result<Box<dyn FrozenSampler>, SelectionError> {
        Ok(Box::new(StochasticAcceptanceSampler::from_weights(
            weights.to_vec(),
        )?))
    }

    fn try_patch(
        &self,
        prev: &dyn FrozenSampler,
        overrides: &[(usize, f64)],
        scale: f64,
    ) -> Option<Result<Box<dyn FrozenSampler>, SelectionError>> {
        let prev = prev
            .as_any()
            .downcast_ref::<StochasticAcceptanceSampler>()?;
        Some(
            StochasticAcceptanceSampler::patched_from(prev, overrides, scale)
                .map(|sampler| Box::new(sampler) as Box<dyn FrozenSampler>),
        )
    }

    fn patch_pays(&self, categories: usize, dirty: usize, scaled: bool) -> bool {
        let n = categories.max(1) as f64;
        let dirty = dirty as f64;
        let scale_pass = if scaled { 0.5 * n } else { 0.0 };
        // One memcpy pass, one aggregate-rederiving multiply pass when a
        // scale folds, O(1) aggregate maintenance per dirty category.
        0.25 * n + scale_pass + 2.0 * dirty < n
    }
}

/// An ordered, name-keyed collection of [`FrozenBackend`] trait objects.
/// Engines select one entry by name
/// ([`EngineConfig::backend`](crate::EngineConfig::backend)); tests
/// register fakes beside (or instead of) the standard three.
#[derive(Clone)]
pub struct BackendRegistry {
    entries: Vec<Arc<dyn FrozenBackend>>,
}

impl BackendRegistry {
    /// An empty registry (register at least one backend before handing it to
    /// an engine).
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The standard three backends: `fenwick`, `alias`,
    /// `stochastic-acceptance`.
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        registry.register(Arc::new(FenwickBackend));
        registry.register(Arc::new(AliasBackend));
        registry.register(Arc::new(StochasticAcceptanceBackend));
        registry
    }

    /// Add (or replace, by name) a backend.
    pub fn register(&mut self, backend: Arc<dyn FrozenBackend>) {
        match self.index_of(backend.name()) {
            Some(existing) => self.entries[existing] = backend,
            None => self.entries.push(backend),
        }
    }

    /// The registered backends, in registration order.
    pub fn entries(&self) -> &[Arc<dyn FrozenBackend>] {
        &self.entries
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no backends.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registry position of a backend name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|b| b.name() == name)
    }

    /// Look a backend up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn FrozenBackend>> {
        self.index_of(name).map(|i| &self.entries[i])
    }

    /// Every registered backend name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|b| b.name()).collect()
    }
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("backends", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    #[test]
    fn standard_registry_is_ordered_and_name_keyed() {
        let registry = BackendRegistry::standard();
        assert_eq!(
            registry.names(),
            vec!["fenwick", "alias", "stochastic-acceptance"]
        );
        assert_eq!(registry.len(), 3);
        assert!(!registry.is_empty());
        assert_eq!(registry.index_of("alias"), Some(1));
        assert!(registry.get("no-such-backend").is_none());
        assert!(format!("{registry:?}").contains("fenwick"));
    }

    #[test]
    fn registering_an_existing_name_replaces_in_place() {
        let mut registry = BackendRegistry::standard();
        registry.register(Arc::new(AliasBackend));
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.index_of("alias"), Some(1));
    }

    #[test]
    fn every_standard_backend_freezes_the_same_distribution() {
        let weights = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        for backend in BackendRegistry::standard().entries() {
            let sampler = backend.build(&weights).unwrap();
            assert_eq!(sampler.len(), 5);
            assert!((sampler.total_weight() - 10.0).abs() < 1e-12);
            assert_eq!(sampler.weight(3), 3.0);
            let mut rng = MersenneTwister64::seed_from_u64(5);
            for _ in 0..2_000 {
                let i = sampler.sample(&mut rng).unwrap();
                assert_ne!(i, 0, "{} drew a zero-weight index", backend.name());
            }
        }
    }

    #[test]
    fn all_zero_weights_build_but_refuse_to_draw() {
        for backend in BackendRegistry::standard().entries() {
            let sampler = backend.build(&[0.0, 0.0]).unwrap();
            assert_eq!(sampler.total_weight(), 0.0);
            let mut rng = MersenneTwister64::seed_from_u64(2);
            assert_eq!(
                sampler.sample(&mut rng),
                Err(SelectionError::AllZeroFitness),
                "{}",
                backend.name()
            );
            let mut buffer = [0usize; 4];
            assert!(sampler.sample_into(&mut rng, &mut buffer).is_err());
        }
    }

    #[test]
    fn patch_pays_flips_at_the_documented_boundary() {
        // n = 4096: fenwick patches while 0.5n (+ 0.25n scaled) + 12d < n,
        // stochastic acceptance while 0.25n (+ 0.5n scaled) + 2d < n.
        let n = 4096;
        for (backend, plain, scaled) in [
            (&FenwickBackend as &dyn FrozenBackend, 170, 85),
            (&StochasticAcceptanceBackend, 1535, 511),
        ] {
            let name = backend.name();
            assert!(backend.patch_pays(n, plain, false), "{name} at {plain}");
            assert!(
                !backend.patch_pays(n, plain + 1, false),
                "{name} at {}",
                plain + 1
            );
            assert!(
                backend.patch_pays(n, scaled, true),
                "{name} scaled at {scaled}"
            );
            assert!(
                !backend.patch_pays(n, scaled + 1, true),
                "{name} scaled at {}",
                scaled + 1
            );
        }
        for (dirty, scaled) in [(0, false), (1, false), (0, true)] {
            assert!(
                !AliasBackend.patch_pays(n, dirty, scaled),
                "alias never patches"
            );
        }
    }
}
