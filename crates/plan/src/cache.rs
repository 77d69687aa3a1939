//! Memory-budgeted plan cache.
//!
//! Figure 10 makes format conversion the dominant amortised cost of
//! tensor-core SpMV, so prepared engines are worth keeping — but each one
//! pins device memory (`PrepStats::device_bytes`). The cache holds
//! prepared plans keyed by matrix fingerprint + GPU configuration and
//! evicts least-recently-used plans whenever inserting a new one would
//! exceed the byte budget, so resident bytes never exceed the budget.
//! Plans larger than the whole budget are never admitted (counted as
//! `uncacheable` rather than evicting everything for a plan that cannot
//! fit anyway).

use crate::planner::Plan;
use spaden_gpusim::GpuConfig;
use spaden_sparse::{Fnv, MatrixFingerprint};
use std::sync::Arc;

/// Cache key: one matrix (by structural fingerprint) on one GPU
/// configuration. Plans are config-specific because the cost-model
/// ranking and the prepared device buffers both depend on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Collapsed matrix fingerprint ([`MatrixFingerprint::key`]).
    pub matrix: u64,
    /// Digest of the GPU configuration identity.
    pub gpu: u64,
}

impl PlanKey {
    /// Builds the key for a fingerprint on a GPU configuration.
    pub fn new(fp: &MatrixFingerprint, config: &GpuConfig) -> Self {
        PlanKey { matrix: fp.key(), gpu: gpu_digest(config) }
    }
}

/// FNV-1a digest of the fields that make two `GpuConfig`s behave
/// differently for planning purposes (name + machine shape). Fault
/// injection settings are deliberately excluded: the same device under
/// chaos testing still wants the same plan.
pub fn gpu_digest(config: &GpuConfig) -> u64 {
    let mut h = Fnv::new();
    h.bytes(config.name.as_bytes());
    h.u64(config.num_sms as u64);
    h.u64(config.cuda_cores as u64);
    h.u64(config.tensor_cores as u64);
    h.u64(config.l2_bytes as u64);
    h.f64(config.clock_hz);
    h.f64(config.dram_bw);
    h.f64(config.mma_m16n16k16_per_s);
    h.f64(config.mma_m8n8k4_per_s);
    h.finish()
}

/// Digest of the *structural* identity of a fingerprint: dimensions plus
/// the sparsity-pattern digest, excluding value bits. Two epochs of an
/// evolving matrix related by a value-only update share this key even
/// though their full [`MatrixFingerprint::key`]s differ.
pub fn structure_key(fp: &MatrixFingerprint) -> u64 {
    let mut h = Fnv::new();
    for v in [fp.nrows as u64, fp.ncols as u64, fp.nnz as u64, fp.structure_digest] {
        h.u64(v);
    }
    h.finish()
}

/// Result of a structure-aware [`PlanCache::lookup`].
pub enum Lookup {
    /// Exact fingerprint match — the plan serves this matrix as-is.
    Hit(Arc<Plan>),
    /// No exact match, but a plan for a matrix with the *same sparsity
    /// structure* (value-only delta away) exists. Its cost-model ranking
    /// and engine choice are reusable — the selector only reads structure
    /// — but the prepared engine holds the other matrix's value bits, so
    /// the caller must re-prepare (or rebuild from parts) before serving.
    ValueRefresh(Arc<Plan>),
    /// Nothing structurally related is cached.
    Miss,
}

/// Hit/miss/eviction counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans inserted.
    pub insertions: u64,
    /// Plans evicted to make room.
    pub evictions: u64,
    /// Plans rejected because they alone exceed the budget.
    pub uncacheable: u64,
    /// Lookups that missed on the full fingerprint but matched on the
    /// structure digest — a value-only update away from a cached plan.
    pub value_refreshes: u64,
    /// Cached plans dropped by [`PlanCache::invalidate_update`] because
    /// the update changed the sparsity structure.
    pub structural_invalidations: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    key: PlanKey,
    /// Structure-only identity (see [`structure_key`]) for the value-
    /// refresh lookup path.
    structure: u64,
    plan: Arc<Plan>,
    bytes: u64,
    last_used: u64,
}

/// LRU plan cache bounded by device bytes. Entries are shared `Arc`s: an
/// eviction drops the cache's reference, but plans already handed out stay
/// valid (the serving layer may still be executing on one).
pub struct PlanCache {
    budget: u64,
    entries: Vec<Entry>,
    tick: u64,
    stats: CacheStats,
}

impl PlanCache {
    /// Creates a cache with the given device-byte budget.
    pub fn new(budget: u64) -> Self {
        PlanCache { budget, entries: Vec::new(), tick: 0, stats: CacheStats::default() }
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently resident — always ≤ the budget.
    pub fn bytes_resident(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Resident plan count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a plan, refreshing its recency on hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        self.tick += 1;
        match self.entries.iter_mut().find(|e| e.key == *key) {
            Some(e) => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(e.plan.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Structure-aware lookup for evolving matrices: an exact
    /// fingerprint hit wins; otherwise a plan whose matrix has the same
    /// sparsity structure on the same GPU (a value-only update away) is
    /// returned as [`Lookup::ValueRefresh`] — its ranking and choice are
    /// reusable, its engine is not. Both flavours refresh recency.
    pub fn lookup(&mut self, fp: &MatrixFingerprint, config: &GpuConfig) -> Lookup {
        let key = PlanKey::new(fp, config);
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = self.tick;
            self.stats.hits += 1;
            return Lookup::Hit(e.plan.clone());
        }
        let structure = structure_key(fp);
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.structure == structure && e.key.gpu == key.gpu)
        {
            e.last_used = self.tick;
            self.stats.value_refreshes += 1;
            return Lookup::ValueRefresh(e.plan.clone());
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Budget hygiene on an epoch advance `old → new`. A *structural*
    /// update makes the old plan worthless (pattern gone, ranking not
    /// reusable): the entry is dropped and counted as a
    /// `structural_invalidation`. A *value-only* update keeps the entry —
    /// subsequent [`PlanCache::lookup`]s of the new fingerprint reuse its
    /// selection via [`Lookup::ValueRefresh`] until the refreshed plan is
    /// inserted and the old epoch's entry ages out by LRU. Returns true
    /// when an entry was dropped.
    pub fn invalidate_update(
        &mut self,
        old: &MatrixFingerprint,
        new: &MatrixFingerprint,
        config: &GpuConfig,
    ) -> bool {
        if structure_key(old) == structure_key(new) {
            return false;
        }
        let key = PlanKey::new(old, config);
        match self.entries.iter().position(|e| e.key == key) {
            Some(pos) => {
                self.entries.remove(pos);
                self.stats.structural_invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Inserts a plan, evicting least-recently-used entries until it fits.
    /// Returns false (and counts `uncacheable`) if the plan alone exceeds
    /// the budget; re-inserting an existing key refreshes the entry.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) -> bool {
        let bytes = plan.device_bytes();
        if bytes > self.budget {
            self.stats.uncacheable += 1;
            return false;
        }
        self.tick += 1;
        if let Some(pos) = self.entries.iter().position(|e| e.key == key) {
            self.entries.remove(pos);
        }
        while self.bytes_resident() + bytes > self.budget {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty: resident + bytes > budget and bytes <= budget");
            self.entries.remove(oldest);
            self.stats.evictions += 1;
        }
        let structure = structure_key(&plan.fingerprint);
        self.entries.push(Entry { key, structure, plan, bytes, last_used: self.tick });
        self.stats.insertions += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use crate::registry::EngineKind;
    use spaden_gpusim::Gpu;
    use spaden_sparse::gen;

    fn make_plan(gpu: &Gpu, seed: u64) -> (PlanKey, Arc<Plan>) {
        let csr = gen::random_uniform(64, 64, 600, seed);
        let mut planner = Planner::new(u64::MAX, vec![EngineKind::Spaden]);
        let plan = planner.plan(gpu, &csr).unwrap();
        (PlanKey::new(&plan.fingerprint, &gpu.config), plan)
    }

    #[test]
    fn hit_miss_and_recency() {
        let gpu = Gpu::new(spaden_gpusim::GpuConfig::l40());
        let (key, plan) = make_plan(&gpu, 1);
        let mut cache = PlanCache::new(u64::MAX);
        assert!(cache.get(&key).is_none());
        assert!(cache.insert(key, plan));
        assert!(cache.get(&key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn eviction_respects_budget_and_lru_order() {
        let gpu = Gpu::new(spaden_gpusim::GpuConfig::l40());
        let (k1, p1) = make_plan(&gpu, 1);
        let (k2, p2) = make_plan(&gpu, 2);
        let (k3, p3) = make_plan(&gpu, 3);
        // Budget fits exactly two of the three plans.
        let budget = p1.device_bytes() + p2.device_bytes() + p3.device_bytes() / 2;
        let mut cache = PlanCache::new(budget);
        assert!(cache.insert(k1, p1));
        assert!(cache.insert(k2, p2));
        // Touch k1 so k2 is the LRU victim.
        assert!(cache.get(&k1).is_some());
        assert!(cache.insert(k3, p3));
        assert!(cache.bytes_resident() <= budget);
        assert!(cache.get(&k1).is_some(), "recently used entry survived");
        assert!(cache.get(&k2).is_none(), "LRU entry evicted");
        assert!(cache.get(&k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_plan_is_uncacheable_not_destructive() {
        let gpu = Gpu::new(spaden_gpusim::GpuConfig::l40());
        let (k1, p1) = make_plan(&gpu, 1);
        let (k2, p2) = make_plan(&gpu, 2);
        let mut cache = PlanCache::new(p1.device_bytes());
        assert!(cache.insert(k1, p1));
        // p2 can never fit: it must be rejected without evicting p1.
        let mut big = PlanCache::new(p2.device_bytes() - 1);
        assert!(!big.insert(k2, p2));
        assert_eq!(big.stats().uncacheable, 1);
        assert!(cache.get(&k1).is_some());
    }

    #[test]
    fn value_only_update_is_a_refresh_not_a_miss() {
        let gpu = Gpu::new(spaden_gpusim::GpuConfig::l40());
        let csr = gen::random_uniform(64, 64, 600, 21);
        let mut planner = Planner::new(u64::MAX, vec![EngineKind::Spaden]);
        let plan = planner.plan(&gpu, &csr).unwrap();
        let old_fp = plan.fingerprint;
        let mut cache = PlanCache::new(u64::MAX);
        assert!(cache.insert(PlanKey::new(&old_fp, &gpu.config), plan));
        // Same pattern, one value changed: full key differs, structure same.
        let mut value_only = csr.clone();
        value_only.values[3] += 0.5;
        let new_fp = spaden_sparse::fingerprint(&value_only);
        assert_ne!(old_fp.key(), new_fp.key());
        assert!(!cache.invalidate_update(&old_fp, &new_fp, &gpu.config), "value-only keeps entry");
        match cache.lookup(&new_fp, &gpu.config) {
            Lookup::ValueRefresh(p) => assert_eq!(p.fingerprint.key(), old_fp.key()),
            _ => panic!("expected ValueRefresh"),
        }
        // Exact lookups still hit.
        assert!(matches!(cache.lookup(&old_fp, &gpu.config), Lookup::Hit(_)));
        let s = cache.stats();
        assert_eq!((s.value_refreshes, s.structural_invalidations, s.hits), (1, 0, 1));
    }

    #[test]
    fn structural_update_invalidates_the_plan() {
        let gpu = Gpu::new(spaden_gpusim::GpuConfig::l40());
        let csr = gen::random_uniform(64, 64, 600, 22);
        let mut planner = Planner::new(u64::MAX, vec![EngineKind::Spaden]);
        let plan = planner.plan(&gpu, &csr).unwrap();
        let old_fp = plan.fingerprint;
        let mut cache = PlanCache::new(u64::MAX);
        cache.insert(PlanKey::new(&old_fp, &gpu.config), plan);
        // Different pattern entirely.
        let structural = gen::random_uniform(64, 64, 700, 23);
        let new_fp = spaden_sparse::fingerprint(&structural);
        assert!(cache.invalidate_update(&old_fp, &new_fp, &gpu.config), "structural drops entry");
        assert!(matches!(cache.lookup(&new_fp, &gpu.config), Lookup::Miss));
        assert!(matches!(cache.lookup(&old_fp, &gpu.config), Lookup::Miss), "entry gone");
        let s = cache.stats();
        assert_eq!((s.value_refreshes, s.structural_invalidations), (0, 1));
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn structure_lookup_is_gpu_specific() {
        let l40 = Gpu::new(spaden_gpusim::GpuConfig::l40());
        let csr = gen::random_uniform(64, 64, 600, 24);
        let mut planner = Planner::new(u64::MAX, vec![EngineKind::Spaden]);
        let plan = planner.plan(&l40, &csr).unwrap();
        let fp = plan.fingerprint;
        let mut cache = PlanCache::new(u64::MAX);
        cache.insert(PlanKey::new(&fp, &l40.config), plan);
        // Same matrix structure on a different GPU must not value-refresh.
        let mut value_only = csr.clone();
        value_only.values[0] += 1.0;
        let new_fp = spaden_sparse::fingerprint(&value_only);
        let v100 = spaden_gpusim::GpuConfig::v100();
        let mut c2 = cache;
        assert!(matches!(c2.lookup(&new_fp, &v100), Lookup::Miss));
    }

    #[test]
    fn gpu_digest_separates_configs() {
        let l40 = spaden_gpusim::GpuConfig::l40();
        let v100 = spaden_gpusim::GpuConfig::v100();
        assert_ne!(gpu_digest(&l40), gpu_digest(&v100));
        assert_eq!(gpu_digest(&l40), gpu_digest(&spaden_gpusim::GpuConfig::l40()));
        // Fault settings do not change planning identity.
        let mut chaotic = spaden_gpusim::GpuConfig::l40();
        chaotic.faults.mem_bit_flip_rate = 0.5;
        assert_eq!(gpu_digest(&l40), gpu_digest(&chaotic));
    }
}
