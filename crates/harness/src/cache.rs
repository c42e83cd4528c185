//! Shared analyzed-network cache.
//!
//! Before the harness existed, every figure binary regenerated and
//! re-analyzed the same ten `(RandomTopologyConfig, seed)` topologies
//! independently — fig06, fig08, fig09, fig11, ext_a1, ext_d, … all use
//! the paper-default family. A campaign now owns one `TopoCache`; each
//! distinct config is generated and analyzed **exactly once** (enforced
//! structurally with a per-key `OnceLock`, so concurrent units racing on
//! the same key still run the generator a single time), and the manifest
//! records per-key generation and use counts as proof.
//!
//! Units reach the cache through a per-attempt [`CacheHandle`] that logs
//! which keys the unit touched; the run journal records the touch list
//! so a resumed campaign can [`replay`](TopoCache::replay) the lookups
//! of already-completed units and report byte-identical cache statistics
//! without regenerating their topologies.

use irrnet_topology::{gen, Network, RandomTopologyConfig, TopologyError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Default)]
struct Entry {
    cell: Arc<OnceLock<Result<Arc<Network>, TopologyError>>>,
    generations: AtomicUsize,
    uses: AtomicUsize,
    /// A journaled (replayed) unit generated this key in the original
    /// run; counts as one generation in reported statistics even though
    /// this process never ran the generator.
    replayed: AtomicBool,
}

impl Entry {
    fn reported_generations(&self) -> usize {
        self.generations
            .load(Ordering::Relaxed)
            .max(self.replayed.load(Ordering::Relaxed) as usize)
    }
}

/// Concurrency-safe build-once cache of analyzed networks keyed by the
/// canonical topology-config string.
#[derive(Default)]
pub struct TopoCache {
    map: Mutex<HashMap<String, Arc<Entry>>>,
}

/// Aggregate cache counters for the run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct `(config, seed)` keys requested.
    pub unique: usize,
    /// Total generator/analyzer executions (must equal `unique`).
    pub generated: usize,
    /// Lookups served without re-generating.
    pub hits: usize,
    /// Largest per-key generation count (must be 1).
    pub max_generations_per_key: usize,
    /// Per-key `(canonical config, stable hash, generations, uses)` rows,
    /// sorted by config string.
    pub entries: Vec<(String, u64, usize, usize)>,
}

/// Lock a mutex, tolerating poison: a unit that panicked while holding
/// the cache lock is isolated by the runner, and the cache state itself
/// (append-only map of once-cells and counters) is never left torn.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TopoCache {
    /// New empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The analyzed network for `cfg`, generating it on first request.
    pub fn network(&self, cfg: &RandomTopologyConfig) -> Result<Arc<Network>, TopologyError> {
        let key = cfg.canonical_string();
        let entry = {
            let mut map = lock_unpoisoned(&self.map);
            Arc::clone(map.entry(key).or_default())
        };
        entry.uses.fetch_add(1, Ordering::Relaxed);
        entry
            .cell
            .get_or_init(|| {
                entry.generations.fetch_add(1, Ordering::Relaxed);
                gen::generate(cfg).and_then(Network::analyze).map(Arc::new)
            })
            .clone()
    }

    /// The analyzed networks for `base` across a batch of seeds.
    pub fn networks(
        &self,
        base: &RandomTopologyConfig,
        seeds: &[u64],
    ) -> Result<Vec<Arc<Network>>, TopologyError> {
        seeds
            .iter()
            .map(|&s| {
                let mut cfg = base.clone();
                cfg.seed = s;
                self.network(&cfg)
            })
            .collect()
    }

    /// Replay a journaled lookup from a previous run: count one use of
    /// `key` and mark that its generation already happened, without
    /// running the generator. Keeps the cache statistics of a resumed
    /// campaign byte-identical to an uninterrupted one.
    pub fn replay(&self, key: &str) {
        let entry = {
            let mut map = lock_unpoisoned(&self.map);
            Arc::clone(map.entry(key.to_string()).or_default())
        };
        entry.uses.fetch_add(1, Ordering::Relaxed);
        entry.replayed.store(true, Ordering::Relaxed);
    }

    /// Counters for the manifest.
    pub fn stats(&self) -> CacheStats {
        let map = lock_unpoisoned(&self.map);
        let mut entries: Vec<(String, u64, usize, usize)> = map
            .iter()
            .map(|(k, e)| {
                (
                    k.clone(),
                    irrnet_core::rng::fnv1a(k.as_bytes()),
                    e.reported_generations(),
                    e.uses.load(Ordering::Relaxed),
                )
            })
            .collect();
        entries.sort();
        CacheStats {
            unique: entries.len(),
            generated: entries.iter().map(|e| e.2).sum(),
            hits: entries.iter().map(|e| e.3.saturating_sub(e.2)).sum(),
            max_generations_per_key: entries.iter().map(|e| e.2).max().unwrap_or(0),
            entries,
        }
    }
}

/// A unit's view of the campaign cache: delegates lookups to the shared
/// [`TopoCache`] and logs every key the unit touches, so the journal can
/// record the touch list for cache replay on resume.
#[derive(Clone)]
pub struct CacheHandle {
    cache: Arc<TopoCache>,
    touched: Arc<Mutex<Vec<String>>>,
}

impl CacheHandle {
    /// A fresh handle (empty touch log) over `cache`.
    pub fn new(cache: Arc<TopoCache>) -> Self {
        CacheHandle { cache, touched: Arc::new(Mutex::new(Vec::new())) }
    }

    /// The analyzed network for `cfg` (logged).
    pub fn network(&self, cfg: &RandomTopologyConfig) -> Result<Arc<Network>, TopologyError> {
        lock_unpoisoned(&self.touched).push(cfg.canonical_string());
        self.cache.network(cfg)
    }

    /// The analyzed networks for `base` across `seeds` (logged).
    pub fn networks(
        &self,
        base: &RandomTopologyConfig,
        seeds: &[u64],
    ) -> Result<Vec<Arc<Network>>, TopologyError> {
        seeds
            .iter()
            .map(|&s| {
                let mut cfg = base.clone();
                cfg.seed = s;
                self.network(&cfg)
            })
            .collect()
    }

    /// The keys this handle's unit touched, in lookup order.
    pub fn touched(&self) -> Vec<String> {
        lock_unpoisoned(&self.touched).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_each_key_exactly_once() {
        let cache = TopoCache::new();
        let cfg = RandomTopologyConfig::paper_default(0);
        let a = cache.network(&cfg).unwrap();
        let b = cache.network(&cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!(s.unique, 1);
        assert_eq!(s.generated, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.max_generations_per_key, 1);
    }

    #[test]
    fn seed_batches_share_entries() {
        let cache = TopoCache::new();
        let base = RandomTopologyConfig::paper_default(0);
        cache.networks(&base, &[0, 1, 2]).unwrap();
        cache.networks(&base, &[0, 1]).unwrap(); // prefix reuse, like load figures
        let s = cache.stats();
        assert_eq!(s.unique, 3);
        assert_eq!(s.generated, 3);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = TopoCache::new();
        let cfg = RandomTopologyConfig::paper_default(7);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| cache.network(&cfg).unwrap());
            }
        });
        let s = cache.stats();
        assert_eq!(s.unique, 1);
        assert_eq!(s.generated, 1, "racing lookups must not regenerate");
        assert_eq!(s.hits, 7);
        assert_eq!(s.max_generations_per_key, 1);
    }

    #[test]
    fn infeasible_configs_fail_without_poisoning_the_cache() {
        let cache = TopoCache::new();
        // 1 switch with 2 ports cannot host 32 nodes.
        let bad = RandomTopologyConfig {
            num_switches: 1,
            ports_per_switch: 2,
            num_hosts: 32,
            extra_links: irrnet_topology::ExtraLinks::Count(0),
            seed: 0,
        };
        assert!(cache.network(&bad).is_err());
        assert!(cache.network(&bad).is_err(), "error is cached, not retried");
        let good = RandomTopologyConfig::paper_default(0);
        assert!(cache.network(&good).is_ok(), "cache still serves good keys");
        let s = cache.stats();
        assert_eq!(s.generated, 2);
    }

    #[test]
    fn replay_counts_uses_and_generations_like_a_real_run() {
        // Uninterrupted: key touched by two units → gen 1, uses 2, hit 1.
        // Resumed: first unit replayed from the journal, second runs live.
        let cache = TopoCache::new();
        let cfg = RandomTopologyConfig::paper_default(3);
        cache.replay(&cfg.canonical_string());
        cache.network(&cfg).unwrap();
        let s = cache.stats();
        assert_eq!(s.unique, 1);
        assert_eq!(s.generated, 1);
        assert_eq!(s.hits, 1);

        // A key touched only by replayed units still reports gen 1.
        let cache = TopoCache::new();
        cache.replay("k");
        cache.replay("k");
        let s = cache.stats();
        assert_eq!((s.unique, s.generated, s.hits), (1, 1, 1));
    }

    #[test]
    fn handle_logs_touches_in_lookup_order() {
        let cache = Arc::new(TopoCache::new());
        let h = CacheHandle::new(Arc::clone(&cache));
        let base = RandomTopologyConfig::paper_default(0);
        h.networks(&base, &[5, 6]).unwrap();
        let touched = h.touched();
        assert_eq!(touched.len(), 2);
        assert!(touched[0].contains("seed=5") || touched[0] != touched[1]);
        let s = cache.stats();
        assert_eq!(s.unique, 2);
    }
}
