//! A sharded concurrent LRU cache for compiled query plans.
//!
//! Amortizing compilation is the serving-economics half of the paper's
//! compilation-cost-vs-execution-speed trade (§7.4): a server pays code
//! generation once per query *shape* and executes the cached plan millions
//! of times. This module provides the storage layer for that trade — a
//! generic, thread-safe, bounded cache:
//!
//! * **Sharded**: the key hash's low bits pick one of N independent shards
//!   (N is rounded up to a power of two), so concurrent prepares on
//!   different shapes contend on different locks;
//! * **LRU per shard**: each shard holds at most
//!   [`CacheConfig::capacity_per_shard`] entries and evicts its
//!   least-recently-*used* entry when full (both lookups and inserts
//!   refresh recency);
//! * **Single-flight**: a [`ShardedLru::get_or_insert_with`] miss on a key
//!   another thread is already compiling waits for that compile instead of
//!   repeating it, so N concurrent first requests for one shape compile it
//!   once;
//! * **Counted**: hits, misses and evictions are atomic counters exposed as
//!   a [`CacheStats`] snapshot. Through `get_or_insert_with` a miss is
//!   exactly one compilation, so hit rates and compile counts can be
//!   asserted exactly in tests and reported by serving dashboards;
//! * **Poison-tolerant**: every shard-lock acquisition recovers a poisoned
//!   mutex via `into_inner()`. A panic inside the lock (a panicking key
//!   comparison, or an injected fault) can unwind mid-operation, but shard
//!   state is only ever mutated in already-consistent steps, so later
//!   lookups and inserts on that shard keep working — one query fails, the
//!   cache does not (exercised by the chaos/poison tests).
//!
//! The cache is generic over key and value so the provider layer can key it
//! by (expression structure, source schemas) without this crate depending
//! on the expression crates. Values are handed out as [`Arc`]s; eviction
//! never invalidates a plan a client still holds.

use crate::hash::FxHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sizing of a [`ShardedLru`]: how many independent shards, and how many
/// entries each shard retains before evicting its least-recently-used one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of shards; rounded up to a power of two so shard selection is
    /// a mask over the key hash's low bits. Minimum 1.
    pub shards: usize,
    /// Maximum entries retained *per shard*. Minimum 1; the cache's total
    /// capacity is `shards × capacity_per_shard`.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    /// 8 shards × 32 plans: enough for an application's query shapes with
    /// negligible memory, and enough shards that concurrent prepares rarely
    /// share a lock.
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity_per_shard: 32,
        }
    }
}

impl CacheConfig {
    /// An unsharded config — a single shard with the given capacity. LRU
    /// eviction order is then globally deterministic, which is what the
    /// cache-behaviour test suites build on.
    pub fn single_shard(capacity: usize) -> Self {
        CacheConfig {
            shards: 1,
            capacity_per_shard: capacity,
        }
    }
}

/// Snapshot of a [`ShardedLru`]'s behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing (the caller then compiles and inserts).
    pub misses: u64,
    /// Entries displaced by LRU eviction at capacity.
    pub evictions: u64,
    /// Entries currently stored across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard: entries in recency order (front = least recently used,
/// back = most recently used). Linear scans are deliberate — per-shard
/// capacity is tens of entries, and the Vec keeps the LRU order exact and
/// observable, which the deterministic cache-behaviour tests depend on.
struct Shard<K, V> {
    entries: Vec<(K, Arc<V>)>,
    /// Keys a [`ShardedLru::get_or_insert_with`] caller is compiling right
    /// now, outside the lock; a miss on one of them waits on the slot's
    /// condvar instead of compiling it again.
    compiling: Vec<K>,
}

impl<K: Eq, V> Shard<K, V> {
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let index = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(index);
        let value = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(value)
    }
}

/// A shard behind its lock, plus the condvar its in-flight compiles
/// signal when they finish.
struct Slot<K, V> {
    shard: Mutex<Shard<K, V>>,
    compiled: Condvar,
}

impl<K, V> Slot<K, V> {
    /// Locks the shard, recovering a poisoned mutex (shard state is only
    /// mutated in already-consistent steps).
    fn lock(&self) -> MutexGuard<'_, Shard<K, V>> {
        self.shard.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Marks one key as being compiled; dropping it — after the insert, or on
/// the compile's error or panic — clears the mark and wakes the waiters.
struct Flight<'c, K: Eq, V> {
    slot: &'c Slot<K, V>,
    key: &'c K,
}

impl<K: Eq, V> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        let mut shard = self.slot.lock();
        if let Some(index) = shard.compiling.iter().position(|k| k == self.key) {
            shard.compiling.swap_remove(index);
        }
        drop(shard);
        self.slot.compiled.notify_all();
    }
}

/// A thread-safe, sharded, bounded LRU cache handing out [`Arc`]-shared
/// values.
///
/// # Examples
///
/// ```
/// use mrq_common::plancache::{CacheConfig, ShardedLru};
/// use std::sync::Arc;
///
/// // A single shard with room for two plans: deterministic LRU order.
/// let cache: ShardedLru<&str, u64> = ShardedLru::new(CacheConfig::single_shard(2));
/// cache.insert("q1", Arc::new(1));
/// cache.insert("q2", Arc::new(2));
/// assert_eq!(cache.get(&"q1").as_deref(), Some(&1)); // q1 is now MRU
/// cache.insert("q3", Arc::new(3)); // evicts q2, the LRU entry
/// assert!(cache.get(&"q2").is_none());
/// assert!(cache.get(&"q1").is_some());
/// let stats = cache.stats();
/// assert_eq!((stats.evictions, stats.entries), (1, 2));
/// ```
pub struct ShardedLru<K, V> {
    shards: Vec<Slot<K, V>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq, V> ShardedLru<K, V> {
    /// Creates an empty cache sized by `config` (shard count rounded up to
    /// a power of two, both dimensions clamped to at least 1).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        ShardedLru {
            shards: (0..shards)
                .map(|_| Slot {
                    shard: Mutex::new(Shard {
                        entries: Vec::new(),
                        compiling: Vec::new(),
                    }),
                    compiled: Condvar::new(),
                })
                .collect(),
            mask: shards as u64 - 1,
            capacity_per_shard: config.capacity_per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn slot_of(&self, key: &K) -> &Slot<K, V> {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() & self.mask) as usize]
    }

    fn shard_of(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        self.slot_of(key).lock()
    }

    /// Looks up a key, refreshing its recency on a hit. Counts exactly one
    /// hit or one miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let found = self.shard_of(key).touch(key);
        match found {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a value, evicting the shard's least-recently-used entry when
    /// the shard is at capacity. If the key is already present the existing
    /// value *wins* and is returned (and refreshed), so two racing inserts
    /// of one key converge on one value. Counts neither a hit nor a miss.
    pub fn insert(&self, key: K, value: Arc<V>) -> Arc<V> {
        let mut shard = self.shard_of(&key);
        if let Some(existing) = shard.touch(&key) {
            return existing;
        }
        if shard.entries.len() >= self.capacity_per_shard {
            shard.entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.entries.push((key, Arc::clone(&value)));
        value
    }

    /// The lookup-or-compute composite, counting exactly one hit or one
    /// miss. On a miss the (fallible) `compile` closure runs *outside* the
    /// shard lock and its result is inserted with [`ShardedLru::insert`].
    /// A caller that misses on a key another caller is compiling waits for
    /// that compile and then counts a hit — so `misses` is exactly the
    /// number of compilations. If the compile fails, one waiter retries it.
    pub fn get_or_insert_with<E>(
        &self,
        key: &K,
        compile: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<Arc<V>, E>
    where
        K: Clone,
    {
        let slot = self.slot_of(key);
        let mut shard = slot.lock();
        loop {
            if let Some(found) = shard.touch(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(found);
            }
            if !shard.compiling.contains(key) {
                break;
            }
            shard = slot.compiled.wait(shard).unwrap_or_else(|e| e.into_inner());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.compiling.push(key.clone());
        drop(shard);
        let _flight = Flight { slot, key };
        Ok(self.insert(key.clone(), compile()?))
    }

    /// Entries currently stored across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved; outstanding [`Arc`]s stay
    /// valid).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().entries.clear();
        }
    }

    /// Snapshot of the hit/miss/eviction counters and current entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_counters_are_exact() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(CacheConfig::single_shard(2));
        assert!(cache.get(&1).is_none());
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.get(&1).as_deref(), Some(&10));
        assert_eq!(cache.get(&2).as_deref(), Some(&20));
        cache.insert(3, Arc::new(30)); // evicts key 1 (LRU after the touches)
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.get(&1).is_none());
    }

    #[test]
    fn lru_order_is_refreshed_by_get_and_insert() {
        let cache: ShardedLru<&str, u8> = ShardedLru::new(CacheConfig::single_shard(3));
        cache.insert("a", Arc::new(0));
        cache.insert("b", Arc::new(1));
        cache.insert("c", Arc::new(2));
        // Touch a, then b: LRU order is now c < a < b.
        cache.get(&"a");
        cache.get(&"b");
        cache.insert("d", Arc::new(3)); // evicts c
        assert!(cache.get(&"c").is_none());
        // Re-inserting an existing key refreshes it instead of duplicating.
        cache.insert("a", Arc::new(9));
        assert_eq!(
            cache.get(&"a").as_deref(),
            Some(&0),
            "first insert wins; re-insert only refreshes recency"
        );
        cache.insert("e", Arc::new(4)); // evicts b (a was refreshed)
        assert!(cache.get(&"b").is_none());
        assert!(cache.get(&"a").is_some());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capacity_one_keeps_only_the_latest_entry() {
        let cache: ShardedLru<u8, u8> = ShardedLru::new(CacheConfig::single_shard(1));
        cache.insert(1, Arc::new(1));
        cache.insert(2, Arc::new(2));
        assert!(cache.get(&1).is_none());
        assert_eq!(cache.get(&2).as_deref(), Some(&2));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        let cache: ShardedLru<u8, u8> = ShardedLru::new(CacheConfig {
            shards: 5,
            capacity_per_shard: 2,
        });
        assert_eq!(cache.shard_count(), 8);
        // Entries land across shards; total capacity is shards × per-shard.
        for i in 0..16 {
            cache.insert(i, Arc::new(i));
        }
        assert!(cache.len() <= 16);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn get_or_insert_with_compiles_once_per_key() {
        let cache: ShardedLru<u8, u8> = ShardedLru::new(CacheConfig::default());
        let mut compiles = 0;
        for _ in 0..3 {
            let v: Result<_, ()> = cache.get_or_insert_with(&7, || {
                compiles += 1;
                Ok(Arc::new(42))
            });
            assert_eq!(*v.unwrap(), 42);
        }
        assert_eq!(compiles, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // Errors propagate without inserting anything.
        let err: Result<Arc<u8>, &str> = cache.get_or_insert_with(&8, || Err("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.get(&8).is_none());
    }

    #[test]
    fn concurrent_hammering_converges_on_one_value_per_key() {
        let cache: Arc<ShardedLru<u32, u32>> = Arc::new(ShardedLru::new(CacheConfig {
            shards: 4,
            capacity_per_shard: 64,
        }));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..64u32 {
                        let v: Result<_, ()> =
                            cache.get_or_insert_with(&i, || Ok(Arc::new(i * 100 + t)));
                        // Whatever thread won the insert, the value is a
                        // function of the key alone modulo the winner's id.
                        assert_eq!(*v.unwrap() / 100, i);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64, "no key lost or duplicated");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 64);
        assert_eq!(stats.misses, 64, "each key compiled exactly once");
    }

    #[test]
    fn concurrent_misses_on_one_key_compile_once() {
        let cache: ShardedLru<u8, u8> = ShardedLru::new(CacheConfig::single_shard(4));
        let compiles = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    let v: Result<_, ()> = cache.get_or_insert_with(&1, || {
                        compiles.fetch_add(1, Ordering::Relaxed);
                        // Long enough that every other caller misses while
                        // this compile is in flight.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(Arc::new(9))
                    });
                    assert_eq!(*v.unwrap(), 9);
                });
            }
        });
        assert_eq!(compiles.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 3));
        // A failed compile wakes the waiters and leaves the key uncached.
        let err: Result<Arc<u8>, &str> = cache.get_or_insert_with(&2, || Err("boom"));
        assert!(err.is_err());
        let ok: Result<_, &str> = cache.get_or_insert_with(&2, || Ok(Arc::new(2)));
        assert_eq!(*ok.unwrap(), 2);
    }
}
