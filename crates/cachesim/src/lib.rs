//! A trace-driven last-level-cache simulator.
//!
//! Figure 14 of the paper compares the number of last-level (L3) cache
//! misses each execution strategy incurs on TPC-H Q1–Q3, measured with
//! hardware performance counters. This reproduction instead instruments the
//! engines (see [`mrq_common::trace::MemTracer`]) and replays their memory
//! accesses through a classic set-associative cache model with true-LRU
//! replacement.
//!
//! The default geometry matches the paper's evaluation machine (an Intel
//! i5-2415M: 3 MiB shared L3, 12-way, 64-byte lines). Absolute miss counts
//! will not match a real PMU — we only trace *data* accesses the engines
//! perform on query state, not code or allocator traffic — but the relative
//! ordering between strategies, which is what Figure 14 shows, is preserved:
//! strategies that chase scattered managed objects touch many more distinct
//! lines than strategies that stream flat buffers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_common::trace::{AccessKind, MemTracer};

pub mod hierarchy;
pub use hierarchy::{CacheHierarchy, HierarchyConfig, LevelStats};

/// Geometry of the simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The last-level cache of the paper's evaluation machine (Intel
    /// i5-2415M): 3 MiB, 12-way, 64-byte lines.
    pub fn paper_llc() -> Self {
        CacheConfig {
            capacity_bytes: 3 * 1024 * 1024,
            ways: 12,
            line_bytes: 64,
        }
    }

    /// A small cache useful in tests (4 KiB, 4-way, 64-byte lines).
    pub fn tiny() -> Self {
        CacheConfig {
            capacity_bytes: 4 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper_llc()
    }
}

/// Per-[`AccessKind`] hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Line-granular accesses observed.
    pub accesses: u64,
    /// Misses among those accesses.
    pub misses: u64,
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total line-granular accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// Breakdown by access kind, indexed in [`AccessKind`] declaration order
    /// (ManagedRead, ManagedWrite, NativeRead, NativeWrite, HashProbe).
    pub by_kind: [KindStats; 5],
}

impl CacheStats {
    /// Miss ratio over all accesses (0 when no accesses were recorded).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Stats for one access kind.
    pub fn kind(&self, kind: AccessKind) -> KindStats {
        self.by_kind[kind_slot(kind)]
    }
}

fn kind_slot(kind: AccessKind) -> usize {
    match kind {
        AccessKind::ManagedRead => 0,
        AccessKind::ManagedWrite => 1,
        AccessKind::NativeRead => 2,
        AccessKind::NativeWrite => 3,
        AccessKind::HashProbe => 4,
    }
}

/// One cache way: the tag stored and a logical timestamp for LRU.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    last_used: u64,
    valid: bool,
}

/// A set-associative cache with true-LRU replacement, fed by
/// [`MemTracer::access`] events.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    sets: Vec<Way>,
    set_count: usize,
    tick: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates a simulator with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, non-power-of-two line
    /// size, capacity not divisible by `ways * line_bytes`, or a set count
    /// that is not a power of two).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0, "cache must have at least one way");
        assert!(
            config.line_bytes.is_power_of_two() && config.line_bytes >= 8,
            "line size must be a power of two of at least 8 bytes"
        );
        assert!(
            config
                .capacity_bytes
                .is_multiple_of(config.ways * config.line_bytes),
            "capacity must be a whole number of sets"
        );
        let set_count = config.sets();
        assert!(
            set_count.is_power_of_two(),
            "set count must be a power of two"
        );
        CacheSim {
            config,
            sets: vec![
                Way {
                    tag: 0,
                    last_used: 0,
                    valid: false
                };
                set_count * config.ways
            ],
            set_count,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a simulator with the paper's LLC geometry.
    pub fn paper_llc() -> Self {
        Self::new(CacheConfig::paper_llc())
    }

    /// The geometry in use.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        for way in &mut self.sets {
            way.valid = false;
        }
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Touches a single cache line (already divided by the line size) without
    /// updating statistics; returns `true` on a miss. Used by
    /// [`CacheHierarchy`] to drive multiple levels from one access stream.
    pub fn touch_line(&mut self, line_addr: u64) -> bool {
        self.tick += 1;
        let set_idx = (line_addr as usize) & (self.set_count - 1);
        let tag = line_addr >> self.set_count.trailing_zeros();
        let base = set_idx * self.config.ways;
        let ways = &mut self.sets[base..base + self.config.ways];

        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = self.tick;
            return false;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_used } else { 0 })
            .expect("cache sets are never empty");
        victim.valid = true;
        victim.tag = tag;
        victim.last_used = self.tick;
        true
    }
}

impl MemTracer for CacheSim {
    fn access(&mut self, kind: AccessKind, addr: u64, len: u32) {
        let line = self.config.line_bytes as u64;
        let first = addr / line;
        let last = (addr + len.max(1) as u64 - 1) / line;
        for line_addr in first..=last {
            let miss = self.touch_line(line_addr);
            self.stats.accesses += 1;
            self.stats.by_kind[kind_slot(kind)].accesses += 1;
            if miss {
                self.stats.misses += 1;
                self.stats.by_kind[kind_slot(kind)].misses += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_sanity() {
        let llc = CacheConfig::paper_llc();
        assert_eq!(llc.sets(), 4096);
        assert_eq!(CacheConfig::tiny().sets(), 16);
    }

    #[test]
    fn repeated_access_to_same_line_hits() {
        let mut sim = CacheSim::new(CacheConfig::tiny());
        sim.access(AccessKind::NativeRead, 0x1000, 8);
        sim.access(AccessKind::NativeRead, 0x1008, 8);
        sim.access(AccessKind::NativeRead, 0x1030, 8);
        let stats = sim.stats();
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.misses, 1, "only the first touch of the line misses");
    }

    #[test]
    fn access_spanning_lines_counts_both() {
        let mut sim = CacheSim::new(CacheConfig::tiny());
        sim.access(AccessKind::NativeRead, 0x103C, 16); // crosses 0x1040
        assert_eq!(sim.stats().accesses, 2);
        assert_eq!(sim.stats().misses, 2);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig::tiny(); // 4 KiB
        let mut sim = CacheSim::new(cfg);
        // Stream 64 KiB twice: far larger than the cache, so the second pass
        // misses again on (nearly) every line.
        for pass in 0..2u64 {
            for i in 0..1024u64 {
                sim.access(AccessKind::NativeRead, i * 64, 8);
            }
            let misses = sim.stats().misses;
            assert!(
                misses >= 1024 * (pass + 1),
                "pass {pass}: expected ≥ {} misses, got {misses}",
                1024 * (pass + 1)
            );
        }
    }

    #[test]
    fn working_set_smaller_than_cache_is_resident_on_second_pass() {
        let cfg = CacheConfig::tiny(); // 4 KiB = 64 lines
        let mut sim = CacheSim::new(cfg);
        for _ in 0..2 {
            for i in 0..32u64 {
                sim.access(AccessKind::NativeRead, i * 64, 8);
            }
        }
        let stats = sim.stats();
        assert_eq!(stats.misses, 32, "second pass must be all hits");
        assert_eq!(stats.accesses, 64);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        // 1 set, 2 ways, 64-byte lines.
        let cfg = CacheConfig {
            capacity_bytes: 128,
            ways: 2,
            line_bytes: 64,
        };
        let mut sim = CacheSim::new(cfg);
        let (a, b, c) = (0u64, 64u64, 128u64);
        sim.access(AccessKind::NativeRead, a, 8); // miss
        sim.access(AccessKind::NativeRead, b, 8); // miss
        sim.access(AccessKind::NativeRead, a, 8); // hit, refreshes a
        sim.access(AccessKind::NativeRead, c, 8); // miss, evicts b
        sim.access(AccessKind::NativeRead, a, 8); // hit
        sim.access(AccessKind::NativeRead, b, 8); // miss (was evicted)
        assert_eq!(sim.stats().misses, 4);
        assert_eq!(sim.stats().accesses, 6);
    }

    #[test]
    fn per_kind_breakdown_is_tracked() {
        let mut sim = CacheSim::new(CacheConfig::tiny());
        sim.access(AccessKind::ManagedRead, 0, 8);
        sim.access(AccessKind::HashProbe, 4096, 8);
        sim.access(AccessKind::HashProbe, 4096, 8);
        assert_eq!(sim.stats().kind(AccessKind::ManagedRead).misses, 1);
        assert_eq!(sim.stats().kind(AccessKind::HashProbe).accesses, 2);
        assert_eq!(sim.stats().kind(AccessKind::HashProbe).misses, 1);
        assert!(sim.stats().miss_ratio() > 0.0);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut sim = CacheSim::new(CacheConfig::tiny());
        sim.access(AccessKind::NativeRead, 0, 8);
        sim.reset();
        assert_eq!(sim.stats().accesses, 0);
        sim.access(AccessKind::NativeRead, 0, 8);
        assert_eq!(sim.stats().misses, 1, "line must be cold again after reset");
    }

    #[test]
    fn scattered_accesses_miss_more_than_sequential() {
        // The property Figure 14 rests on: a scattered object graph touches
        // more lines than a flat sequential buffer holding the same payload.
        let mut seq = CacheSim::new(CacheConfig::tiny());
        let mut scattered = CacheSim::new(CacheConfig::tiny());
        for i in 0..512u64 {
            seq.access(AccessKind::NativeRead, i * 8, 8); // packed
            scattered.access(AccessKind::ManagedRead, i * 192, 8); // one line per record
        }
        assert!(scattered.stats().misses > 4 * seq.stats().misses);
    }

    #[test]
    fn zero_length_access_still_touches_one_line() {
        let mut sim = CacheSim::new(CacheConfig::tiny());
        sim.access(AccessKind::NativeRead, 100, 0);
        assert_eq!(sim.stats().accesses, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_is_rejected() {
        let _ = CacheSim::new(CacheConfig {
            capacity_bytes: 150,
            ways: 1,
            line_bytes: 50,
        });
    }
}
