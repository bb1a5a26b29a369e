//! Deterministic per-query work accounting.
//!
//! The build/CI host has a single CPU, so wall-clock comparisons between
//! strategies are noise-bound there. This module provides the counted
//! alternative (in the spirit of callgrind-style instruction counting):
//! every fused loop increments a small set of [`WorkCounters`] — rows
//! scanned, hash-build inserts, probe lookups, key comparisons, rows
//! materialized, morsels executed, staging copies, batches/rows streamed —
//! and the per-worker counters aggregate per query into the [`WorkStats`]
//! surfaced on the final query output.
//!
//! # Determinism contract
//!
//! For a fixed query, data set and strategy, every counter except
//! [`WorkCounters::morsels_executed`] is **invariant across thread counts
//! and morsel sizes**: parallel execution partitions the
//! same probe scan into disjoint ranges, so per-range counters sum to the
//! sequential totals exactly. `morsels_executed` is the one documented
//! exception — it counts how the scan was *partitioned*, which is exactly
//! what changes with the scheduler shape. Tests and the counted bench mode
//! compare [`WorkCounters::partition_invariant`] snapshots when they need
//! cross-scheduler bit-identity.
//!
//! Counters are plain `u64` fields bumped through `#[inline]` accessors;
//! in the fused loops they compile to a register increment with no branch,
//! so the accounting is cheap enough to stay on permanently.

/// Per-worker (and, after merging, per-query) deterministic work counters.
///
/// Each parallel worker owns a forked counter set (forks start at zero);
/// partial states merge with [`WorkCounters::add`], so totals are
/// independent of which worker ran which morsel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct WorkCounters {
    /// Rows read from base tables: probe-side rows consumed plus build-side
    /// rows scanned while constructing join hash tables (and, for the
    /// interpreted baseline, elements pulled through the enumerable chain).
    pub rows_scanned: u64,
    /// Rows inserted into join hash tables (rows surviving build filters).
    pub build_inserts: u64,
    /// Hash-table lookups performed while probing joins.
    pub probe_lookups: u64,
    /// Encoded key parts compared/hashed across all probe lookups.
    pub key_comparisons: u64,
    /// Rows that survived every filter and join and reached the output
    /// (group update, top-N offer or plain materialization).
    pub rows_materialized: u64,
    /// Execution chunks processed (one per sequential pass, one per
    /// parallel morsel, one per staged chunk in the hybrid engine). The
    /// only counter that legitimately varies with [`crate::ParallelConfig`].
    pub morsels_executed: u64,
    /// Rows copied into hybrid staging buffers (§6 staging cost).
    pub staging_copies: u64,
    /// Row batches published through a streamed query's channel (the final
    /// short batch counts). Partition-invariant: batches are re-chunked
    /// from the total ordered row sequence by [`crate::stream`], so the
    /// count depends only on rows and `stream_batch_rows`, not scheduling.
    pub batches_streamed: u64,
    /// Rows published through a streamed query's channel (streamed prefix;
    /// rows returned as the residual `QueryOutput` are not counted here).
    pub rows_streamed: u64,
}

/// The aggregated per-query view of [`WorkCounters`] (same representation;
/// the alias marks aggregation boundaries in signatures).
pub type WorkStats = WorkCounters;

impl WorkCounters {
    /// A zeroed counter set.
    pub const fn new() -> Self {
        WorkCounters {
            rows_scanned: 0,
            build_inserts: 0,
            probe_lookups: 0,
            key_comparisons: 0,
            rows_materialized: 0,
            morsels_executed: 0,
            staging_copies: 0,
            batches_streamed: 0,
            rows_streamed: 0,
        }
    }

    /// Records one row read from a base table.
    #[inline]
    pub fn scanned_row(&mut self) {
        self.rows_scanned += 1;
    }

    /// Records `n` rows read from a base table (bulk accounting for
    /// parallel builds, where totals are derived after the fan-out so they
    /// stay identical to a sequential scan).
    #[inline]
    pub fn scanned_rows(&mut self, n: u64) {
        self.rows_scanned += n;
    }

    /// Records one row inserted into a join hash table.
    #[inline]
    pub fn built_insert(&mut self) {
        self.build_inserts += 1;
    }

    /// Records `n` hash-table inserts (bulk accounting for parallel builds).
    #[inline]
    pub fn built_inserts(&mut self, n: u64) {
        self.build_inserts += n;
    }

    /// Records one probe lookup with a composite key of `key_parts` parts.
    #[inline]
    pub fn probed(&mut self, key_parts: u64) {
        self.probe_lookups += 1;
        self.key_comparisons += key_parts;
    }

    /// Records one row reaching the output stage.
    #[inline]
    pub fn materialized_row(&mut self) {
        self.rows_materialized += 1;
    }

    /// Records one execution chunk (sequential pass, morsel, staged chunk).
    #[inline]
    pub fn executed_morsel(&mut self) {
        self.morsels_executed += 1;
    }

    /// Records `n` rows copied into a staging buffer.
    #[inline]
    pub fn staged_rows(&mut self, n: u64) {
        self.staging_copies += n;
    }

    /// Records a streamed query's channel totals: `batches` published
    /// batches carrying `rows` rows (folded in once, at stream close).
    #[inline]
    pub fn streamed(&mut self, batches: u64, rows: u64) {
        self.batches_streamed += batches;
        self.rows_streamed += rows;
    }

    /// Folds another counter set into this one (parallel merge).
    pub fn add(&mut self, other: &WorkCounters) {
        self.rows_scanned += other.rows_scanned;
        self.build_inserts += other.build_inserts;
        self.probe_lookups += other.probe_lookups;
        self.key_comparisons += other.key_comparisons;
        self.rows_materialized += other.rows_materialized;
        self.morsels_executed += other.morsels_executed;
        self.staging_copies += other.staging_copies;
        self.batches_streamed += other.batches_streamed;
        self.rows_streamed += other.rows_streamed;
    }

    /// This counter set with the partitioning-dependent counter
    /// ([`WorkCounters::morsels_executed`]) zeroed: the projection that must
    /// be bit-identical across thread counts and morsel sizes for the same
    /// query and data.
    pub fn partition_invariant(&self) -> WorkCounters {
        WorkCounters {
            morsels_executed: 0,
            ..*self
        }
    }

    /// Sum of every counter — a convenient monotone progress measure.
    pub fn total(&self) -> u64 {
        self.as_pairs().iter().map(|(_, v)| *v).sum()
    }

    /// True if no work has been recorded.
    pub fn is_zero(&self) -> bool {
        *self == WorkCounters::new()
    }

    /// The counters as stable `(name, value)` pairs, in declaration order —
    /// the counted bench mode and tests iterate these so metric names stay
    /// in one place.
    pub fn as_pairs(&self) -> [(&'static str, u64); 9] {
        [
            ("rows_scanned", self.rows_scanned),
            ("build_inserts", self.build_inserts),
            ("probe_lookups", self.probe_lookups),
            ("key_comparisons", self.key_comparisons),
            ("rows_materialized", self.rows_materialized),
            ("morsels_executed", self.morsels_executed),
            ("staging_copies", self.staging_copies),
            ("batches_streamed", self.batches_streamed),
            ("rows_streamed", self.rows_streamed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sums_every_counter() {
        let mut a = WorkCounters::new();
        a.scanned_row();
        a.built_insert();
        a.probed(3);
        a.materialized_row();
        a.executed_morsel();
        a.staged_rows(5);
        a.streamed(2, 7);
        let mut b = a;
        b.add(&a);
        for ((name, doubled), (_, single)) in b.as_pairs().iter().zip(a.as_pairs().iter()) {
            assert_eq!(*doubled, single * 2, "{name}");
        }
        assert_eq!(b.total(), a.total() * 2);
    }

    #[test]
    fn partition_invariant_zeroes_only_morsels() {
        let mut w = WorkCounters::new();
        w.scanned_rows(10);
        w.executed_morsel();
        w.executed_morsel();
        w.streamed(1, 10);
        let inv = w.partition_invariant();
        assert_eq!(inv.morsels_executed, 0);
        assert_eq!(inv.rows_scanned, 10);
        // Streaming counters are re-chunked from the total row sequence,
        // so they survive the partition-invariant projection.
        assert_eq!(inv.batches_streamed, 1);
        assert_eq!(inv.rows_streamed, 10);
        assert!(!w.is_zero());
        assert!(WorkCounters::new().is_zero());
    }

    #[test]
    fn pairs_cover_every_field_exactly_once() {
        let mut w = WorkCounters::new();
        w.scanned_row();
        w.built_inserts(2);
        w.probed(4);
        w.materialized_row();
        w.executed_morsel();
        w.staged_rows(6);
        w.streamed(2, 7);
        // 1 + 2 + 1 + 4 + 1 + 1 + 6 + 2 + 7: if a field were missing from
        // `as_pairs` (or double-counted) the total would not match.
        assert_eq!(w.total(), 25);
    }
}
