//! The shared morsel scheduler: fixed-size morsels handed out to pool
//! workers by a shared cursor, gathered in morsel order.
//!
//! The paper leaves parallel execution to future work (§4, §9) but observes
//! that its database-style plan shape makes standard parallelisation
//! directly applicable. Every parallel path in this workspace — the native
//! engine's partitioned probe scan, the compiled-C# fused loops over managed
//! objects, the hybrid engine's parallel staging and the hash-partitioned
//! join builds — follows the same morsel-driven recipe (Leis et al.,
//! "Morsel-Driven Parallelism", SIGMOD 2014):
//!
//! 1. split the input `0..total` into contiguous fixed-size *morsels* of
//!    [`ParallelConfig::morsel_rows`] rows ([`morsels`]), handed out by a
//!    shared atomic cursor so idle workers steal the remaining work,
//! 2. run the morsels on the **persistent worker pool**
//!    ([`crate::pool::WorkerPool`]) — long-lived threads shared by every
//!    query; the calling thread participates, and nothing is spawned per
//!    query — producing one partial result per morsel (an execution state,
//!    a staged buffer shard, a scatter bucket, …),
//! 3. gather the partials **in morsel order** (each morsel writes the slot
//!    of its index), so merging stays deterministic and order-sensitive
//!    outputs are bit-identical to a sequential run regardless of which
//!    worker ran which morsel.
//!
//! This module owns steps 1 and 3 and the hand-off to the pool for step 2
//! ([`morsels`], [`dispatch`], and [`run_ordered`] — the one fan-out, with
//! an optional in-order publisher) plus the shared two-phase
//! hash-partitioned build recipe ([`build_hash_shards`]); what a worker
//! computes and how partials merge stays with each engine, and thread
//! lifecycle/fairness live in [`crate::pool`].

use std::ops::Range;

/// Degree-of-parallelism configuration shared by every engine.
///
/// A `threads` value of 1 (the [`ParallelConfig::sequential`] default used
/// by the provider) always takes the engines' sequential paths, so results
/// and timings are bit-identical to the unparallelised seed code.
///
/// # Examples
///
/// ```
/// use mrq_common::ParallelConfig;
///
/// // Sequential: what the provider defaults to — never touches the pool.
/// assert!(ParallelConfig::sequential().is_sequential());
///
/// // 8 workers sharing a cursor over 16k-row morsels.
/// let cfg = ParallelConfig::with_threads(8).with_morsel_rows(16 * 1024);
/// assert_eq!(cfg.threads, 8);
/// assert_eq!(cfg.morsel_rows, 16 * 1024);
///
/// // Tiny inputs never split: below `min_rows_per_thread`, one partition.
/// assert_eq!(cfg.partitions_for(100), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Number of worker threads (1 falls back to the sequential path).
    pub threads: usize,
    /// Minimum number of probe-side rows per worker; partitions smaller than
    /// this are not split further, so tiny inputs do not pay thread overhead.
    pub min_rows_per_thread: usize,
    /// Rows per morsel. Smaller morsels balance skewed work better but pay
    /// more dispatch/merge overhead; the default (32k rows, the middle of
    /// the classic 16–64k band) keeps dispatch cost negligible while still
    /// splitting any input worth parallelising.
    pub morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            min_rows_per_thread: 4096,
            morsel_rows: 32 * 1024,
        }
    }
}

impl ParallelConfig {
    /// A configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            ..ParallelConfig::default()
        }
    }

    /// The single-threaded configuration: every engine takes its sequential
    /// path, matching the seed engines exactly.
    pub fn sequential() -> Self {
        ParallelConfig {
            threads: 1,
            min_rows_per_thread: usize::MAX,
            morsel_rows: 32 * 1024,
        }
    }

    /// The same configuration with the given morsel size (rows handed out
    /// per cursor claim; clamped to at least 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// The default configuration with the worker count overridden by
    /// `MRQ_THREADS`. Unset or unparsable values leave the default
    /// untouched.
    ///
    /// This is how the CI matrix drives the parallel paths: the test jobs
    /// export `MRQ_THREADS` and the suites build their configs through
    /// `from_env`, so every thread count is exercised on every push rather
    /// than only where a test hardcodes it.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::ParallelConfig;
    ///
    /// // With MRQ_THREADS unset this is ParallelConfig::default().
    /// let config = ParallelConfig::from_env();
    /// assert!(config.threads >= 1);
    /// assert_eq!(config.morsel_rows, ParallelConfig::default().morsel_rows);
    /// ```
    pub fn from_env() -> Self {
        let threads = std::env::var("MRQ_THREADS").ok();
        match threads.and_then(|t| t.trim().parse().ok()) {
            Some(threads) => ParallelConfig::with_threads(threads),
            None => ParallelConfig::default(),
        }
    }

    /// True if this configuration never spawns workers.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// The number of workers to use for `rows` input rows.
    pub fn partitions_for(&self, rows: usize) -> usize {
        if self.threads <= 1 || rows == 0 {
            return 1;
        }
        let by_size = rows.div_ceil(self.min_rows_per_thread.max(1));
        self.threads.min(by_size).max(1)
    }
}

/// Splits `0..total` into fixed-size morsels of (at most)
/// [`ParallelConfig::morsel_rows`] rows each. The morsel size shrinks when
/// needed so every eligible worker gets at least one morsel; inputs too
/// small to parallelise return a single range.
pub fn morsels(total: usize, config: ParallelConfig) -> Vec<Range<usize>> {
    let workers = config.partitions_for(total);
    if workers <= 1 {
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..total];
    }
    let size = config
        .morsel_rows
        .max(1)
        .min(total.div_ceil(workers))
        .max(1);
    (0..total.div_ceil(size))
        .map(|m| (m * size)..((m + 1) * size).min(total))
        .collect()
}

/// The morsel fan-out: runs `worker(morsel_index, range)` once per range on
/// the persistent worker pool, using at most `max_workers` workers (pool
/// threads plus the calling thread), and returns the partials **in morsel
/// order**. The pool's shared cursor hands the next unclaimed morsel to
/// whichever worker asks first, so a worker stuck on a dense (slow) morsel
/// never blocks the others from draining the rest of the input; each
/// partial lands in the slot of its morsel index, so the gather is
/// deterministic however that race resolved.
///
/// With a `publish` callback this is also the streaming gather: `publish`
/// runs on every partial *in morsel order, as soon as all earlier slots
/// have been published* — not at the end of the fan-out — so a consumer
/// sees the sequential row order while later morsels still run. It gets
/// `&mut T` so it can drain the publishable part of the partial (e.g.
/// materialized rows) and leave the rest for the final merge. The worker
/// that completes the lowest unpublished slot advances the frontier over
/// every contiguously completed slot while holding the frontier lock — so a
/// `publish` that blocks (a bounded channel under backpressure) stalls the
/// frontier and, transitively, every worker that finishes its morsel
/// meanwhile: that is the intended backpressure path, and it stays
/// cancellable because channel sends re-check the query's token.
///
/// Zero or one range, or one worker, runs (and publishes) on the calling
/// thread between morsels without touching the pool — the sequential shape.
pub fn run_ordered<T, F, P>(
    ranges: &[Range<usize>],
    max_workers: usize,
    worker: F,
    publish: Option<P>,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
    P: Fn(usize, &mut T) + Sync,
{
    // Lifecycle control ([`crate::cancel`]): a query submitted with a
    // cancel token/deadline installs a scope on the thread driving it; the
    // fan-out inherits the token (workers then check it between morsels)
    // and the query's QoS class (its tickets queue under that class).
    if ranges.len() <= 1 || max_workers <= 1 {
        return ranges
            .iter()
            .enumerate()
            .map(|(i, r)| {
                crate::cancel::checkpoint();
                let mut partial = worker(i, r.clone());
                if let Some(publish) = &publish {
                    publish(i, &mut partial);
                }
                partial
            })
            .collect();
    }
    let control = crate::cancel::current();
    let (class, token) = match &control {
        Some(control) => (control.class, Some(std::sync::Arc::clone(&control.token))),
        None => (crate::qos::QosClass::default(), None),
    };
    // One slot per morsel: each index is handed out exactly once by the
    // pool's cursor, so every slot lock is uncontended (noise next to a
    // multi-thousand-row morsel) and the completion latch inside
    // `run_morsels_as` orders all writes before the gather. A `Mutex` rather
    // than `OnceLock` keeps the public bound at `T: Send` (partials need
    // not be `Sync`).
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        ranges.iter().map(|_| std::sync::Mutex::new(None)).collect();
    // The publication frontier: index of the first slot not yet published.
    // Only the holder of this lock publishes, so `publish` calls are
    // serialized and strictly ascending — the in-order guarantee.
    let frontier = std::sync::Mutex::new(0usize);
    crate::pool::WorkerPool::global().run_morsels_as(
        ranges.len(),
        max_workers,
        class,
        token,
        &|m| {
            let partial = worker(m, ranges[m].clone());
            *slots[m].lock().unwrap_or_else(|e| e.into_inner()) = Some(partial);
            let Some(publish) = &publish else {
                return;
            };
            // Advance the frontier over every contiguously completed slot.
            // The slot store above happens-before this attempt, so whichever
            // worker completes the lowest missing slot publishes the run.
            let mut next = frontier.lock().unwrap_or_else(|e| e.into_inner());
            while *next < slots.len() {
                let mut slot = slots[*next].lock().unwrap_or_else(|e| e.into_inner());
                match slot.as_mut() {
                    Some(partial) => publish(*next, partial),
                    None => break,
                }
                drop(slot);
                *next += 1;
            }
        },
    );
    // An abandoned fan-out (cancelled or past deadline) leaves empty slots;
    // unwind with the reason before the gather can observe them. The
    // serving layer catches this at the query boundary.
    crate::cancel::checkpoint();
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every morsel produced exactly one partial")
        })
        .collect()
}

/// Splits `0..total` into [`morsels`] per `config`, fans them out on at
/// most `config.threads` workers ([`run_ordered`] without a publisher), and
/// returns the partials in morsel order.
pub fn dispatch<T, F>(total: usize, config: ParallelConfig, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    run_ordered(
        &morsels(total, config),
        config.threads,
        worker,
        None::<fn(usize, &mut T)>,
    )
}

/// The shared two-phase hash-partitioned build used by join tables and
/// pre-built indexes:
///
/// 1. **Scan/scatter** — morsel workers walk `0..total` ([`dispatch`]) and
///    call `scatter_rows(range, buckets)` to drop `(key, row)` pairs into
///    the per-shard bucket the caller's hash routing selects. Partials come
///    back in morsel order, so each shard's buckets concatenate with rows
///    still ascending.
/// 2. **Finalise** — through the same fan-out, one shard per morsel, each
///    shard is built into an independent map (no two workers ever touch the
///    same shard, so there is nothing to lock or merge), using at most the
///    same worker budget as phase 1.
///
/// Returns the per-shard maps in shard order; per-key row lists are in
/// ascending row order, identical to a sequential insert-in-row-order build.
pub fn build_hash_shards<K, F>(
    total: usize,
    config: ParallelConfig,
    shard_count: usize,
    scatter_rows: F,
) -> Vec<crate::hash::FxHashMap<K, Vec<usize>>>
where
    K: std::hash::Hash + Eq + Copy + Send + Sync,
    F: Fn(Range<usize>, &mut [Vec<(K, usize)>]) + Sync,
{
    let partials: Vec<Vec<Vec<(K, usize)>>> = dispatch(total, config, |_, range| {
        let mut buckets: Vec<Vec<(K, usize)>> = vec![Vec::new(); shard_count];
        scatter_rows(range, &mut buckets);
        buckets
    });
    let shards: Vec<Range<usize>> = (0..shard_count).map(|s| s..s + 1).collect();
    run_ordered(
        &shards,
        config.partitions_for(total),
        |shard, _| {
            let cap: usize = partials.iter().map(|p| p[shard].len()).sum();
            let mut map: crate::hash::FxHashMap<K, Vec<usize>> =
                crate::hash::FxHashMap::with_capacity_and_hasher(cap, Default::default());
            for bucket in partials.iter().map(|p| &p[shard]) {
                for (key, row) in bucket {
                    map.entry(*key).or_default().push(*row);
                }
            }
            map
        },
        None::<fn(usize, &mut _)>,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn config(threads: usize, min_rows: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            min_rows_per_thread: min_rows,
            ..ParallelConfig::default()
        }
    }

    #[test]
    fn partitions_cover_the_input_contiguously() {
        for total in [0usize, 1, 7, 100, 4097, 8193, 100_000] {
            for threads in [1usize, 2, 3, 8] {
                let cfg = config(threads, 64).with_morsel_rows(1000);
                let ranges = morsels(total, cfg);
                assert!(!ranges.is_empty());
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, total);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "contiguous, in order");
                }
                assert!(ranges.len() >= cfg.partitions_for(total));
            }
        }
    }

    #[test]
    fn small_inputs_do_not_split() {
        let config = config(8, 4096);
        assert_eq!(config.partitions_for(100), 1);
        assert_eq!(config.partitions_for(0), 1);
        assert_eq!(config.partitions_for(10_000), 3);
        assert_eq!(ParallelConfig::with_threads(1).partitions_for(1_000_000), 1);
        assert!(ParallelConfig::sequential().is_sequential());
    }

    #[test]
    fn morsels_are_fixed_size_and_cover_the_input() {
        let cfg = config(4, 16).with_morsel_rows(100);
        let ranges = morsels(1_050, cfg);
        assert_eq!(ranges.len(), 11);
        assert!(ranges[..10].iter().all(|r| r.len() == 100));
        assert_eq!(ranges[10].len(), 50);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 1_050);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Tiny inputs stay sequential; morsel size shrinks so every worker
        // gets at least one morsel when the input is worth splitting.
        assert_eq!(morsels(10, config(4, 4096)).len(), 1);
        assert!(morsels(64, config(4, 16).with_morsel_rows(1_000_000)).len() >= 4);
    }

    #[test]
    fn worker_indexes_match_positions() {
        let idx = dispatch(300, config(3, 1), |i, _| i);
        assert!(idx.len() > 1);
        assert_eq!(idx, (0..idx.len()).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_gathers_partials_in_morsel_order() {
        for threads in [1usize, 3, 4] {
            let cfg = config(threads, 1).with_morsel_rows(37);
            for total in [0usize, 1, 36, 37, 38, 300, 1_000, 10_007] {
                let partials = dispatch(total, cfg, |i, range| {
                    (i, range.start, range.sum::<usize>())
                });
                // Slot-table gather: the partial of morsel i sits at
                // position i, and ranges ascend.
                for (pos, (i, _, _)) in partials.iter().enumerate() {
                    assert_eq!(pos, *i);
                }
                let starts: Vec<usize> = partials.iter().map(|(_, s, _)| *s).collect();
                let mut sorted = starts.clone();
                sorted.sort_unstable();
                assert_eq!(starts, sorted);
                let sum: usize = partials.iter().map(|(_, _, s)| s).sum();
                assert_eq!(sum, (0..total).sum::<usize>(), "total = {total}");
            }
        }
    }

    #[test]
    fn run_ordered_publishes_every_slot_in_ascending_order() {
        for workers in [1usize, 2, 4, 8] {
            let ranges: Vec<Range<usize>> = (0..9).map(|i| i * 13..(i + 1) * 13).collect();
            let published = std::sync::Mutex::new(Vec::new());
            let partials = run_ordered(
                &ranges,
                workers,
                |m, range| (m, range.sum::<usize>()),
                Some(|m, partial: &mut (usize, usize)| {
                    // Drain the publishable half; the final gather must still
                    // see the partial (with the drained part zeroed).
                    let sum = std::mem::take(&mut partial.1);
                    published
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((m, sum));
                }),
            );
            let published = published.into_inner().unwrap_or_else(|e| e.into_inner());
            let order: Vec<usize> = published.iter().map(|(m, _)| *m).collect();
            assert_eq!(order, (0..9).collect::<Vec<_>>(), "workers = {workers}");
            let total: usize = published.iter().map(|(_, s)| *s).sum();
            assert_eq!(total, (0..9 * 13).sum::<usize>());
            for (pos, (m, drained)) in partials.iter().enumerate() {
                assert_eq!(pos, *m, "slot-table order preserved");
                assert_eq!(*drained, 0, "publish drained each partial once");
            }
        }
    }

    #[test]
    fn hash_shard_build_matches_a_sequential_insert() {
        // Route keys to 4 shards by low bits; per-key row lists must come
        // back in ascending row order whichever worker built which shard.
        for threads in [1usize, 2, 3] {
            let cfg = config(threads, 16).with_morsel_rows(100);
            let shards = build_hash_shards(10_000, cfg, 4, |range, buckets| {
                for row in range {
                    let key = (row % 37) as u64;
                    buckets[(key % 4) as usize].push((key, row));
                }
            });
            assert_eq!(shards.len(), 4);
            let total: usize = shards.iter().flat_map(|s| s.values()).map(Vec::len).sum();
            assert_eq!(total, 10_000);
            for (s, shard) in shards.iter().enumerate() {
                for (key, rows) in shard {
                    assert_eq!((key % 4) as usize, s, "key routed to its shard");
                    assert!(
                        rows.windows(2).all(|w| w[0] < w[1]),
                        "rows ascend (threads={threads})"
                    );
                    assert!(rows.iter().all(|r| (r % 37) as u64 == *key));
                }
            }
        }
    }

    #[test]
    fn from_env_reads_only_mrq_threads() {
        // Narrow env-mutation window; no other test in this crate touches
        // MRQ_* variables.
        std::env::set_var("MRQ_THREADS", "3");
        let config = ParallelConfig::from_env();
        std::env::remove_var("MRQ_THREADS");
        assert_eq!(config, ParallelConfig::with_threads(3));
        // Unset variables leave the defaults in place.
        assert_eq!(ParallelConfig::from_env(), ParallelConfig::default());
    }

    #[test]
    fn dispatch_under_a_tripped_scope_unwinds_with_the_reason() {
        use crate::cancel::{self, CancelReason, CancelToken, JobControl};
        let token = std::sync::Arc::new(CancelToken::new());
        token.cancel();
        let control = JobControl {
            token,
            class: crate::qos::QosClass::Interactive,
        };
        let hits = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cancel::scope(control, || {
                dispatch(10_000, config(4, 1).with_morsel_rows(64), |_, _| {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
            })
        }));
        let payload = result.expect_err("tripped dispatch must unwind");
        assert_eq!(
            *payload.downcast::<CancelReason>().expect("reason payload"),
            CancelReason::Cancelled
        );
        assert_eq!(hits.load(Ordering::Relaxed), 0, "no morsel ran");
    }

    #[test]
    fn skewed_morsels_drain_through_the_shared_cursor() {
        // One deliberately slow morsel must not serialise the rest: every
        // morsel is still processed exactly once and the gather stays in
        // morsel order even when later morsels finish first.
        let cfg = config(4, 1).with_morsel_rows(10);
        let hits = AtomicUsize::new(0);
        let partials = dispatch(100, cfg, |i, range| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            hits.fetch_add(1, Ordering::Relaxed);
            range.len()
        });
        assert_eq!(hits.load(Ordering::Relaxed), partials.len());
        assert_eq!(partials.iter().sum::<usize>(), 100);
    }
}
