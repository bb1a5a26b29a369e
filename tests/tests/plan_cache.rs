//! Deterministic behaviour suite for the sharded LRU plan cache behind
//! [`Provider::prepare`]: counter exactness, LRU eviction order at capacity
//! 1 and N, key sensitivity (literals must *not* miss; strategy and schema
//! changes must), and a concurrent prepare/execute stress test.
//!
//! Shard-level determinism comes from
//! [`PlanCacheConfig::single_shard`]: with one shard the eviction order is
//! the global LRU order, so the suite can assert exact hit/miss/eviction
//! counts rather than bounds.

use mrq_common::{DataType, Field, Schema, Value};
use mrq_core::{PlanCache, PlanCacheConfig, Provider, QueryOptions, Strategy};
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use std::sync::Arc;

fn store(n: i64) -> RowStore {
    let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int64(i)]).collect();
    RowStore::from_rows(schema, &rows)
}

/// A family of structurally distinct statements over one source: each
/// comparison operator gives a different canonical shape (operators are part
/// of the structure; literals are not).
fn shape(op: BinaryOp, threshold: i64) -> Expr {
    Query::from_source(SourceId(0))
        .where_(lam("x", Expr::binary(op, col("x", "n"), lit(threshold))))
        .select(lam("x", col("x", "n")))
        .into_expr()
}

/// The headline serving contract: after N prepare-and-execute rounds of one
/// query shape, the cache shows exactly 1 miss and N-1 hits — a hit rate of
/// (N-1)/N — and every round returns correct rows.
#[test]
fn hit_rate_is_n_minus_one_over_n_for_one_shape() {
    let data = store(100);
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &data);
    provider.set_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::default())));

    const N: u64 = 16;
    for i in 0..N {
        // The server model: each request arrival re-prepares its shape (a
        // cache hit after the first) and executes with its own bindings.
        let prepared = provider
            .prepare(shape(BinaryOp::Lt, 10), Strategy::CompiledNative)
            .expect("prepare");
        let want = 10 + (i as usize % 3);
        let out = prepared
            .execute(&[Value::Int64(want as i64)])
            .expect("execute");
        assert_eq!(out.rows.len(), want);
    }
    let stats = provider.plan_cache_stats();
    assert_eq!(stats.misses, 1, "exactly one compilation");
    assert_eq!(stats.hits, N - 1, "every later prepare hits");
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.evictions, 0);
    assert!(stats.hit_rate() >= (N - 1) as f64 / N as f64);
}

/// Literal values are lifted into parameter slots before keying: differing
/// literals of one shape share a plan (hit), while a different operator is a
/// different shape (miss).
#[test]
fn literals_share_a_plan_but_structure_does_not() {
    let data = store(50);
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &data);
    provider.set_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::default())));

    provider
        .prepare(shape(BinaryOp::Lt, 3), Strategy::CompiledNative)
        .expect("first");
    provider
        .prepare(shape(BinaryOp::Lt, 44), Strategy::CompiledNative)
        .expect("same shape, different literal");
    let stats = provider.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));

    provider
        .prepare(shape(BinaryOp::Ge, 3), Strategy::CompiledNative)
        .expect("different operator");
    let stats = provider.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.entries), (2, 1, 2));
}

/// Strategy is part of the key: the same statement prepared under two
/// strategies (including two parallel configurations of one strategy)
/// occupies distinct entries.
#[test]
fn strategy_change_is_a_cache_miss() {
    let data = store(50);
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &data);
    provider.set_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::default())));

    let parallel = mrq_common::ParallelConfig::with_threads(4);
    for strategy in [
        Strategy::CompiledNative,
        Strategy::CompiledNativeParallel(parallel),
        Strategy::CompiledNativeParallel(parallel.with_morsel_rows(1024)),
    ] {
        provider
            .prepare(shape(BinaryOp::Lt, 7), strategy)
            .expect("prepare");
    }
    let stats = provider.plan_cache_stats();
    assert_eq!(stats.misses, 3, "each strategy compiles its own plan");
    assert_eq!(stats.entries, 3);

    // Re-preparing any of them is now a hit.
    provider
        .prepare(
            shape(BinaryOp::Lt, 99),
            Strategy::CompiledNativeParallel(parallel),
        )
        .expect("re-prepare");
    assert_eq!(provider.plan_cache_stats().hits, 1);
}

/// Source schema is part of the key: two providers sharing one cache but
/// binding the same source id to different schemas must not share plans.
#[test]
fn schema_change_is_a_cache_miss() {
    let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));

    let narrow = store(50);
    let mut provider_a = Provider::new();
    provider_a.bind_native(SourceId(0), &narrow);
    provider_a.set_plan_cache(Arc::clone(&cache));

    let wide_schema = Schema::new(
        "N",
        vec![
            Field::new("n", DataType::Int64),
            Field::new("m", DataType::Int64),
        ],
    );
    let wide_rows: Vec<Vec<Value>> = (0..50)
        .map(|i| vec![Value::Int64(i), Value::Int64(i * 2)])
        .collect();
    let wide = RowStore::from_rows(wide_schema, &wide_rows);
    let mut provider_b = Provider::new();
    provider_b.bind_native(SourceId(0), &wide);
    provider_b.set_plan_cache(Arc::clone(&cache));

    let a = provider_a
        .prepare(shape(BinaryOp::Lt, 10), Strategy::CompiledNative)
        .expect("narrow prepare");
    let b = provider_b
        .prepare(shape(BinaryOp::Lt, 10), Strategy::CompiledNative)
        .expect("wide prepare");
    let stats = cache.stats();
    assert_eq!(stats.misses, 2, "schema difference forces a second plan");
    assert_eq!(stats.entries, 2);
    assert_eq!(a.execute(&[]).expect("narrow").rows.len(), 10);
    assert_eq!(b.execute(&[]).expect("wide").rows.len(), 10);
}

/// LRU eviction at capacity 1: every distinct shape displaces the previous
/// one, so counters are exact and re-preparing an evicted shape recompiles.
#[test]
fn lru_eviction_at_capacity_one() {
    let data = store(50);
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &data);
    provider.set_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::single_shard(1))));

    let a = shape(BinaryOp::Lt, 1);
    let b = shape(BinaryOp::Ge, 1);
    provider
        .prepare(a.clone(), Strategy::CompiledNative)
        .expect("a"); // miss
    provider
        .prepare(b.clone(), Strategy::CompiledNative)
        .expect("b"); // miss, evicts a
    provider
        .prepare(a, Strategy::CompiledNative)
        .expect("a again"); // miss, evicts b
    let stats = provider.plan_cache_stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.entries, 1);
}

/// LRU eviction order at capacity N: a prepare-time hit refreshes recency,
/// so the cold entry is the one displaced.
#[test]
fn lru_eviction_order_at_capacity_n() {
    let data = store(50);
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &data);
    provider.set_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::single_shard(2))));

    let a = shape(BinaryOp::Lt, 1);
    let b = shape(BinaryOp::Ge, 1);
    let c = shape(BinaryOp::Gt, 1);
    provider
        .prepare(a.clone(), Strategy::CompiledNative)
        .expect("a"); // miss: [a]
    provider
        .prepare(b.clone(), Strategy::CompiledNative)
        .expect("b"); // miss: [a, b]
    provider
        .prepare(a.clone(), Strategy::CompiledNative)
        .expect("touch a"); // hit: [b, a]
    provider.prepare(c, Strategy::CompiledNative).expect("c"); // miss, evicts b: [a, c]
    let stats = provider.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.evictions), (3, 1, 1));

    // a survived (hit), b was evicted (miss again).
    provider
        .prepare(a, Strategy::CompiledNative)
        .expect("a survives");
    assert_eq!(provider.plan_cache_stats().hits, 2);
    provider
        .prepare(b, Strategy::CompiledNative)
        .expect("b recompiles");
    assert_eq!(provider.plan_cache_stats().misses, 4);
}

/// An evicted plan still held by a [`mrq_core::PreparedQuery`] keeps
/// executing — eviction bounds the cache, not outstanding handles.
#[test]
fn evicted_plans_remain_valid_for_outstanding_handles() {
    let data = store(50);
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &data);
    provider.set_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig::single_shard(1))));

    let held = provider
        .prepare(shape(BinaryOp::Lt, 5), Strategy::CompiledNative)
        .expect("held");
    provider
        .prepare(shape(BinaryOp::Ge, 5), Strategy::CompiledNative)
        .expect("displaces held");
    assert_eq!(provider.plan_cache_stats().evictions, 1);
    assert_eq!(
        held.execute(&[Value::Int64(20)])
            .expect("still valid")
            .rows
            .len(),
        20
    );
}

/// Under-binding a prepared plan is an error, not a panic — on the blocking
/// path and through the pool (where a panic would poison a worker).
#[test]
fn under_binding_errors_instead_of_panicking() {
    let data = store(50);
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &data);

    // Two literals ⇒ two parameter slots.
    let two_slot = Query::from_source(SourceId(0))
        .where_(lam(
            "x",
            Expr::binary(
                BinaryOp::And,
                Expr::binary(BinaryOp::Ge, col("x", "n"), lit(10i64)),
                Expr::binary(BinaryOp::Lt, col("x", "n"), lit(20i64)),
            ),
        ))
        .select(lam("x", col("x", "n")))
        .into_expr();
    let prepared = provider
        .prepare(two_slot, Strategy::CompiledNative)
        .expect("prepare");
    assert_eq!(prepared.param_slots(), 2);
    assert_eq!(prepared.defaults().len(), 2);

    let err = prepared.execute(&[Value::Int64(10)]).unwrap_err();
    assert!(
        err.to_string().contains("parameter slot"),
        "informative arity error, got: {err}"
    );
    // The submitted path resolves the handle with the same error.
    let handle = prepared.submit(&[Value::Int64(10)], QueryOptions::new());
    assert!(handle.join().is_err());
    // Full bindings work.
    assert_eq!(
        prepared
            .execute(&[Value::Int64(10), Value::Int64(20)])
            .expect("bound")
            .rows
            .len(),
        10
    );
}

/// Eight clients hammering one shared provider: every thread prepares and
/// executes every shape repeatedly. No compilation is lost (every shape
/// lands in the cache exactly once), no lookup is miscounted, and every
/// execution returns correct rows. Misses may exceed the shape count only
/// by benign first-insert races, never entries.
#[test]
fn concurrent_prepare_execute_stress() {
    let data = Arc::new(store(200));
    let provider = {
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), Arc::clone(&data));
        provider.set_plan_cache(Arc::new(PlanCache::new(PlanCacheConfig {
            shards: 4,
            capacity_per_shard: 32,
        })));
        provider.into_shared()
    };

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 8;
    let ops = [BinaryOp::Lt, BinaryOp::Le, BinaryOp::Gt, BinaryOp::Ge];
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let provider = provider.clone();
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for &op in &ops {
                        let prepared = provider
                            .prepare(shape(op, 1), Strategy::CompiledNative)
                            .expect("prepare");
                        let threshold = ((t * ROUNDS + round) % 100) as i64;
                        let out = prepared
                            .execute(&[Value::Int64(threshold)])
                            .expect("execute");
                        let want = match op {
                            BinaryOp::Lt => threshold,
                            BinaryOp::Le => threshold + 1,
                            BinaryOp::Gt => 200 - threshold - 1,
                            BinaryOp::Ge => 200 - threshold,
                            _ => unreachable!(),
                        };
                        assert_eq!(out.rows.len(), want as usize, "{op:?} < {threshold}");
                    }
                }
            });
        }
    });

    let stats = provider.plan_cache_stats();
    assert_eq!(stats.entries, ops.len(), "one cached plan per shape");
    assert_eq!(
        stats.hits + stats.misses,
        (CLIENTS * ROUNDS * ops.len()) as u64,
        "every prepare counted exactly once"
    );
    assert!(stats.misses >= ops.len() as u64);
    // Racing first-compiles are bounded by the client count per shape.
    assert!(stats.misses <= (CLIENTS * ops.len()) as u64);
    assert_eq!(stats.evictions, 0);
}

/// The owned front end: a prepared plan over a sealed provider serves
/// concurrent queued executions with correct, binding-dependent results.
#[test]
fn owned_prepared_async_executions_agree_with_blocking() {
    let data = Arc::new(store(100));
    let provider = {
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), Arc::clone(&data));
        provider.into_shared()
    };
    let prepared = provider
        .prepare(shape(BinaryOp::Lt, 10), Strategy::CompiledNative)
        .expect("prepare");

    let futures: Vec<_> = (0..16)
        .map(|i| {
            (
                i,
                prepared.submit(&[Value::Int64(i as i64)], QueryOptions::new()),
            )
        })
        .collect();
    for (i, future) in futures {
        assert_eq!(future.join().expect("async").rows.len(), i);
        assert_eq!(
            prepared
                .execute(&[Value::Int64(i as i64)])
                .expect("blocking")
                .rows
                .len(),
            i
        );
    }
    assert_eq!(provider.plan_cache_stats().entries, 1);
}

/// Poison recovery: a panic raised *inside* a shard's mutex (here from a
/// key whose `PartialEq` explodes mid-`touch`) must not take the cache
/// down. Later operations on the same shard recover the poisoned lock,
/// keep serving hits, keep counting consistently, and accept new entries.
#[test]
fn a_poisoned_shard_recovers_and_keeps_serving() {
    use mrq_common::plancache::{CacheConfig, ShardedLru};
    use std::hash::{Hash, Hasher};

    /// Hashes only by `id` (so every key lands in the one shard) and
    /// panics out of `PartialEq` when armed — poisoning the shard mutex
    /// at the exact point `touch` holds it.
    #[derive(Clone)]
    struct BombKey {
        id: u64,
        armed: bool,
    }
    impl Hash for BombKey {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.id.hash(state);
        }
    }
    impl PartialEq for BombKey {
        fn eq(&self, other: &Self) -> bool {
            if self.armed || other.armed {
                panic!("key comparison exploded under the shard lock");
            }
            self.id == other.id
        }
    }
    impl Eq for BombKey {}

    fn key(id: u64) -> BombKey {
        BombKey { id, armed: false }
    }

    let cache: ShardedLru<BombKey, u64> = ShardedLru::new(CacheConfig::single_shard(4));
    cache.insert(key(1), Arc::new(10));
    cache.insert(key(2), Arc::new(20));
    assert_eq!(cache.get(&key(1)).as_deref(), Some(&10));

    // Poison the shard: the armed key panics while `touch` holds the lock.
    let armed = BombKey { id: 3, armed: true };
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.get(&armed)));
    assert!(panicked.is_err(), "the armed key must panic");

    // The poisoned mutex is recovered on the next lock: existing entries
    // still hit, stats stay exact, and new entries still insert.
    assert_eq!(cache.get(&key(1)).as_deref(), Some(&10));
    assert_eq!(cache.get(&key(2)).as_deref(), Some(&20));
    cache.insert(key(3), Arc::new(30));
    assert_eq!(cache.get(&key(3)).as_deref(), Some(&30));
    let stats = cache.stats();
    assert_eq!(stats.hits, 4, "one hit before the poison, three after");
    assert_eq!(stats.misses, 0, "the panicking lookup counted nothing");
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.evictions, 0);
}
