//! Prints every table and figure series of the paper's evaluation section.
//!
//! Usage:
//! ```text
//! cargo run -p mrq-bench --release --bin figures -- all
//! cargo run -p mrq-bench --release --bin figures -- fig7 fig13 table1
//! MRQ_SF=0.05 cargo run -p mrq-bench --release --bin figures -- all
//! ```
//!
//! An unknown series name fails with exit status 2 before any data loads.

use mrq_bench::*;
use mrq_engine_hybrid::HybridConfig;
use mrq_tpch::gen::scale_from_env;
use mrq_tpch::queries;

/// Every series, in the order `all` (or no argument) prints them.
const SERIES: &str = "fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table1 compile-cost micro \
                      agg-extras parallel extensions";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let series: Vec<&str> = SERIES.split_whitespace().collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        series.clone()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    if let Some(unknown) = wanted.iter().find(|name| !series.contains(name)) {
        eprintln!("unknown figure `{unknown}`; known: all {SERIES}");
        std::process::exit(2);
    }
    let sf = scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    eprintln!("# loading TPC-H at scale factor {sf} (override with MRQ_SF) ...");
    let bench = Workbench::new(sf);
    eprintln!(
        "# loaded: {} lineitem rows, {} orders, {} customers",
        bench.data.lineitem.len(),
        bench.data.orders.len(),
        bench.data.customer.len()
    );
    let selectivities = [0.1, 0.25, 0.5, 0.75, 1.0];

    for figure in wanted {
        match figure {
            "fig7" => {
                let points = fig07_aggregation(&bench, &selectivities);
                println!(
                    "{}",
                    render_points(
                        "Figure 7: aggregation over selection, varying selectivity",
                        &points,
                        "LINQ-to-Objects"
                    )
                );
            }
            "fig8" => {
                let cutoff = bench.data.shipdate_for_selectivity(1.0);
                let (canon, spec) = bench.lower(queries::q1_with_cutoff(cutoff));
                let breakdown =
                    run_hybrid_breakdown(&bench, &canon, &spec, HybridConfig::default());
                println!("== Figure 8: aggregation cost breakdown (C#/C, full staging) ==");
                println!("{}", breakdown.render());
            }
            "fig9" => {
                let points = fig09_sort(&bench, &selectivities);
                println!(
                    "{}",
                    render_points(
                        "Figure 9: sorting over selection, varying selectivity",
                        &points,
                        "LINQ-to-Objects"
                    )
                );
            }
            "fig10" => {
                let cutoff = bench.data.shipdate_for_selectivity(1.0);
                let (canon, spec) = bench.lower(queries::sort_micro(cutoff));
                let breakdown = run_hybrid_breakdown(
                    &bench,
                    &canon,
                    &spec,
                    HybridConfig {
                        materialization: mrq_engine_hybrid::Materialization::Full,
                        transfer: mrq_engine_hybrid::TransferPolicy::Min,
                        ..HybridConfig::default()
                    },
                );
                println!("== Figure 10: sorting cost breakdown (C#/C, Min transfer) ==");
                println!("{}", breakdown.render());
            }
            "fig11" => {
                let points = fig11_join(&bench, &selectivities);
                println!(
                    "{}",
                    render_points(
                        "Figure 11: join over selections, varying selectivity",
                        &points,
                        "LINQ-to-Objects"
                    )
                );
            }
            "fig12" => {
                let date = mrq_common::Date::from_ymd(1995, 3, 15);
                let (canon, spec) = bench.lower(queries::join_micro("BUILDING", date, date));
                let breakdown =
                    run_hybrid_breakdown(&bench, &canon, &spec, HybridConfig::default());
                println!("== Figure 12: join cost breakdown (C#/C, Max transfer) ==");
                println!("{}", breakdown.render());
            }
            "fig13" => {
                let points = fig13_tpch(&bench);
                println!(
                    "{}",
                    render_points(
                        "Figure 13: TPC-H Q1-Q3 evaluation time (vs LINQ-to-objects)",
                        &points,
                        "LINQ-to-Objects"
                    )
                );
            }
            "fig14" => {
                println!("== Figure 14: simulated last-level cache misses ==");
                let rows = fig14_cache(&bench, true);
                let baseline: std::collections::HashMap<String, u64> = rows
                    .iter()
                    .filter(|(s, _, _)| s == "LINQ-to-Objects")
                    .map(|(_, q, m)| (q.clone(), *m))
                    .collect();
                for (strategy, query, misses) in &rows {
                    let pct = *misses as f64 / baseline[query] as f64 * 100.0;
                    println!(
                        "  {query}  {strategy:<20} {misses:>12} misses  {pct:>6.1}% of baseline"
                    );
                }
                println!();
                println!("-- hierarchy breakdown (L1 / L2 / LLC misses, probe-side stream) --");
                for (strategy, query, l1, l2, llc) in fig14_hierarchy(&bench, true) {
                    println!(
                        "  {query}  {strategy:<20} L1 {:>12}   L2 {:>12}   LLC {:>12}",
                        l1.misses, l2.misses, llc.misses
                    );
                }
                println!();
            }
            "agg-extras" => {
                let points = agg_extras_aggregate_sweep(&bench, &[1, 2, 4, 6, 8]);
                println!(
                    "{}",
                    render_points(
                        "§7.1 extras: varying the number of aggregates",
                        &points,
                        "LINQ-to-Objects"
                    )
                );
                println!("== §7.1 extras: staging buffer size (Q1 aggregation) ==");
                for (label, elapsed, staged) in agg_extras_buffer_sweep(&bench, &[256, 2048, 16384])
                {
                    println!(
                        "  {label:<28} {:>10.3} ms   staged {:>12} bytes",
                        elapsed.as_secs_f64() * 1e3,
                        staged
                    );
                }
                println!();
            }
            "parallel" => {
                println!("== Extension: parallel native execution (TPC-H Q1) ==");
                let sweep = parallel_sweep(&bench, &[1, 2, 4, 8]);
                let base = sweep
                    .first()
                    .map(|(_, d, _)| d.as_secs_f64())
                    .unwrap_or(f64::NAN);
                for (threads, elapsed, rows) in sweep {
                    println!(
                        "  {threads:>2} threads   {:>10.3} ms   speed-up {:>5.2}x   ({rows} rows)",
                        elapsed.as_secs_f64() * 1e3,
                        base / elapsed.as_secs_f64()
                    );
                }
                println!();
                println!("== Extension: morsel parallelism across strategies (TPC-H Q1) ==");
                let points = parallel_strategy_sweep(&bench, &[1, 2, 4, 8]);
                let mut strategies: Vec<&str> = Vec::new();
                for p in &points {
                    if !strategies.contains(&p.strategy.as_str()) {
                        strategies.push(&p.strategy);
                    }
                }
                for strategy in strategies {
                    let series: Vec<&Point> =
                        points.iter().filter(|p| p.strategy == strategy).collect();
                    let base = series[0].elapsed.as_secs_f64();
                    print!("  {strategy:<22}");
                    for p in &series {
                        print!(
                            "  {}: {:>8.3} ms ({:>4.2}x)",
                            p.x,
                            p.elapsed.as_secs_f64() * 1e3,
                            base / p.elapsed.as_secs_f64()
                        );
                    }
                    println!();
                }
                println!();
            }
            "extensions" => {
                println!("== Extensions: top-N fusion, join indexes, optimizer, recycling ==");
                for (claim, baseline, improved) in extension_claims(&bench) {
                    let gain = (1.0 - improved.as_secs_f64() / baseline.as_secs_f64()) * 100.0;
                    println!(
                        "  {claim:<60} baseline {:>9.3} ms   improved {:>9.3} ms   gain {gain:>5.1}%",
                        baseline.as_secs_f64() * 1e3,
                        improved.as_secs_f64() * 1e3
                    );
                }
                println!();
            }
            "table1" => {
                println!("== Table 1: comparison to in-memory DBMS architectures ==");
                for (system, query, elapsed) in table1(&bench) {
                    println!(
                        "  {query}  {system:<44} {:>10.3} ms",
                        elapsed.as_secs_f64() * 1e3
                    );
                }
                println!("  Q2  (comparators): not implemented, as in the paper's Hekaton column");
                println!();
            }
            "compile-cost" => {
                println!("== Compile cost (§7.4), measured: cold compile and source emission ==");
                println!("  compiling the emitted source (csc ≈75 ms, gcc ≈720 ms in §7.4) is not reproduced");
                for (query, compile, csharp, c) in compile_costs(&bench) {
                    println!(
                        "  {query:<10} cold compile {:>8.1} µs   emit C# {:>6.1} µs   emit C {:>6.1} µs",
                        compile.as_secs_f64() * 1e6,
                        csharp.as_secs_f64() * 1e6,
                        c.as_secs_f64() * 1e6
                    );
                }
                println!();
            }
            "micro" => {
                println!("== §2.3 micro-claims ==");
                for (claim, baseline, improved) in micro_claims(&bench) {
                    let gain = (1.0 - improved.as_secs_f64() / baseline.as_secs_f64()) * 100.0;
                    println!(
                        "  {claim:<55} baseline {:>9.3} ms   improved {:>9.3} ms   gain {gain:>5.1}%",
                        baseline.as_secs_f64() * 1e3,
                        improved.as_secs_f64() * 1e3
                    );
                }
                println!("== hand-fused ceilings (native engine vs one loop per query) ==");
                let ceilings = fused_ceilings(&bench).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
                for c in ceilings {
                    println!(
                        "  {:<4} engine {:>9.3} ms   hand-fused {:>9.3} ms   ratio {:>5.2}",
                        c.query,
                        c.engine.as_secs_f64() * 1e3,
                        c.fused.as_secs_f64() * 1e3,
                        c.ratio()
                    );
                }
                println!();
            }
            other => unreachable!("series `{other}` was checked before loading"),
        }
    }

    // Sanity: every strategy agrees on Q1's result cardinality.
    let (canon, spec) = bench.lower(queries::q1());
    let mut cardinalities = Vec::new();
    for (_, strategy) in standard_strategies() {
        let (_, out) = run_strategy(&bench, &canon, &spec, strategy);
        cardinalities.push(out.rows.len());
    }
    cardinalities.dedup();
    assert_eq!(cardinalities.len(), 1, "strategies disagree on Q1");
}
