//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! shim provides the slice of the criterion 0.5 API the bench targets use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter`] and the [`criterion_group!`]/[`criterion_main!`]
//! macros — backed by a simple wall-clock harness.
//!
//! Each benchmark runs one warm-up iteration followed by `sample_size`
//! measured iterations and prints min / mean / max per sample. There is no
//! statistical analysis or HTML report; the point is that `cargo bench`
//! compiles, runs and prints comparable numbers without the network.

#![warn(missing_docs)]

use std::hint;
use std::time::{Duration, Instant};

/// Drives one benchmark body.
pub struct Bencher {
    samples: usize,
    /// Measured per-sample durations, filled by [`Bencher::iter`].
    results: Vec<Duration>,
}

impl Bencher {
    /// Times `body` for the configured number of samples (after one
    /// warm-up call).
    pub fn iter<T>(&mut self, mut body: impl FnMut() -> T) {
        hint::black_box(body()); // warm-up: populate caches, touch lazy state
        for _ in 0..self.samples {
            let start = Instant::now();
            hint::black_box(body());
            self.results.push(start.elapsed());
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<S: Into<String>>(
        &mut self,
        id: S,
        body: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id);
        if !self.criterion.matches(&full) {
            return self;
        }
        let mut body = body;
        let mut bencher = Bencher {
            samples: self.sample_size,
            results: Vec::new(),
        };
        body(&mut bencher);
        report(&full, &bencher.results);
        self
    }

    /// Ends the group (printing nothing extra; reports are per-benchmark).
    pub fn finish(&mut self) {}
}

/// The benchmark driver handed to every `criterion_group!` target.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` forwards trailing args; honour a single
        // substring filter and ignore the flags cargo's bench runner passes
        // (--bench, --test, ...).
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            criterion: self,
        }
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Final-report hook (no-op in the shim).
    pub fn final_summary(&mut self) {}
}

fn report(name: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{name:<60} (no samples)");
        return;
    }
    let min = samples.iter().min().expect("non-empty");
    let max = samples.iter().max().expect("non-empty");
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{name:<60} time: [{:>10.4} ms {:>10.4} ms {:>10.4} ms] ({} samples)",
        min.as_secs_f64() * 1e3,
        mean.as_secs_f64() * 1e3,
        max.as_secs_f64() * 1e3,
        samples.len()
    );
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
            criterion.final_summary();
        }
    };
}

/// Declares the bench `main` running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_reports() {
        let mut c = Criterion { filter: None };
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut runs = 0usize;
        group.bench_function("count_runs", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        group.finish();
        // one warm-up + three samples
        assert_eq!(runs, 4);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = Criterion {
            filter: Some("only_this".into()),
        };
        let mut ran = false;
        let mut group = c.benchmark_group("g");
        group.bench_function("other", |b| {
            b.iter(|| {
                ran = true;
            })
        });
        assert!(!ran);
        group.bench_function("only_this_one", |b| {
            b.iter(|| {
                ran = true;
            })
        });
        assert!(ran);
    }
}
