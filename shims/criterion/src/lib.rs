//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API subset the workspace's microbenches use
//! (`criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `benchmark_group`, `Bencher::iter`/`iter_batched`, [`BatchSize`]) as a
//! plain wall-clock harness: each benchmark runs a short warmup, then a
//! fixed sample of timed iterations, and prints min/median per-iteration
//! times. No statistics engine, no HTML reports — enough to compare hot
//! paths between commits in this offline environment.
//!
//! As in criterion, the first command-line argument that is not a flag
//! filters benchmarks by name: `cargo bench --bench scale_paths --
//! jobtracker_heartbeat` runs only the benchmarks whose id (`group/name`
//! inside a group) contains `jobtracker_heartbeat`. Flags are ignored.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` (criterion's `black_box`).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How batched inputs are grouped (accepted for API parity; the stand-in
/// always regenerates the input for every timed iteration).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    results: Vec<Duration>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            results: Vec::new(),
        }
    }

    /// Time `routine` over the configured number of samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One warmup iteration, then timed samples.
        std_black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            std_black_box(routine());
            self.results.push(start.elapsed());
        }
    }

    /// Time `routine` on fresh inputs from `setup`. Setup is excluded
    /// from the measurement, and so is dropping the routine's output:
    /// the clock stops before the drop, as in criterion, so a routine
    /// that returns the state it consumed does not time its teardown.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        std_black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = std_black_box(routine(input));
            self.results.push(start.elapsed());
            drop(output);
        }
    }
}

fn report(id: &str, results: &mut [Duration]) {
    if results.is_empty() {
        println!("{id:<44} (no samples)");
        return;
    }
    results.sort_unstable();
    let median = results[results.len() / 2];
    println!(
        "{id:<44} min {:>12?}  median {:>12?}  ({} samples)",
        results[0],
        median,
        results.len()
    );
}

/// Top-level benchmark registry (criterion's `Criterion`).
pub struct Criterion {
    sample_size: usize,
    /// Run only benchmarks whose id contains this (all when `None`).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let sample_size = std::env::var("CRITERION_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            sample_size,
            filter,
        }
    }
}

impl Criterion {
    /// Time `f` as benchmark `id` and print it, unless the filter
    /// excludes `id`.
    fn run(&self, id: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
        if self.filter.as_deref().is_some_and(|s| !id.contains(s)) {
            return;
        }
        let mut b = Bencher::new(samples);
        f(&mut b);
        report(id, &mut b.results);
    }

    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run(id, self.sample_size, f);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: None,
        }
    }
}

/// A group of related benchmarks with shared settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let samples = self.sample_size.unwrap_or(self.parent.sample_size);
        self.parent.run(&format!("{}/{id}", self.name), samples, f);
        self
    }

    /// Finish the group (no-op beyond API parity).
    pub fn finish(self) {}
}

/// Declare a group function running the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declare `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// Benchmarks `trivial` ran on this thread, in order.
        static RAN: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    fn ran(id: &'static str) {
        RAN.with(|r| r.borrow_mut().push(id));
    }

    fn trivial(c: &mut Criterion) {
        c.bench_function("noop", |b| {
            ran("noop");
            b.iter(|| 1 + 1)
        });
        c.bench_function("batched", |b| {
            ran("batched");
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        let mut g = c.benchmark_group("grp");
        g.sample_size(3);
        g.bench_function("inner", |b| {
            ran("grp/inner");
            b.iter(|| 2 * 2)
        });
        g.finish();
    }

    criterion_group!(benches, trivial);

    #[test]
    fn harness_runs() {
        benches();
    }

    /// Without a filter every benchmark runs; a filter runs only the
    /// benchmarks whose id contains it, group benchmarks matching on
    /// `group/name`.
    #[test]
    fn the_name_filter_selects_benchmarks() {
        for (filter, expect) in [
            (None, vec!["noop", "batched", "grp/inner"]),
            (Some("batch"), vec!["batched"]),
            (Some("grp/inner"), vec!["grp/inner"]),
            (Some("nothing"), vec![]),
        ] {
            RAN.with(|r| r.borrow_mut().clear());
            let mut c = Criterion {
                sample_size: 1,
                filter: filter.map(str::to_string),
            };
            trivial(&mut c);
            assert_eq!(RAN.with(|r| r.borrow().clone()), expect, "{filter:?}");
        }
    }

    /// A routine's output is dropped after the clock stops, so a slow
    /// teardown does not show in the samples.
    #[test]
    fn batched_samples_exclude_the_output_drop() {
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let mut b = Bencher::new(3);
        b.iter_batched(|| (), |()| SlowDrop, BatchSize::SmallInput);
        assert_eq!(b.results.len(), 3);
        assert!(
            b.results.iter().all(|&d| d < Duration::from_millis(20)),
            "{:?}",
            b.results
        );
    }
}
