//! Offline drop-in subset of the `criterion` API.
//!
//! The build environment has no network access, so this workspace vendors
//! the slice of `criterion` its benches use: [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId`], [`Throughput`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros. Instead of
//! statistical sampling it times a fixed warm-up plus a few measured
//! iterations and prints mean wall-clock per iteration — enough to compare
//! orders of magnitude and to keep every bench target compiling and
//! runnable via `cargo bench`.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifies one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A two-part id, `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// An id naming only the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Throughput annotation (accepted and echoed, not analysed).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    iters: u32,
    mean: Option<Duration>,
}

impl Bencher {
    /// Runs `f` once to warm up, then `iters` timed times; records the
    /// mean wall-clock duration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        let t0 = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.mean = Some(t0.elapsed() / self.iters);
    }
}

fn run_one(name: &str, iters: u32, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher { iters, mean: None };
    f(&mut b);
    match b.mean {
        Some(mean) => println!("bench {name}: {mean:?}/iter ({iters} iters)"),
        None => println!("bench {name}: no measurement (iter was never called)"),
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this harness always uses the
    /// `Criterion`'s own fixed measured-iteration count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; throughput is not analysed.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Benchmarks `f` against `input` under `id`.
    pub fn bench_with_input<I: ?Sized, F: FnOnce(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id.label),
            self.criterion.measured_iters,
            |b| f(b, input),
        );
        self
    }

    /// Benchmarks `f` under `id` with no input.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id),
            self.criterion.measured_iters,
            f,
        );
        self
    }

    /// Ends the group (no-op; present for API compatibility).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    measured_iters: u32,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { measured_iters: 3 }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(name, self.measured_iters, f);
        self
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench `main` running the listed groups.
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

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default();
        let mut ran = 0u32;
        c.bench_function("noop", |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        // one warm-up + measured_iters timed runs
        assert_eq!(ran, 4);
    }

    #[test]
    fn groups_compose() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(10).throughput(Throughput::Elements(5));
        let mut hits = 0;
        group.bench_with_input(BenchmarkId::new("f", 1), &3u32, |b, &x| {
            b.iter(|| {
                hits += x;
            })
        });
        group.finish();
        assert!(hits >= 3);
    }
}
