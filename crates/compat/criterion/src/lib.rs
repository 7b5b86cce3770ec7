//! Offline stand-in for the `criterion` crate.
//!
//! Implements the benchmarking API surface the workspace uses —
//! [`Criterion::bench_function`], benchmark groups with
//! `bench_with_input`/`sample_size`, [`BenchmarkId`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — backed by a simple
//! adaptive timing loop instead of criterion's full statistical
//! machinery. Each benchmark is warmed up, the iteration count is scaled
//! until one sample takes ≥ 5 ms, and the median/min/max over the sample
//! set is printed in a criterion-like format.
//!
//! Two environment variables tailor runs for CI smoke jobs:
//!
//! * `SINTRA_BENCH_QUICK=1` — fewer samples and a shorter calibration
//!   target, trading precision for wall-clock time;
//! * `SINTRA_BENCH_JSON=<path>` — additionally write all results as a
//!   JSON array when the benchmark binary finishes (the
//!   [`criterion_main!`] macro calls [`finalize`]): first one
//!   `{"id": "host", nproc, cpu, sha_ni, adx, ifma, rustc}` record naming
//!   the machine (and so the SHA-256 and the 6- and 16-limb Montgomery
//!   kernels) the numbers came from, then one
//!   `{id, median_ns, min_ns, max_ns}` object per benchmark.

#![forbid(unsafe_code)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Whether quick mode is enabled (see crate docs).
fn quick_mode() -> bool {
    std::env::var_os("SINTRA_BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Completed measurements, collected for the optional JSON report.
static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

struct BenchResult {
    id: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// Drives one benchmark's measurement loop.
pub struct Bencher {
    /// Iterations per sample, chosen adaptively before sampling.
    iters_per_sample: u64,
    /// Collected per-iteration times (seconds).
    samples: Vec<f64>,
    sample_count: usize,
}

impl Bencher {
    /// Measures the closure. Call once per `bench_function` body.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and calibration: find an iteration count where one
        // sample takes at least ~5 ms (so timer noise stays < 0.1%);
        // quick mode settles for ~1 ms.
        let target = Duration::from_millis(if quick_mode() { 1 } else { 5 });
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= target || iters >= 1 << 20 {
                self.iters_per_sample = iters;
                break;
            }
            // Scale toward the target with headroom.
            iters = (iters * 4).min(1 << 20);
        }
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            self.samples
                .push(start.elapsed().as_secs_f64() / self.iters_per_sample as f64);
        }
    }
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn run_one(id: &str, sample_count: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        iters_per_sample: 1,
        samples: Vec::new(),
        sample_count,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{id:<40} (no measurement)");
        return;
    }
    b.samples.sort_by(|a, x| a.partial_cmp(x).expect("no NaN"));
    let median = b.samples[b.samples.len() / 2];
    let lo = b.samples[0];
    let hi = b.samples[b.samples.len() - 1];
    println!(
        "{id:<40} time: [{} {} {}]",
        format_time(lo),
        format_time(median),
        format_time(hi),
    );
    RESULTS.lock().expect("results lock").push(BenchResult {
        id: id.to_string(),
        median_ns: median * 1e9,
        min_ns: lo * 1e9,
        max_ns: hi * 1e9,
    });
}

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The leading record of a JSON report: core count, CPU model, whether
/// the CPU has the SHA extensions (which pick the SHA-256 kernel), BMI2
/// plus ADX (which pick the 6-limb Montgomery kernel) and AVX-512F plus
/// IFMA (which pick the 16-limb one), and compiler of the host, so that
/// two reports are only compared when they name the same machine and ran
/// the same kernels.
fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, value)| value.trim())
    };
    let cpu = field("model name").unwrap_or("unknown");
    let has = |flag: &str| {
        field("flags").is_some_and(|flags| flags.split_whitespace().any(|f| f == flag))
    };
    let (sha_ni, adx) = (has("sha_ni"), has("bmi2") && has("adx"));
    let ifma = has("avx512f") && has("avx512vl") && has("avx512ifma");
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"id\": \"host\", \"nproc\": {nproc}, \"cpu\": \"{}\", \"sha_ni\": {sha_ni}, \"adx\": {adx}, \"ifma\": {ifma}, \"rustc\": \"{}\"}}",
        json_escape(cpu),
        json_escape(&rustc)
    )
}

/// Writes collected results as JSON to `SINTRA_BENCH_JSON` (if set).
/// Called automatically by [`criterion_main!`]; idempotent (the result
/// buffer is drained).
pub fn finalize() {
    let results = std::mem::take(&mut *RESULTS.lock().expect("results lock"));
    let Some(path) = std::env::var_os("SINTRA_BENCH_JSON") else {
        return;
    };
    if results.is_empty() {
        return;
    }
    let mut json = format!("[\n  {}", host_record());
    for r in &results {
        // Benchmark ids are code-controlled; escape the JSON specials anyway.
        json.push_str(&format!(
            ",\n  {{\"id\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}",
            json_escape(&r.id),
            r.median_ns,
            r.min_ns,
            r.max_ns
        ));
    }
    json.push_str("\n]\n");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("failed to write {}: {e}", path.to_string_lossy());
    }
}

/// Entry point handed to benchmark functions.
pub struct Criterion {
    sample_count: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_count: if quick_mode() { 5 } else { 15 },
        }
    }
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.sample_count, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_count: self.sample_count,
            _parent: self,
        }
    }
}

/// Identifier of one parameterized benchmark within a group.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: &str, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            full: format!("{function_name}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            full: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(full: String) -> Self {
        BenchmarkId { full }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_count: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples per benchmark (capped in quick
    /// mode so smoke runs stay fast).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        let n = if quick_mode() { n.min(5) } else { n };
        self.sample_count = n.max(2);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        run_one(
            &format!("{}/{}", self.name, id.full),
            self.sample_count,
            &mut f,
        );
        self
    }

    /// Runs a parameterized benchmark in this group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id.full),
            self.sample_count,
            &mut |b| f(b, input),
        );
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_prints() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn groups_and_ids_compose() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::new("x", 42), &2u32, |b, &v| b.iter(|| v * 2));
        g.finish();
    }

    #[test]
    fn results_are_collected_for_reporting() {
        let mut c = Criterion::default();
        c.bench_function("collected", |b| b.iter(|| black_box(3) * 3));
        let results = RESULTS.lock().expect("results lock");
        let r = results
            .iter()
            .find(|r| r.id == "collected")
            .expect("result recorded");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.median_ns > 0.0);
    }

    #[test]
    fn host_record_is_one_json_object() {
        let record = host_record();
        assert!(record.starts_with("{\"id\": \"host\", \"nproc\": "));
        assert!(record.ends_with("\"}"));
        for key in [
            "\"cpu\": \"",
            "\"sha_ni\": ",
            "\"adx\": ",
            "\"ifma\": ",
            "\"rustc\": \"",
        ] {
            assert!(record.contains(key), "{record}");
        }
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c ");
    }

    #[test]
    fn time_formatting_scales() {
        assert!(format_time(2.0).ends_with(" s"));
        assert!(format_time(2e-3).ends_with(" ms"));
        assert!(format_time(2e-6).ends_with(" µs"));
        assert!(format_time(2e-9).ends_with(" ns"));
    }
}
