//! `sintra-bench`: the repository's benchmark (see `BENCHMARK.md` next
//! to this package's manifest, and `/BENCHMARK.json`).
//!
//! ```text
//! sintra-bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!              [--trace-out <file>] [--record-dir <dir>]
//! sintra-bench compare <A> <B>
//! ```
//!
//! One process measures one workload (so `peak_rss_mb` and `setup_s`
//! are per workload); `--workload all` runs one child per workload.
//! The last line of standard output is the result object; everything
//! else goes to standard error.
#![forbid(unsafe_code)]

mod compare;
mod host;
mod isolated;
mod load;
mod probe;
mod record;
mod replay;
mod sim;
mod slices;
mod span;
mod stats;
mod tcp;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sintra_net::tcp::TcpConfig;
use sintra_telemetry::Recorder;

use host::Provenance;
use load::Run;
use record::{Measured, Metric, Record};
use workload::{Runtime, Spec, END_TO_END, WORKLOADS};

/// Knobs of one run. Everything but `seed` and `seconds` is fixed by
/// the benchmark; tests shrink keys and windows.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window (TCP) or the request quota's
    /// multiplier (simulator).
    pub seconds: f64,
    /// TCP only: discarded lead-in that lets sessions, lazy fixed-base
    /// tables and allocator pools settle.
    pub warmup_s: f64,
    pub key_bits: u32,
    /// Where `setup_s` counts from.
    pub process_start: Instant,
}

impl RunOpts {
    pub fn new(seed: u64) -> Self {
        RunOpts {
            seed,
            seconds: 12.0,
            warmup_s: 1.0,
            key_bits: 1024,
            process_start: Instant::now(),
        }
    }
}

/// Runs `spec` on its runtime. The simulator has no sockets to
/// configure; a recorder works on both.
pub fn drive(
    spec: &Spec,
    opts: &RunOpts,
    config: TcpConfig,
    recorder: Option<Arc<dyn Recorder>>,
) -> Run {
    match spec.runtime {
        Runtime::Tcp => tcp::run(spec, opts, config, recorder),
        Runtime::Sim { .. } => sim::run(spec, opts, recorder),
    }
}

/// Cold set-ups behind `setup_s`: this process's own and one per child
/// process, median reported. Every one of them pays process start,
/// first touch and lazy initialisation, so a regression there shows,
/// and one disturbed set-up of ~50 ms does not decide the number.
const SETUPS: usize = 5;

/// `setup_s` of `SETUPS - 1` fresh processes (`--setup-only`), one
/// after the other, while this process is idle.
fn child_setups(spec: &Spec, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    (1..SETUPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", spec.name, "--seed", &seed.to_string()])
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(setup_s) if out.status.success() => Ok(setup_s),
                _ => Err(format!("a set-up child failed ({}): {text:?}", out.status)),
            }
        })
        .collect()
}

/// The untraced pass: the five end-to-end metrics, in table order.
fn end_to_end(spec: &Spec, opts: &RunOpts) -> Result<Measured, String> {
    let run = drive(spec, opts, TcpConfig::default(), None);
    let mut setups = child_setups(spec, opts.seed)?;
    setups.push(run.setup_s);
    let latencies = run.latencies_ms();
    let values = [
        run.throughput_pps(),
        stats::percentile(&latencies, 0.5),
        run.cpu_ms_per_payload(),
        host::peak_rss_mb(),
        stats::median(&setups),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric::new(m.name, value, m.unit))
        .collect();
    Ok(Measured {
        metrics,
        latency_p90_ms: stats::percentile(&latencies, 0.9),
        attempted: run.outcome.attempted,
        failed: run.outcome.failed,
        correct: run.outcome.correct(),
        samples: latencies.len() as u64,
        steal_share: slices::steal_share(&run.slices),
        host_speed: slices::host_speed(&run.slices),
    })
}

/// A window in which nothing completed, or a ratio without a
/// denominator, is a failed run, not a measurement of zero.
fn validated(measured: Measured) -> Result<Measured, String> {
    if measured.samples == 0 {
        return Err("no request completed in the window".to_string());
    }
    match measured.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(metric) => Err(format!("{} is not a number", metric.name)),
        None => Ok(measured),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    record_dir: Option<PathBuf>,
    /// Internal (see [`child_setups`]): set up, print `setup_s`, exit.
    setup_only: bool,
}

const USAGE: &str = "usage: sintra-bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> \
                     [--trace-out <file>] [--record-dir <dir>]\n       sintra-bench compare <A> <B>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RunOpts::new(0).seconds,
        trace: false,
        trace_out: None,
        record_dir: None,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value:?} is not a whole number"))?
            }
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0.0,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--record-dir" => args.record_dir = Some(PathBuf::from(value)),
            "--setup-only" => args.setup_only = number()? != 0.0,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    if args.workload != "all" && Spec::by_name(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// Measures one workload in this process and prints its result line.
fn run_one(spec: &Spec, args: &Args, process_start: Instant) -> ExitCode {
    // Before the first thread exists: every later thread inherits it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinning = host::pin_to_one_cpu();
    let opts = RunOpts {
        seconds: args.seconds,
        process_start,
        ..RunOpts::new(args.seed)
    };
    if args.setup_only {
        let setup_s = match spec.runtime {
            Runtime::Tcp => tcp::setup_s(spec, &opts),
            Runtime::Sim { .. } => sim::setup_s(spec, &opts),
        };
        println!("{setup_s}");
        return ExitCode::SUCCESS;
    }
    let measured = if args.trace {
        let span_file = args.trace_out.clone().unwrap_or_else(|| {
            Path::new(".bench_out").join(format!("{}-seed{}.spans.jsonl", spec.name, args.seed))
        });
        let measured = traced::run(spec, &opts, &span_file);
        eprintln!("sintra-bench: spans written to {}", span_file.display());
        Ok(measured)
    } else {
        end_to_end(spec, &opts)
    };
    let measured = match measured.and_then(validated) {
        Ok(measured) => measured,
        Err(err) => {
            eprintln!("sintra-bench: {} seed {}: {err}", spec.name, args.seed);
            return ExitCode::FAILURE;
        }
    };
    let record = Record {
        workload: spec.name.to_string(),
        seed: args.seed,
        traced: args.trace,
        seconds: opts.seconds,
        warmup_s: opts.warmup_s,
        samples: measured.samples,
        latency_p90_ms: measured.latency_p90_ms,
        steal_share: measured.steal_share,
        host_speed: measured.host_speed,
        correct: measured.correct,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: measured.metrics,
        provenance: Provenance::collect(&pinning, nproc),
    };
    eprintln!(
        "sintra-bench: {} seed {} pinned={} cpus={} samples={} attempted={} failed={} \
         p90={:.1}ms steal={:.1}% host_speed={:.3}",
        spec.name,
        args.seed,
        record.provenance.pinned,
        record.provenance.cpus_allowed,
        record.samples,
        record.attempted,
        record.failed,
        record.latency_p90_ms,
        record.steal_share * 100.0,
        record.host_speed
    );
    for metric in &record.metrics {
        eprintln!(
            "  {:<40} {:>14.4} {:<6} ({} is better)",
            metric.name,
            metric.value,
            metric.unit,
            workload::better(&metric.name).as_str()
        );
    }
    if let Some(dir) = &args.record_dir {
        if let Err(err) = record.write_into(dir) {
            eprintln!(
                "sintra-bench: cannot write the record into {}: {err}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }
    println!("{}", record.result_line());
    if record.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("sintra-bench: {} FAILED its correctness oracle", spec.name);
        ExitCode::FAILURE
    }
}

/// One child process per workload, same arguments otherwise.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut failed = false;
    for spec in &WORKLOADS {
        let child_args = argv
            .iter()
            .map(|a| if a == "all" { spec.name } else { a.as_str() });
        let status = std::process::Command::new(&exe).args(child_args).status();
        failed |= !status.is_ok_and(|s| s.success());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let rows = compare::load(Path::new(a))
        .and_then(|ra| Ok((ra, compare::load(Path::new(b))?)))
        .and_then(|(ra, rb)| compare::compare(&ra, &rb));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if compare::any_worse(&rows) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(err) => {
            eprintln!("sintra-bench compare: {err}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match &argv[1..] {
            [a, b] => run_compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("sintra-bench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let spec = Spec::by_name(&args.workload).expect("validated by parse_args");
    run_one(spec, &args, process_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_telemetry::{parse_json, JsonValue};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arguments_follow_the_pipeline_contract() {
        let args = parse_args(&argv(&[
            "--workload",
            "abc4_wan",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, "abc4_wan");
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10.0, true));
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--workload", "abc4_sat", "--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--workload", "abc4_sat", "--bogus", "1"])).is_err());
        assert!(parse_args(&argv(&["--workload"])).is_err());
        assert!(parse_args(&argv(&["--workload", "all"])).is_ok());
    }

    #[test]
    fn empty_windows_and_non_numbers_are_failed_runs() {
        let measured = |samples, value| Measured {
            metrics: vec![Metric::new("latency_p50_ms", value, "ms")],
            latency_p90_ms: 2.0,
            attempted: 9,
            failed: 0,
            correct: true,
            samples,
            steal_share: 0.0,
            host_speed: 1.0,
        };
        assert!(validated(measured(5, 1.5)).is_ok());
        assert!(validated(measured(0, 1.5)).is_err());
        assert!(validated(measured(5, f64::NAN)).is_err());
        assert!(validated(measured(5, f64::INFINITY)).is_err());
    }

    /// `/BENCHMARK.json` must restate this package's tables: same
    /// workloads, same end-to-end metrics with units, directions and
    /// bounds, same per-layer metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let list = |key: &str| {
            json.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .to_vec()
        };
        let text = |v: &JsonValue, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(listed, "name"), spec.name);
            assert_eq!(text(listed, "why"), spec.why);
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(listed, "name"), metric.name);
            assert_eq!(text(listed, "unit"), metric.unit);
            assert_eq!(text(listed, "better"), metric.better.as_str());
            assert_eq!(listed.get("bound").unwrap().as_f64(), Some(metric.bound));
            assert!(metric.bound <= 0.25);
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), workload::PER_LAYER.len());
        for (listed, metric) in per_layer.iter().zip(&workload::PER_LAYER) {
            assert_eq!(text(listed, "name"), metric.name);
            assert_eq!(text(listed, "unit"), metric.unit);
            assert_eq!(text(listed, "better"), metric.better.as_str());
        }
        assert_eq!(
            json.get("run_seconds").unwrap().as_f64(),
            Some(RunOpts::new(0).seconds)
        );
    }
}
