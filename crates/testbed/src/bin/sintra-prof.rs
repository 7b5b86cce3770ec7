//! Cross-party round profiler over streaming traces.
//!
//! ```text
//! sintra-prof profile <DIR | FILE.jsonl ...> [--chrome OUT.json]
//!                     [--min-coverage PCT] [--strict-causal]
//! ```
//!
//! `profile` merges the `sintra-trace-*.jsonl` segments of one run (a
//! directory is globbed; explicit files, dumps too, are read through
//! `sintra_testbed::profile::load_trace`), walks the
//! causal chain behind every decided ABC/VBA round, and prints the
//! per-round attribution ledger plus the aggregate phase histogram.
//! `--chrome` additionally writes a Chrome `trace_event` export with the
//! critical path highlighted as its own lane per party. `--min-coverage`
//! exits non-zero when any round's attributed share of wall-time falls
//! below the threshold (CI's ≥95% gate); `--strict-causal` exits
//! non-zero when any causal parent dangles.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use sintra_testbed::profile::{
    analyze, causal_resolution, chrome_trace, find_trace_files, merge_streams, render_histogram,
    render_ledger,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sintra-prof profile <DIR | FILE.jsonl ...> [--chrome OUT.json]\n           \
         [--min-coverage PCT] [--strict-causal]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("profile") {
        return usage();
    }
    let mut chrome_out: Option<PathBuf> = None;
    let mut min_coverage: Option<f64> = None;
    let mut strict_causal = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chrome" => match it.next() {
                Some(path) => chrome_out = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "--min-coverage" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => min_coverage = Some(pct),
                None => return usage(),
            },
            "--strict-causal" => strict_causal = true,
            path => inputs.push(PathBuf::from(path)),
        }
    }
    if inputs.is_empty() {
        return usage();
    }
    // A single directory argument means "glob its segments".
    let files: Vec<PathBuf> = if inputs.len() == 1 && inputs[0].is_dir() {
        match find_trace_files(&inputs[0]) {
            Ok(files) => files,
            Err(err) => {
                eprintln!("sintra-prof: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        inputs
    };
    if files.is_empty() {
        eprintln!("sintra-prof: no sintra-trace-*.jsonl files found");
        return ExitCode::FAILURE;
    }
    let trace = match merge_streams(&files) {
        Ok(trace) => trace,
        Err(err) => {
            eprintln!("sintra-prof: {err}");
            return ExitCode::FAILURE;
        }
    };
    let resolution = causal_resolution(&trace);
    eprintln!(
        "sintra-prof: {} file(s), {} event(s) from {} part(y/ies), {} dropped; \
         causal parents {}/{} resolved",
        files.len(),
        trace.events.len(),
        trace.parties.len(),
        trace.dropped,
        resolution.resolved,
        resolution.caused,
    );
    if !resolution.is_complete() {
        eprintln!(
            "sintra-prof: {} dangling causal reference(s), e.g. {:?}",
            resolution.caused - resolution.resolved,
            resolution.dangling.first()
        );
    }
    let analysis = analyze(&trace);
    if analysis.rounds.is_empty() {
        eprintln!("sintra-prof: no decided ABC/VBA rounds in the trace");
        return ExitCode::FAILURE;
    }
    print!("{}", render_ledger(&analysis));
    println!();
    print!("{}", render_histogram(&analysis));
    if let Some(out) = chrome_out {
        let body = chrome_trace(&trace, &analysis);
        if let Err(err) = std::fs::write(&out, body) {
            eprintln!("sintra-prof: {}: {err}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("sintra-prof: wrote {}", out.display());
    }
    let mut failed = false;
    if strict_causal && !resolution.is_complete() {
        eprintln!("sintra-prof: FAIL: causal parents dangle under --strict-causal");
        failed = true;
    }
    if let Some(pct) = min_coverage {
        let min = analysis.min_coverage() * 100.0;
        if min < pct {
            eprintln!("sintra-prof: FAIL: minimum round coverage {min:.1}% < required {pct:.1}%");
            failed = true;
        } else {
            eprintln!("sintra-prof: minimum round coverage {min:.1}% (threshold {pct:.1}%)");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
