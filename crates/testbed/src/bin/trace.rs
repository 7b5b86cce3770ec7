//! Trace tooling over flight-recorder dumps *and* streaming traces.
//!
//! ```text
//! trace export --chrome FILE [FILE ...] [--out trace.json]
//! trace validate FILE [FILE ...] [--strict-causal]
//! ```
//!
//! `FILE` is either a `sintra-dump-*.json` flight-recorder dump or a
//! `sintra-trace-*.jsonl` streaming segment: the `.jsonl` extension
//! selects a stream, anything else is read as a dump. Arguments
//! containing `*`/`?` are expanded against the filesystem, so one
//! invocation takes a whole run's per-party files even when the shell
//! didn't expand the pattern. Both subcommands read through
//! `sintra_testbed::profile`, the same loader `sintra-prof` uses.
//!
//! `export --chrome` merges everything into a single Chrome
//! `trace_event` file that `chrome://tracing` or Perfetto opens directly
//! — one process row per party, per-protocol tracks and flow arrows from
//! each message send to the work it triggered. `validate` checks every
//! file against its schema, then resolves causal parents *across* the
//! whole file set: each event's `(sender, send_seq)` must name a
//! `net:send` present in some input. Unresolved parents are reported
//! (bounded per-party rings legitimately evict old sends; streaming
//! captures should resolve fully) and fail the run under
//! `--strict-causal`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sintra_testbed::profile::{
    causal_resolution, chrome_trace, load_trace, merge, merge_streams, Analysis,
};

/// Expands one CLI argument: plain paths pass through, `*`/`?` patterns
/// match against the named directory (portable stand-in for shell
/// globbing — CI YAML and Windows shells don't always expand).
fn expand(arg: &str) -> Result<Vec<PathBuf>, String> {
    if !arg.contains('*') && !arg.contains('?') {
        return Ok(vec![PathBuf::from(arg)]);
    }
    let path = Path::new(arg);
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let pattern = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("{arg}: bad pattern"))?;
    let mut matches: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|name| glob_match(pattern, name))
        })
        .map(|e| e.path())
        .collect();
    matches.sort();
    if matches.is_empty() {
        return Err(format!("{arg}: no files match"));
    }
    Ok(matches)
}

/// Minimal glob: `*` matches any run, `?` any single character.
fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    // Iterative backtracking matcher.
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            mark = ni;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ni = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace export --chrome FILE [FILE ...] [--out FILE]\n  \
         trace validate FILE [FILE ...] [--strict-causal]\n\
         (FILE: sintra-dump-*.json or sintra-trace-*.jsonl; * and ? patterns expand)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => {
            let mut chrome = false;
            let mut out_path: Option<String> = None;
            let mut inputs = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--chrome" => chrome = true,
                    "--out" => match it.next() {
                        Some(path) => out_path = Some(path.clone()),
                        None => return usage(),
                    },
                    pattern => match expand(pattern) {
                        Ok(paths) => inputs.extend(paths),
                        Err(err) => {
                            eprintln!("trace: {err}");
                            return ExitCode::FAILURE;
                        }
                    },
                }
            }
            if !chrome || inputs.is_empty() {
                return usage();
            }
            let trace = match merge_streams(&inputs) {
                Ok(trace) => trace,
                Err(err) => {
                    eprintln!("trace: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let body = chrome_trace(&trace, &Analysis::default());
            match out_path {
                Some(path) => {
                    if let Err(err) = std::fs::write(&path, body) {
                        eprintln!("trace: {path}: {err}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("trace: wrote {path} ({} input(s))", inputs.len());
                }
                None => println!("{body}"),
            }
            ExitCode::SUCCESS
        }
        Some("validate") => {
            let mut strict_causal = false;
            let mut inputs = Vec::new();
            for arg in &args[1..] {
                if arg == "--strict-causal" {
                    strict_causal = true;
                    continue;
                }
                match expand(arg) {
                    Ok(paths) => inputs.extend(paths),
                    Err(err) => {
                        eprintln!("trace: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if inputs.is_empty() {
                return usage();
            }
            let mut files = Vec::new();
            for path in &inputs {
                match load_trace(path) {
                    Ok(file) => {
                        eprintln!("trace: {}: ok", path.display());
                        files.push(file);
                    }
                    Err(err) => {
                        eprintln!("trace: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let resolution = causal_resolution(&merge(files));
            eprintln!(
                "trace: causal parents {}/{} resolved across {} file(s)",
                resolution.resolved,
                resolution.caused,
                inputs.len()
            );
            for (party, s, q) in resolution.dangling.iter().take(4) {
                eprintln!("trace: unresolved: p{party}: cause (p{s}, seq {q})");
            }
            if strict_causal && !resolution.is_complete() {
                eprintln!("trace: FAIL: dangling causal parents under --strict-causal");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
