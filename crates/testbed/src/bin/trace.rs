//! Trace tooling over flight-recorder dumps *and* streaming traces.
//!
//! ```text
//! trace export --chrome FILE [FILE ...] [--out trace.json]
//! trace validate FILE [FILE ...] [--strict-causal]
//! ```
//!
//! `FILE` is either a `sintra-dump-*.json` flight-recorder dump or a
//! `sintra-trace-*.jsonl` streaming segment (auto-detected by content);
//! arguments containing `*`/`?` are expanded against the filesystem, so
//! one invocation takes a whole run's per-party files even when the
//! shell didn't expand the pattern.
//!
//! `export --chrome` merges everything into a single Chrome
//! `trace_event` file that `chrome://tracing` or Perfetto opens directly
//! — per-party tracks and flow arrows from each message send to the work
//! it triggered. `validate` checks every file against its schema, then
//! resolves causal parents *across* the whole file set: each event's
//! `(sender, send_seq)` must name a `net:send` present in some input.
//! Unresolved parents are reported (bounded per-party rings legitimately
//! evict old sends; streaming captures should resolve fully) and fail
//! the run under `--strict-causal`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sintra_telemetry::{parse_json, JsonValue};
use sintra_testbed::profile::stream_to_dump_json;
use sintra_testbed::trace_export::{chrome_trace, validate_dump};

/// Loads one input as a dump-shaped value: dumps directly, streaming
/// segments re-shaped through the dump schema.
fn load(path: &Path) -> Result<JsonValue, String> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let body = if name.ends_with(".jsonl") {
        stream_to_dump_json(path)?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?
    };
    parse_json(&body).map_err(|e| format!("{}: {e}", path.display()))
}

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

/// Cross-file causal resolution over the merged event set.
struct CausalSummary {
    caused: usize,
    resolved: usize,
    examples: Vec<String>,
}

fn causal_summary(dumps: &[(PathBuf, JsonValue)]) -> CausalSummary {
    let mut sends = std::collections::HashSet::new();
    let events = |dump: &JsonValue| -> Vec<JsonValue> {
        dump.get("events")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::to_vec)
            .unwrap_or_default()
    };
    for (_, dump) in dumps {
        for ev in events(dump) {
            let family = ev.get("family").and_then(JsonValue::as_str);
            let phase = ev.get("phase").and_then(JsonValue::as_str);
            if family == Some("net") && phase == Some("send") {
                let party = ev.get("party").and_then(JsonValue::as_u64);
                let seq = ev.get("round").and_then(JsonValue::as_u64);
                if let (Some(party), Some(seq)) = (party, seq) {
                    sends.insert((party, seq));
                }
            }
        }
    }
    let mut summary = CausalSummary {
        caused: 0,
        resolved: 0,
        examples: Vec::new(),
    };
    for (path, dump) in dumps {
        for ev in events(dump) {
            let Some(cause) = ev.get("cause").and_then(JsonValue::as_array) else {
                continue;
            };
            let (Some(s), Some(q)) = (cause[0].as_u64(), cause[1].as_u64()) else {
                continue;
            };
            summary.caused += 1;
            if sends.contains(&(s, q)) {
                summary.resolved += 1;
            } else if summary.examples.len() < 4 {
                summary
                    .examples
                    .push(format!("{}: cause (p{s}, seq {q})", path.display()));
            }
        }
    }
    summary
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
            let mut dumps = Vec::new();
            for path in &inputs {
                match load(path) {
                    Ok(dump) => dumps.push(dump),
                    Err(err) => {
                        eprintln!("trace: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            match chrome_trace(&dumps) {
                Ok(trace) => match out_path {
                    Some(path) => {
                        if let Err(err) = std::fs::write(&path, trace) {
                            eprintln!("trace: {path}: {err}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("trace: wrote {path} ({} input(s))", dumps.len());
                    }
                    None => println!("{trace}"),
                },
                Err(err) => {
                    eprintln!("trace: {err}");
                    return ExitCode::FAILURE;
                }
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
            let mut dumps = Vec::new();
            for path in inputs {
                let result = load(&path).and_then(|dump| {
                    validate_dump(&dump)?;
                    Ok(dump)
                });
                match result {
                    Ok(dump) => {
                        eprintln!("trace: {}: ok", path.display());
                        dumps.push((path, dump));
                    }
                    Err(err) => {
                        eprintln!("trace: {}: {err}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            let summary = causal_summary(&dumps);
            eprintln!(
                "trace: causal parents {}/{} resolved across {} file(s)",
                summary.resolved,
                summary.caused,
                dumps.len()
            );
            for example in &summary.examples {
                eprintln!("trace: unresolved: {example}");
            }
            if strict_causal && summary.resolved != summary.caused {
                eprintln!("trace: FAIL: dangling causal parents under --strict-causal");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
