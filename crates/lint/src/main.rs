//! CLI for `sintra-lint`.
//!
//! ```text
//! cargo run -p sintra-lint [-- --root DIR --format human|json --out FILE
//!                             --baseline FILE --write-baseline
//!                             --changed-only [--base REF]]
//! ```
//!
//! Exit codes: `0` clean (or baseline written), `1` open findings, `2`
//! usage or I/O error.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sintra_lint::{
    analyze_workspace, parse_baseline, render_baseline, render_human, render_json, status_of,
    Status,
};

const USAGE: &str = "usage: sintra-lint [--root DIR] [--format human|json] [--out FILE] [--baseline FILE] [--write-baseline] [--changed-only [--base REF]]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("sintra-lint: {msg}");
    ExitCode::from(2)
}

/// Workspace-relative paths changed against `base`, per
/// `git diff --name-only`, plus anything not yet committed.
fn changed_paths(root: &Path, base: &str) -> Result<BTreeSet<String>, String> {
    let out = std::process::Command::new("git")
        .arg("diff")
        .arg("--name-only")
        .arg(base)
        .current_dir(root)
        .output()
        .map_err(|e| format!("running git diff: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git diff --name-only {base} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.trim().replace('\\', "/"))
        .filter(|l| !l.is_empty())
        .collect())
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = "human".to_string();
    let mut out_file: Option<PathBuf> = None;
    let mut baseline_file: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut changed_only = false;
    let mut base = "HEAD".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return fail(USAGE),
            },
            "--format" => match args.next().as_deref() {
                Some(v @ ("human" | "json")) => format = v.to_string(),
                _ => return fail("--format must be `human` or `json`"),
            },
            "--out" => match args.next() {
                Some(v) => out_file = Some(PathBuf::from(v)),
                None => return fail(USAGE),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline_file = Some(PathBuf::from(v)),
                None => return fail(USAGE),
            },
            "--write-baseline" => write_baseline = true,
            "--changed-only" => changed_only = true,
            "--base" => match args.next() {
                Some(v) => base = v,
                None => return fail(USAGE),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    if !root.join("crates").is_dir() {
        return fail(&format!(
            "`{}` has no crates/ directory; pass --root <workspace root>",
            root.display()
        ));
    }

    let mut findings = match analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => return fail(&format!("walking workspace: {e}")),
    };

    if changed_only {
        let changed = match changed_paths(&root, &base) {
            Ok(c) => c,
            Err(e) => return fail(&e),
        };
        findings.retain(|f| changed.contains(&f.path));
    }

    let baseline_path = baseline_file.unwrap_or_else(|| root.join("crates/lint/baseline.json"));
    if write_baseline {
        let text = render_baseline(&findings);
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            return fail(&format!("writing {}: {e}", baseline_path.display()));
        }
        let n = findings.iter().filter(|f| f.suppressed.is_none()).count();
        println!(
            "sintra-lint: wrote {n} finding(s) to {}",
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline: BTreeSet<String> = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(set) => set,
            Err(e) => return fail(&format!("parsing {}: {e}", baseline_path.display())),
        },
        // A missing baseline is an empty one (fresh checkout of a clean tree).
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeSet::new(),
        Err(e) => return fail(&format!("reading {}: {e}", baseline_path.display())),
    };

    let rendered = match format.as_str() {
        "json" => render_json(&findings, &baseline),
        _ => render_human(&findings, &baseline),
    };
    match &out_file {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                return fail(&format!("writing {}: {e}", path.display()));
            }
        }
        None => print!("{rendered}"),
    }

    let open = findings
        .iter()
        .filter(|f| status_of(f, &baseline) == Status::Open)
        .count();
    if open > 0 {
        // Echo the count to stderr too, so a --out json run still says
        // why it failed on the console.
        eprintln!("sintra-lint: {open} open finding(s)");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
