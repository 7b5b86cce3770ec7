//! `sintra-lint`: a protocol-safety static analyzer for the workspace.
//!
//! The Rust compiler enforces memory safety; it knows nothing about the
//! obligations a Byzantine-fault-tolerant replica carries — that replicas
//! must be deterministic, that `n`/`t` threshold arithmetic must have one
//! definition, that a violated invariant must dump evidence before dying,
//! and that wire bytes are frozen forever. This crate checks those
//! obligations — five rule families: `determinism`, `quorum-arithmetic`,
//! `panic-policy`, `wire-stability` and `unsafe-budget` — at the token
//! level, one file at a time, with no dependencies (the build environment
//! has no crates.io access, and the checker for a supply-chain-sensitive
//! codebase should itself have no supply chain). What a type can say is
//! left to the types: that a replica checks a signature before it acts on
//! it is `sintra_core::checked`, not a rule here.
//!
//! Findings can be suppressed per line with
//! `// lint:allow(<rule>): <reason>` — the reason is mandatory, and a
//! directive with a missing reason or unknown rule is itself a finding.
//! The CLI (`cargo run -p sintra-lint`) walks `crates/*/src`, subtracts a
//! committed baseline, and exits nonzero on anything new.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lexer::Comment;
use rules::RawFinding;

/// One rule violation in one file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired (one of [`rules::RULES`] or
    /// [`rules::LINT_DIRECTIVE`]).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Stable human-readable description.
    pub message: String,
    /// `Some(reason)` when a `lint:allow` directive covers this finding.
    pub suppressed: Option<String>,
}

impl Finding {
    /// The line-independent identity used for baseline matching, so a
    /// baselined finding does not reopen when unrelated edits shift it.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule, self.path, self.message)
    }
}

/// A parsed `lint:allow` directive.
#[derive(Debug)]
struct Directive {
    rule: &'static str,
    line: u32,
    reason: String,
}

/// Parses `lint:allow(rule): reason` directives out of comments.
///
/// Malformed directives (unknown rule, missing reason) become findings of
/// the pseudo-rule [`rules::LINT_DIRECTIVE`], which cannot be suppressed:
/// a suppression without a recorded justification is exactly the audit
/// hole the directive syntax exists to close.
fn parse_directives(comments: &[Comment]) -> (Vec<Directive>, Vec<RawFinding>) {
    let mut directives = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        // A directive must *start* the comment — prose that merely
        // mentions the syntax (like this crate's own docs) is not one.
        let Some(rest) = c.text.trim_start().strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            malformed.push(RawFinding {
                rule: rules::LINT_DIRECTIVE,
                line: c.line,
                message: "malformed lint:allow directive: missing `)`".to_string(),
            });
            continue;
        };
        let rule_name = rest[..close].trim();
        let Some(rule) = rules::RULES.iter().find(|r| **r == rule_name).copied() else {
            malformed.push(RawFinding {
                rule: rules::LINT_DIRECTIVE,
                line: c.line,
                message: format!(
                    "lint:allow names unknown rule `{rule_name}` (known: {})",
                    rules::RULES.join(", ")
                ),
            });
            continue;
        };
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            malformed.push(RawFinding {
                rule: rules::LINT_DIRECTIVE,
                line: c.line,
                message: format!(
                    "lint:allow({rule_name}) has no reason: write `lint:allow({rule_name}): <why this is sound>`"
                ),
            });
            continue;
        }
        directives.push(Directive {
            rule,
            line: c.line,
            reason: reason.to_string(),
        });
    }
    (directives, malformed)
}

/// Analyzes one file's source text under its workspace-relative path.
///
/// The path selects which rules apply (e.g. determinism only inside
/// `crates/core/src/`), so tests can feed fixture text through any
/// virtual path they like.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    let norm = path.replace('\\', "/");
    let lexed = lexer::lex(src);
    let raw = rules::run_rules(&norm, &lexed);
    let (directives, malformed) = parse_directives(&lexed.comments);

    // A directive covers findings on its own line (trailing comment) and
    // on the next line that has code (comment-above style).
    let mut covered: Vec<(&'static str, u32, &str)> = Vec::new();
    for d in &directives {
        covered.push((d.rule, d.line, &d.reason));
        if let Some(next) = lexed.tokens.iter().map(|t| t.line).find(|l| *l > d.line) {
            covered.push((d.rule, next, &d.reason));
        }
    }

    let mut out: Vec<Finding> = raw
        .into_iter()
        .map(|f| {
            let suppressed = covered
                .iter()
                .find(|(r, l, _)| *r == f.rule && *l == f.line)
                .map(|(_, _, reason)| reason.to_string());
            Finding {
                rule: f.rule,
                path: norm.clone(),
                line: f.line,
                message: f.message,
                suppressed,
            }
        })
        .collect();
    out.extend(malformed.into_iter().map(|f| Finding {
        rule: f.rule,
        path: norm.clone(),
        line: f.line,
        message: f.message,
        suppressed: None,
    }));
    out.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    out
}

/// Analyzes a set of `(workspace-relative path, source)` files, each on
/// its own, in the order given.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Finding> {
    let per_file = files.iter().map(|(path, src)| analyze_source(path, src));
    per_file.flatten().collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every `crates/*/src/**/*.rs` file under a workspace root into
/// `(workspace-relative path, source)` pairs, sorted by path.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if !rel.contains("/src/") {
            continue;
        }
        out.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(out)
}

/// Analyzes every `crates/*/src/**/*.rs` file under a workspace root.
///
/// Files are visited in sorted path order so output (and the JSON report)
/// is deterministic — the analyzer holds itself to the rule it enforces.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(analyze_sources(&collect_workspace_files(root)?))
}

/// Parses a baseline file: a JSON array of finding-key strings.
///
/// # Errors
///
/// Returns a description of the first syntax problem.
pub fn parse_baseline(text: &str) -> Result<BTreeSet<String>, String> {
    let cs: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < cs.len() && cs[*i].is_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if cs.get(i) != Some(&'[') {
        return Err("baseline must be a JSON array of strings".to_string());
    }
    i += 1;
    let mut set = BTreeSet::new();
    loop {
        skip_ws(&mut i);
        match cs.get(i) {
            Some(']') => return Ok(set),
            Some('"') => {
                i += 1;
                let mut s = String::new();
                loop {
                    match cs.get(i) {
                        None => return Err("unterminated string in baseline".to_string()),
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some('\\') => {
                            i += 1;
                            match cs.get(i) {
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                Some('r') => s.push('\r'),
                                Some(c @ ('"' | '\\' | '/')) => s.push(*c),
                                other => {
                                    return Err(format!("unsupported escape {other:?} in baseline"))
                                }
                            }
                            i += 1;
                        }
                        Some(c) => {
                            s.push(*c);
                            i += 1;
                        }
                    }
                }
                set.insert(s);
                skip_ws(&mut i);
                match cs.get(i) {
                    Some(',') => i += 1,
                    Some(']') => return Ok(set),
                    other => return Err(format!("expected `,` or `]`, got {other:?}")),
                }
            }
            other => return Err(format!("expected string or `]`, got {other:?}")),
        }
    }
}

/// Escapes a string for embedding in JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Status of a finding after suppression and baseline processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Unsuppressed, not baselined: fails the build.
    Open,
    /// Covered by a `lint:allow` directive with a reason.
    Suppressed,
    /// Present in the committed baseline.
    Baselined,
}

/// Classifies a finding against the baseline.
pub fn status_of(f: &Finding, baseline: &BTreeSet<String>) -> Status {
    if f.suppressed.is_some() {
        Status::Suppressed
    } else if baseline.contains(&f.key()) {
        Status::Baselined
    } else {
        Status::Open
    }
}

/// Renders the `sintra-lint-v3` JSON report: v2 without the `related`
/// arrays, which only the cross-file rule filled.
pub fn render_json(findings: &[Finding], baseline: &BTreeSet<String>) -> String {
    let mut open = 0usize;
    let mut suppressed = 0usize;
    let mut baselined = 0usize;
    let mut body = String::new();
    for (i, f) in findings.iter().enumerate() {
        let status = status_of(f, baseline);
        let status_str = match status {
            Status::Open => {
                open += 1;
                "open"
            }
            Status::Suppressed => {
                suppressed += 1;
                "suppressed"
            }
            Status::Baselined => {
                baselined += 1;
                "baselined"
            }
        };
        if i > 0 {
            body.push_str(",\n");
        }
        let _ = write!(
            body,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"status\": \"{}\"",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            status_str,
        );
        if let Some(reason) = &f.suppressed {
            let _ = write!(body, ", \"reason\": \"{}\"", json_escape(reason));
        }
        body.push('}');
    }
    format!(
        "{{\n  \"format\": \"sintra-lint-v3\",\n  \"rules\": [{}],\n  \"summary\": {{\"total\": {}, \"open\": {}, \"suppressed\": {}, \"baselined\": {}}},\n  \"findings\": [\n{}\n  ]\n}}\n",
        rules::RULES
            .iter()
            .map(|r| format!("\"{r}\""))
            .collect::<Vec<_>>()
            .join(", "),
        findings.len(),
        open,
        suppressed,
        baselined,
        body,
    )
}

/// Renders human-readable output: one `path:line: [rule] message` per open
/// finding, then a one-line summary.
pub fn render_human(findings: &[Finding], baseline: &BTreeSet<String>) -> String {
    let mut out = String::new();
    let mut open = 0usize;
    let mut suppressed = 0usize;
    let mut baselined = 0usize;
    for f in findings {
        match status_of(f, baseline) {
            Status::Open => {
                open += 1;
                let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
            }
            Status::Suppressed => suppressed += 1,
            Status::Baselined => baselined += 1,
        }
    }
    let _ = writeln!(
        out,
        "sintra-lint: {open} open, {suppressed} suppressed, {baselined} baselined"
    );
    out
}

/// Serializes the keys of all unsuppressed findings as a baseline file.
pub fn render_baseline(findings: &[Finding]) -> String {
    let keys: BTreeSet<String> = findings
        .iter()
        .filter(|f| f.suppressed.is_none())
        .map(Finding::key)
        .collect();
    if keys.is_empty() {
        return "[]\n".to_string();
    }
    let mut out = String::from("[\n");
    let n = keys.len();
    for (i, k) in keys.iter().enumerate() {
        let _ = write!(out, "  \"{}\"", json_escape(k));
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: &str = "crates/core/src/sample.rs";

    fn open_rules(path: &str, src: &str) -> Vec<&'static str> {
        analyze_source(path, src)
            .into_iter()
            .filter(|f| f.suppressed.is_none())
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn suppression_requires_reason() {
        let with_reason =
            "// lint:allow(determinism): replay-stable, seeded\nuse std::collections::HashMap;\n";
        let findings = analyze_source(CORE, with_reason);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].suppressed.is_some());

        let without = "// lint:allow(determinism)\nuse std::collections::HashMap;\n";
        let rules: Vec<_> = open_rules(CORE, without);
        assert!(rules.contains(&rules::DETERMINISM), "{rules:?}");
        assert!(rules.contains(&rules::LINT_DIRECTIVE), "{rules:?}");
    }

    #[test]
    fn unknown_rule_in_directive_is_a_finding() {
        let rules = open_rules(CORE, "// lint:allow(no-such-rule): whatever\nlet x = 1;\n");
        assert_eq!(rules, vec![rules::LINT_DIRECTIVE]);
    }

    #[test]
    fn trailing_directive_covers_its_own_line() {
        let src = "let m: HashMap<u8, u8>; // lint:allow(determinism): fixture\n";
        let findings = analyze_source(CORE, src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].suppressed.as_deref(), Some("fixture"));
    }

    #[test]
    fn baseline_roundtrip() {
        let findings = analyze_source(CORE, "use std::collections::HashMap;\n");
        let text = render_baseline(&findings);
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(findings.iter().all(|f| parsed.contains(&f.key())));
        assert_eq!(parse_baseline("[]").unwrap().len(), 0);
        assert!(parse_baseline("{}").is_err());
    }

    #[test]
    fn json_report_is_tagged_and_escaped() {
        let findings = analyze_source(CORE, "use std::collections::HashMap;\n");
        let json = render_json(&findings, &BTreeSet::new());
        assert!(json.contains("\"format\": \"sintra-lint-v3\""));
        assert!(json.contains("\"open\": 1"));
        assert!(json.contains("`HashMap`"));
    }
}
