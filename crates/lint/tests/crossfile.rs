//! Cross-file rule tests: multi-file fixtures for `verify-before-mutate`,
//! the obligation table ↔ `Body` registry equality check, and the
//! mutation drill from the acceptance checklist (drop a verifier call —
//! the lint must fail).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use sintra_lint::{
    analyze_sources, collect_workspace_files, ir, obligations, render_json, rules, Finding,
};

/// Virtual paths that place the fixtures in the rules' scopes.
const MSG: &str = "crates/core/src/message.rs";
const HANDLER: &str = "crates/core/src/channel/fixture.rs";
const HANDLER2: &str = "crates/core/src/channel/handlers.rs";

fn fixture(dir: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(which);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn vb_files(which: &str) -> Vec<(String, String)> {
    vec![
        (
            MSG.to_string(),
            fixture("verify-before-mutate", "message.rs"),
        ),
        (HANDLER.to_string(), fixture("verify-before-mutate", which)),
    ]
}

fn open<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed.is_none())
        .collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn verify_before_mutate_trigger_fires() {
    let findings = analyze_sources(&vb_files("trigger.rs"));
    let open = open(&findings, rules::VERIFY_MUTATE);
    assert_eq!(
        open.len(),
        1,
        "expected exactly the CbEcho violation: {findings:#?}"
    );
    let f = open[0];
    assert_eq!(f.path, HANDLER);
    assert!(
        f.message.contains("CbEcho"),
        "finding names the wrong variant: {f:?}"
    );
    // The compliant AcEntry arm must stay silent.
    assert!(
        !findings.iter().any(|f| f.message.contains("AcEntry")),
        "compliant arm produced noise: {findings:#?}"
    );
}

#[test]
fn verify_before_mutate_pass_is_silent() {
    let findings = analyze_sources(&vb_files("pass.rs"));
    assert!(
        findings.is_empty(),
        "pass fixture produced findings: {findings:#?}"
    );
}

#[test]
fn cross_file_finding_is_suppressed_at_handler_and_cites_both_files() {
    // The arm lives in fixture.rs, the premature mutation in handlers.rs:
    // the finding spans two files, the `lint:allow` at the arm (primary
    // location) covers it, and the JSON report cites both locations.
    let mut files = vb_files("suppressed.rs");
    files.push((
        HANDLER2.to_string(),
        fixture("verify-before-mutate", "suppressed-handlers.rs"),
    ));
    let findings = analyze_sources(&files);
    let f = findings
        .iter()
        .find(|f| f.rule == rules::VERIFY_MUTATE)
        .unwrap_or_else(|| panic!("cross-file finding missing: {findings:#?}"));
    assert_eq!(f.path, HANDLER, "primary location must be the dispatch arm");
    let reason = f
        .suppressed
        .as_deref()
        .unwrap_or_else(|| panic!("lint:allow at the arm did not suppress: {f:?}"));
    assert!(reason.contains("parked pre-verification"));
    assert!(
        f.related.iter().any(|r| r.path == HANDLER2),
        "related evidence must cite the mutation's file: {f:?}"
    );
    let json = render_json(&findings, &BTreeSet::new());
    assert!(json.contains(HANDLER) && json.contains(HANDLER2));
    // Nothing else may leak out of the fixture set.
    assert!(
        findings.iter().all(|f| f.suppressed.is_some()),
        "unsuppressed noise: {findings:#?}"
    );
}

#[test]
fn obligation_table_matches_body_registry_exactly() {
    let root = workspace_root();
    let files = collect_workspace_files(&root).expect("walking workspace");
    let workspace = ir::WorkspaceIr::build(&files);
    let (_, body) = workspace.body_enum().expect("enum Body in message.rs");
    let registry: BTreeSet<&str> = body.variants.iter().map(|v| v.name.as_str()).collect();
    let table: BTreeSet<&str> = obligations::OBLIGATIONS.iter().map(|o| o.variant).collect();
    assert_eq!(
        registry, table,
        "obligation table and Body enum disagree: every wire body needs \
         exactly one obligation row"
    );
    assert_eq!(
        obligations::OBLIGATIONS.len(),
        body.variants.len(),
        "duplicate rows in the obligation table"
    );
}

#[test]
fn mutation_dropping_a_verifier_call_fails_the_lint() {
    // Acceptance drill: delete (rename) the verifier call at one handler
    // site and the lint must go red — for the entry signature and for
    // the two assembled threshold signatures, whose `GroupContext`
    // helpers exist so that this identifier is theirs alone.
    let root = workspace_root();
    let pristine = collect_workspace_files(&root).expect("walking workspace");
    for (site, verifier, variant) in [
        ("channel/atomic.rs", "verify_party_sig", "AcEntry"),
        ("agreement/binary.rs", "verify_agreement_sig", "BaDecide"),
        ("broadcast/consistent.rs", "verify_broadcast_sig", "CbFinal"),
    ] {
        let mut files = pristine.clone();
        let handler = files
            .iter_mut()
            .find(|(p, _)| p.ends_with(site))
            .unwrap_or_else(|| panic!("{site} in workspace"));
        assert!(handler.1.contains(verifier), "{site} calls {verifier}");
        handler.1 = handler.1.replace(verifier, "skip_the_check");
        let findings = analyze_sources(&files);
        assert!(
            findings.iter().any(|f| {
                f.rule == rules::VERIFY_MUTATE
                    && f.path.ends_with(site)
                    && f.suppressed.is_none()
                    && f.message.contains(variant)
            }),
            "dropping {verifier} in {site} went unnoticed: {findings:#?}"
        );
    }
}
