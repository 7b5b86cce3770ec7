//! Cross-file rule tests: multi-file fixtures for `verify-before-mutate`
//! and `wire-schema`, the golden byte-identity check, the obligation
//! table ↔ `Body` registry equality check, and the two mutation drills
//! from the acceptance checklist (drop a verifier call / reorder an
//! encoded field — the lint must fail either way).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use sintra_lint::{
    analyze_sources, collect_workspace_files, extract_wire_schema, ir, obligations, render_json,
    rules, schema, Finding,
};

/// Virtual paths that place the fixtures in the rules' scopes.
const MSG: &str = "crates/core/src/message.rs";
const HANDLER: &str = "crates/core/src/channel/fixture.rs";
const HANDLER2: &str = "crates/core/src/channel/handlers.rs";
const WIRE: &str = "crates/core/src/wire.rs";

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

fn wire_files(which: &str) -> Vec<(String, String)> {
    vec![(WIRE.to_string(), fixture("wire-schema", which))]
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
    let findings = analyze_sources(&vb_files("trigger.rs"), None);
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
    let findings = analyze_sources(&vb_files("pass.rs"), None);
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
    let findings = analyze_sources(&files, None);
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
fn wire_schema_trigger_fires() {
    let findings = analyze_sources(&wire_files("trigger.rs"), None);
    let open = open(&findings, rules::WIRE_SCHEMA);
    assert!(!open.is_empty(), "swapped fields went unnoticed");
    assert!(
        open.iter().all(|f| f.path == WIRE),
        "finding anchored off the impl: {open:#?}"
    );
}

#[test]
fn wire_schema_pass_is_silent_and_matches_its_own_golden() {
    let files = wire_files("pass.rs");
    let schema_json = extract_wire_schema(&files);
    assert!(schema_json.contains("\"Ping\""), "extraction came up empty");
    let findings = analyze_sources(&files, Some(&schema_json));
    assert!(
        findings.is_empty(),
        "pass fixture produced findings: {findings:#?}"
    );
}

#[test]
fn wire_schema_suppression_covers_the_encode_anchor() {
    let findings = analyze_sources(&wire_files("suppressed.rs"), None);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == rules::WIRE_SCHEMA)
        .collect();
    assert!(!hits.is_empty(), "suppressed fixture should still find");
    for f in hits {
        assert!(
            f.suppressed.is_some(),
            "asymmetry escaped the lint:allow: {f:?}"
        );
    }
}

#[test]
fn golden_drift_and_missing_version_bump_are_findings() {
    let files = wire_files("pass.rs");
    let schema_json = extract_wire_schema(&files);

    // Any difference from the committed golden is drift.
    let drift = analyze_sources(&files, Some(""));
    assert!(
        drift
            .iter()
            .any(|f| f.rule == rules::WIRE_SCHEMA && f.path == "WIRE_SCHEMA.json"),
        "drift against an empty golden went unnoticed: {drift:#?}"
    );

    // A body change with an unchanged wire_format_version is a second,
    // sharper finding: the bump gate.
    let stale = schema_json.replace("\"enc=seq\"", "\"enc=old_seq\"");
    assert_ne!(stale, schema_json, "mutation failed to apply");
    let findings = analyze_sources(&files, Some(&stale));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::WIRE_SCHEMA && f.message.contains("WIRE_FORMAT_VERSION bump")),
        "version-bump gate silent: {findings:#?}"
    );
    assert_eq!(
        schema::schema_version(&schema_json),
        Some(1),
        "fixture schema must carry version 1"
    );
}

#[test]
fn committed_wire_schema_golden_is_byte_identical() {
    let root = workspace_root();
    let files = collect_workspace_files(&root).expect("walking workspace");
    let schema_json = extract_wire_schema(&files);
    let golden = fs::read_to_string(root.join("WIRE_SCHEMA.json"))
        .expect("WIRE_SCHEMA.json golden must be committed");
    assert_eq!(
        schema_json, golden,
        "WIRE_SCHEMA.json is stale: regenerate with \
         `cargo run -p sintra-lint -- --write-wire-schema` (and bump \
         WIRE_FORMAT_VERSION if the wire format changed)"
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
        let findings = analyze_sources(&files, None);
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

#[test]
fn mutation_reordering_an_encoded_field_fails_the_lint() {
    // Acceptance drill: swap two encoded fields of one Body variant and
    // the lint must go red.
    let root = workspace_root();
    let mut files = collect_workspace_files(&root).expect("walking workspace");
    let msg = files
        .iter_mut()
        .find(|(p, _)| p.ends_with("core/src/message.rs"))
        .expect("message.rs in workspace");
    let orig = "buf.push(TAG_BA_COIN_SHARE);\n                round.encode(buf);\n                share.encode(buf);";
    let swapped = "buf.push(TAG_BA_COIN_SHARE);\n                share.encode(buf);\n                round.encode(buf);";
    assert!(
        msg.1.contains(orig),
        "BaCoinShare encode arm changed shape; update this mutation"
    );
    msg.1 = msg.1.replace(orig, swapped);
    let findings = analyze_sources(&files, None);
    assert!(
        findings.iter().any(|f| {
            f.rule == rules::WIRE_SCHEMA
                && f.path.ends_with("core/src/message.rs")
                && f.suppressed.is_none()
                && f.message.contains("BaCoinShare")
        }),
        "field reorder went unnoticed: {findings:#?}"
    );
}
