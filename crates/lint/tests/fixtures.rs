//! Self-tests for every rule: each has a `trigger` fixture that must
//! fire, a `pass` fixture that must stay silent, and a `suppressed`
//! fixture whose `lint:allow(<rule>): <reason>` directives must cover
//! every finding. Fixtures are plain text fed through a virtual path
//! that puts them in the rule's scope — they are never compiled.

use std::fs;
use std::path::Path;

use sintra_lint::{analyze_source, rules, Finding};

/// (rule, virtual path that places the fixture in the rule's scope)
const CASES: &[(&str, &str)] = &[
    (rules::DETERMINISM, "crates/core/src/fixture.rs"),
    (rules::QUORUM, "crates/core/src/channel/fixture.rs"),
    (rules::PANIC_POLICY, "crates/net/src/link/fixture.rs"),
    (rules::WIRE_STABILITY, "crates/proto/src/wire.rs"),
    (rules::UNSAFE_BUDGET, "crates/telemetry/src/fixture.rs"),
];

fn fixture(rule: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(which);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn open(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.suppressed.is_none()).collect()
}

#[test]
fn trigger_fixtures_fire_their_rule() {
    for (rule, vpath) in CASES {
        let findings = analyze_source(vpath, &fixture(rule, "trigger.rs"));
        let open = open(&findings);
        assert!(!open.is_empty(), "{rule}: trigger fixture did not fire");
        for f in &open {
            assert_eq!(
                f.rule, *rule,
                "{rule}: trigger fixture fired foreign rule: {f:?}"
            );
        }
    }
}

#[test]
fn pass_fixtures_stay_silent() {
    for (rule, vpath) in CASES {
        let findings = analyze_source(vpath, &fixture(rule, "pass.rs"));
        assert!(
            findings.is_empty(),
            "{rule}: pass fixture produced findings: {findings:#?}"
        );
    }
}

#[test]
fn suppressed_fixtures_are_fully_covered() {
    for (rule, vpath) in CASES {
        let findings = analyze_source(vpath, &fixture(rule, "suppressed.rs"));
        assert!(
            !findings.is_empty(),
            "{rule}: suppressed fixture should still produce (covered) findings"
        );
        for f in &findings {
            let reason = f
                .suppressed
                .as_deref()
                .unwrap_or_else(|| panic!("{rule}: finding escaped suppression: {f:?}"));
            assert!(!reason.is_empty(), "{rule}: suppression reason lost");
        }
    }
}

#[test]
fn wire_fixture_also_fires_under_link_paths() {
    // The wire-stability scope is every file that holds a codec — the
    // trigger fixture has an `impl Wire for`, so its path does not matter
    // — plus the link layer, which frames bytes without the trait.
    let src = fixture(rules::WIRE_STABILITY, "trigger.rs");
    for vpath in [
        "crates/core/src/message.rs",
        "crates/core/src/channel/optimistic.rs",
        "crates/telemetry/src/report.rs",
    ] {
        let findings = analyze_source(vpath, &src);
        assert!(
            findings.iter().any(|f| f.rule == rules::WIRE_STABILITY),
            "wire-stability silent under {vpath}"
        );
    }
    let framing = "fn put(buf: &mut Vec<u8>, d: &[u8]) { buf.push(7); let n = d.len() as u32; }";
    let link = analyze_source("crates/net/src/link/fixture.rs", framing);
    assert!(
        link.iter().any(|f| f.rule == rules::WIRE_STABILITY),
        "wire-stability silent under the link layer"
    );
    for declaration in [
        "wire_struct!(Ping { seq: u64 });",
        "wire_enum!(K { TAG_A => A });",
    ] {
        let codec = format!("{declaration}\n{framing}");
        let declared = analyze_source("crates/core/src/channel/fixture.rs", &codec);
        assert!(
            declared.iter().any(|f| f.rule == rules::WIRE_STABILITY),
            "wire-stability silent beside `{declaration}`"
        );
    }
    // Out of scope — no codec, not the link layer — the same text is clean.
    let elsewhere = analyze_source("crates/telemetry/src/report.rs", framing);
    assert!(
        !elsewhere.iter().any(|f| f.rule == rules::WIRE_STABILITY),
        "wire-stability fired outside its scope"
    );
}

#[test]
fn core_rules_do_not_fire_outside_core() {
    let det = fixture(rules::DETERMINISM, "trigger.rs");
    let quo = fixture(rules::QUORUM, "trigger.rs");
    for vpath in ["crates/net/src/server.rs", "crates/telemetry/src/lib.rs"] {
        assert!(
            analyze_source(vpath, &det)
                .iter()
                .all(|f| f.rule != rules::DETERMINISM),
            "determinism fired under {vpath}"
        );
        assert!(
            analyze_source(vpath, &quo)
                .iter()
                .all(|f| f.rule != rules::QUORUM),
            "quorum-arithmetic fired under {vpath}"
        );
    }
}
