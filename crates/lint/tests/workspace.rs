//! The gate this crate exists for: the workspace itself must be clean,
//! and known-bad mutations of real files must fail.

use std::path::{Path, PathBuf};

use sintra_lint::{analyze_source, analyze_workspace, parse_baseline, rules};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_open_findings() {
    let findings = analyze_workspace(&repo_root()).expect("walk workspace");
    let open: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
    assert!(
        open.is_empty(),
        "the tree must lint clean; open findings:\n{open:#?}"
    );
}

#[test]
fn committed_baseline_is_empty() {
    let path = repo_root().join("crates/lint/baseline.json");
    let text = std::fs::read_to_string(&path).expect("baseline.json is committed");
    let set = parse_baseline(&text).expect("baseline parses");
    assert!(set.is_empty(), "baseline must stay empty: {set:?}");
}

#[test]
fn reintroducing_hashmap_in_multiplex_fails() {
    // The multiplex table was deliberately converted to BTreeMap so that
    // per-channel iteration is replica-deterministic; undoing that must
    // not pass review silently.
    let path = repo_root().join("crates/core/src/channel/multiplex.rs");
    let src = std::fs::read_to_string(&path).expect("read multiplex.rs");
    assert!(src.contains("BTreeMap"), "multiplex should use BTreeMap");

    let clean = analyze_source("crates/core/src/channel/multiplex.rs", &src);
    assert!(clean.iter().all(|f| f.suppressed.is_some()), "{clean:#?}");

    let mutated = src.replace("BTreeMap", "HashMap");
    let findings = analyze_source("crates/core/src/channel/multiplex.rs", &mutated);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::DETERMINISM && f.suppressed.is_none()),
        "HashMap reintroduction went undetected"
    );
}

#[test]
fn unsafe_outside_the_sha_ni_dispatch_fails() {
    // The workspace's unsafe budget is one block: the call into the SHA-NI
    // kernel in hash.rs. An `unsafe` anywhere else must still be a finding,
    // next door in hmac.rs included.
    assert_eq!(rules::UNSAFE_ALLOWLIST, ["crates/crypto/src/hash.rs"]);
    let unsafe_findings = |path: &str, src: &str| {
        analyze_source(path, src)
            .iter()
            .filter(|f| f.rule == rules::UNSAFE_BUDGET && f.suppressed.is_none())
            .count()
    };

    let path = "crates/crypto/src/hmac.rs";
    let src = std::fs::read_to_string(repo_root().join(path)).expect("read hmac.rs");
    assert_eq!(unsafe_findings(path, &src), 0);
    let anchor = "    pub fn sign(";
    assert!(
        src.contains(anchor),
        "HmacKey::sign moved; update this mutation"
    );
    let mutated = src.replacen(
        anchor,
        "    fn raw(&self) { unsafe {} }\n\n    pub fn sign(",
        1,
    );
    assert_eq!(
        unsafe_findings(path, &mutated),
        1,
        "unsafe in hmac.rs went undetected"
    );

    // Read as if it lived anywhere else, hash.rs shows its budget: one.
    let hash = std::fs::read_to_string(repo_root().join("crates/crypto/src/hash.rs"))
        .expect("read hash.rs");
    assert_eq!(unsafe_findings("crates/crypto/src/hash.rs", &hash), 0);
    assert_eq!(
        unsafe_findings("crates/crypto/src/other.rs", &hash),
        1,
        "hash.rs must hold exactly one unsafe block"
    );
}

#[test]
fn reintroducing_inline_quorum_arithmetic_fails() {
    for snippet in [
        "fn bound(&self) -> usize { self.ctx.n() - self.ctx.t() }",
        "fn bound(&self) -> usize { self.ctx.t() + 1 }",
        "fn bound(n: usize, t: usize) -> usize { n - t }",
        "fn ready(&self) -> usize { 2 * self.ctx.t() + 1 }",
    ] {
        let findings = analyze_source("crates/core/src/channel/atomic.rs", snippet);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == rules::QUORUM && f.suppressed.is_none()),
            "inline threshold went undetected: {snippet}"
        );
    }
}

#[test]
fn bare_panics_in_link_code_fail() {
    for snippet in [
        "fn f(q: &mut Vec<u8>) -> u8 { q.pop().unwrap() }",
        "fn f(q: &mut Vec<u8>) -> u8 { q.pop().expect(\"nonempty\") }",
        "fn f() { panic!(\"boom\"); }",
    ] {
        let findings = analyze_source("crates/net/src/link/reliable.rs", snippet);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == rules::PANIC_POLICY && f.suppressed.is_none()),
            "bare panic path went undetected: {snippet}"
        );
    }
}

#[test]
fn raw_wire_tags_fail() {
    for snippet in [
        "impl Wire for X { fn encode(&self, buf: &mut Vec<u8>) { buf.push(17); } }",
        "wire_struct!(X { d: Vec<u8> }); fn len(d: &[u8]) -> u32 { d.len() as u32 }",
    ] {
        let findings = analyze_source("crates/core/src/wire.rs", snippet);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == rules::WIRE_STABILITY && f.suppressed.is_none()),
            "wire regression went undetected: {snippet}"
        );
    }
}

#[test]
fn reintroducing_an_unchecked_length_prefix_in_optimistic_fails() {
    // `optimistic.rs` holds codecs but is not called `wire.rs`: four
    // `len() as u32` prefixes sat there unreported while the rule's scope
    // was a file-name test.
    let path = "crates/core/src/channel/optimistic.rs";
    let src = std::fs::read_to_string(repo_root().join(path)).expect("read optimistic.rs");
    let clean = analyze_source(path, &src);
    assert!(clean.iter().all(|f| f.suppressed.is_some()), "{clean:#?}");

    let checked = "put_seq(&mut buf, entries);";
    assert!(
        src.contains(checked),
        "entries_digest changed shape; update this mutation"
    );
    let mutated = src.replace(
        checked,
        "buf.extend_from_slice(&(self.cert.len() as u32).to_be_bytes());",
    );
    let findings = analyze_source(path, &mutated);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::WIRE_STABILITY && f.suppressed.is_none()),
        "unchecked length prefix went undetected"
    );
}
