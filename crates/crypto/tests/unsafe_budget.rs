//! The workspace's unsafe budget is one block: the call into the SHA-NI
//! kernel in `hash.rs`, after the CPU check.
//!
//! The compiler enforces the budget once every crate root carries its
//! attribute: `#![forbid(unsafe_code)]` everywhere, and
//! `#![deny(unsafe_code)]` on `sintra-crypto`, whose one
//! `#[allow(unsafe_code)]` sits in `hash.rs`. This test keeps those
//! attributes in place: a new binary without one, a `forbid` weakened
//! to `deny`, or a second `allow` fails here.

use std::fs;
use std::path::{Path, PathBuf};

const FORBID: &str = "#![forbid(unsafe_code)]";
const DENY: &str = "#![deny(unsafe_code)]";
const ALLOW: &str = "#[allow(unsafe_code)]";

/// The one crate root that denies rather than forbids.
const DENYING_ROOT: &str = "crates/crypto/src/lib.rs";
/// The one file that allows, once.
const ALLOWING_FILE: &str = "crates/crypto/src/hash.rs";
/// This file names the attributes in strings and is not counted.
const THIS_FILE: &str = "crates/crypto/tests/unsafe_budget.rs";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, as a path relative to the workspace root.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_str().unwrap().replace('\\', "/"));
        }
    }
}

fn is_crate_root(path: &str) -> bool {
    let Some((_, tail)) = path.rsplit_once("/src/") else {
        return false;
    };
    match tail.strip_prefix("bin/") {
        Some(bin) => !bin.contains('/'),
        None => tail == "lib.rs" || tail == "main.rs",
    }
}

#[test]
fn unsafe_outside_the_sha_ni_dispatch_is_forbidden() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root, &root.join("crates"), &mut files);
    assert!(files.iter().any(|f| f == ALLOWING_FILE), "walked {files:?}");

    let mut forbidding = Vec::new();
    let mut denying = Vec::new();
    let mut allows = Vec::new();
    for path in files.iter().filter(|f| *f != THIS_FILE) {
        let src = fs::read_to_string(root.join(path)).unwrap();
        for (i, line) in src.lines().enumerate() {
            let code = line.split("//").next().unwrap().trim();
            if !code.contains("unsafe_code") {
                continue;
            }
            match code {
                FORBID => forbidding.push(path.as_str()),
                DENY => denying.push(path.as_str()),
                ALLOW => allows.push(path.as_str()),
                _ => panic!("{path}:{}: unexpected `{code}`", i + 1),
            }
        }
    }

    for path in files.iter().filter(|f| is_crate_root(f)) {
        let wanted = if path == DENYING_ROOT {
            &denying
        } else {
            &forbidding
        };
        assert!(
            wanted.contains(&path.as_str()),
            "{path} is a crate root without its unsafe_code attribute"
        );
    }
    assert_eq!(denying, [DENYING_ROOT], "only sintra-crypto denies");
    assert_eq!(allows, [ALLOWING_FILE], "one allow, in hash.rs");
    let hash = fs::read_to_string(root.join(ALLOWING_FILE)).unwrap();
    let blocks = hash
        .lines()
        .map(|l| l.split("//").next().unwrap())
        .filter(|code| code.contains("unsafe {"))
        .count();
    assert_eq!(blocks, 1, "the allow in hash.rs covers one unsafe block");
}
