//! The workspace's unsafe budget is three blocks: the call into the
//! SHA-NI kernel in `sintra-crypto`'s `hash.rs`, and two in
//! `sintra-bigint` — the 6-limb `mulx`/`adcx`/`adox` Montgomery kernel in
//! `montgomery.rs`, and in `ifma.rs` the one call into the AVX-512 IFMA
//! kernels (the 16-limb kernel and the lockstep kernel under three-prime
//! RSA signatures share it). Each runs only after its CPU check.
//!
//! The compiler enforces the budget once every crate root carries its
//! attribute: `#![forbid(unsafe_code)]` everywhere, except
//! `#![deny(unsafe_code)]` on those two crates, whose files allow it once
//! per block: `montgomery.rs`, `ifma.rs` and `hash.rs` once each. This
//! test keeps those attributes in place: a new binary without one, a
//! `forbid` weakened to `deny` anywhere else, a further `allow`, or a
//! further block in any of those files fails here.

use std::fs;
use std::path::{Path, PathBuf};

const FORBID: &str = "#![forbid(unsafe_code)]";
const DENY: &str = "#![deny(unsafe_code)]";
const ALLOW: &str = "#[allow(unsafe_code)]";

/// The two crate roots that deny rather than forbid.
const DENYING_ROOTS: [&str; 2] = ["crates/bigint/src/lib.rs", "crates/crypto/src/lib.rs"];
/// The files that allow, once per `unsafe` block they hold, with that
/// count.
const ALLOWING_FILES: [(&str, usize); 3] = [
    ("crates/bigint/src/ifma.rs", 1),
    ("crates/bigint/src/montgomery.rs", 1),
    ("crates/crypto/src/hash.rs", 1),
];
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
fn unsafe_outside_the_two_kernels_is_forbidden() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root, &root.join("crates"), &mut files);
    for (allowing, _) in ALLOWING_FILES {
        assert!(files.iter().any(|f| f == allowing), "walked {files:?}");
    }

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
        let wanted = if DENYING_ROOTS.contains(&path.as_str()) {
            &denying
        } else {
            &forbidding
        };
        assert!(
            wanted.contains(&path.as_str()),
            "{path} is a crate root without its unsafe_code attribute"
        );
    }
    assert_eq!(
        denying, DENYING_ROOTS,
        "only sintra-bigint and sintra-crypto deny"
    );
    let budget: Vec<&str> = ALLOWING_FILES
        .iter()
        .flat_map(|&(file, count)| std::iter::repeat_n(file, count))
        .collect();
    assert_eq!(allows, budget, "one allow per kernel block");
    for (allowing, count) in ALLOWING_FILES {
        let src = fs::read_to_string(root.join(allowing)).unwrap();
        let blocks = src
            .lines()
            .map(|l| l.split("//").next().unwrap())
            .filter(|code| code.contains("unsafe {"))
            .count();
        assert_eq!(
            blocks, count,
            "the allows in {allowing} cover {count} unsafe blocks"
        );
    }
}
