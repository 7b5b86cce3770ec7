//! The golden gate: `WIRE_SCHEMA.json` is what the declared layouts
//! render to, a changed layout needs a version bump, and the schema is
//! closed — every codec written by hand is on a short list, with the
//! reason a declaration cannot say it in the golden itself.

use std::collections::BTreeSet;

use sintra_core::schema::{layouts, regenerate, render};
use sintra_core::wire::Shape;

const GOLDEN: &str = include_str!("../../../WIRE_SCHEMA.json");

#[test]
fn committed_wire_schema_golden_is_byte_identical() {
    assert_eq!(
        render(),
        GOLDEN,
        "WIRE_SCHEMA.json is stale: bump WIRE_FORMAT_VERSION if a layout changed, then \
         `cargo run -p sintra-core --example wire_schema`"
    );
}

#[test]
fn changed_layout_without_a_version_bump_is_refused() {
    assert_eq!(regenerate(GOLDEN).as_deref(), Ok(GOLDEN), "no-op");
    // A golden that disagrees with the code about one field: the code
    // changed under the same version.
    let stale = GOLDEN.replacen("\"send_seq\"", "\"sequence\"", 1);
    assert_ne!(stale, GOLDEN);
    let refusal = regenerate(&stale).unwrap_err();
    assert!(refusal.contains("WIRE_FORMAT_VERSION"), "{refusal}");
    // With the version moved as well, it is a declared wire change.
    let older = stale.replacen(
        "\"wire_format_version\": 3",
        "\"wire_format_version\": 2",
        1,
    );
    assert_eq!(regenerate(&older).as_deref(), Ok(GOLDEN));
    // A golden from another producer (or none) says nothing about these
    // layouts.
    assert!(regenerate("").is_ok());
    assert!(regenerate(&stale.replacen("-v2", "-v1", 1)).is_ok());
}

#[test]
fn schema_is_closed_and_tags_are_unique() {
    let mut atoms = BTreeSet::new();
    let mut by_hand = BTreeSet::new();
    for (name, layout) in layouts() {
        match layout.shape {
            Shape::Atom(_) => {
                atoms.insert(name);
            }
            Shape::Enum(variants) => {
                let tags: BTreeSet<u8> = variants.iter().map(|v| v.tag).collect();
                assert_eq!(tags.len(), variants.len(), "{name} reuses a tag");
            }
            _ => {}
        }
        if layout.by_hand.is_some() {
            by_hand.insert(name);
        }
    }
    // Everything else is expanded from a declaration. Growing either list
    // is a reviewed decision: the codec's two directions are then kept in
    // step by hand, and only the known-answer corpus checks them.
    let expected_atoms = [
        "ProtocolId",
        "Ubig",
        "Vec<u8>",
        "[u8; 32]",
        "bool",
        "u32",
        "u64",
        "u8",
        "usize",
    ];
    assert_eq!(atoms, BTreeSet::from(expected_atoms));
    assert_eq!(by_hand, BTreeSet::from(["Entry", "MainVote"]));
}
