//! The golden gate: `WIRE_SCHEMA.json` is what the declared layouts
//! render to, a changed layout needs a version bump, and the schema is
//! closed — every codec written by hand is on a short list, with the
//! reason a declaration cannot say it in the golden itself. And what a
//! message carries to be checked is declared `Unchecked`, so that no
//! handler can store it before a check returned it.

use std::collections::BTreeSet;

use sintra_core::checked::Unchecked;
use sintra_core::schema::{layouts, regenerate, render, ROOTS};
use sintra_core::wire::{Field, Layout, Shape, Wire};
use sintra_crypto::thsig::SigShare;

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
        "\"wire_format_version\": 4",
        "\"wire_format_version\": 3",
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

/// The types a handler must check before acting on them.
const SIGNED: [&str; 7] = [
    "SigShare",
    "ThresholdSignature",
    "RsaSignature",
    "CoinShare",
    "DecryptionBatch",
    "Entry",
    "EntryRef",
];

/// Where under `layout` a signed type is declared bare. An `Unchecked`
/// value is unchecked as a whole: the signature inside an entry or a
/// share is a part of it, not a declaration of its own.
fn bare_signed(layout: &Layout, path: &str, found: &mut Vec<String>) {
    if layout.unchecked {
        return;
    }
    let path = format!("{path}/{}", layout.name);
    if SIGNED.contains(&layout.name) {
        found.push(path);
        return;
    }
    for child in layout.children() {
        bare_signed(child, &path, found);
    }
}

#[test]
fn every_signed_wire_field_is_declared_unchecked() {
    let mut found = Vec::new();
    for root in ROOTS {
        bare_signed(root, "", &mut found);
    }
    assert_eq!(
        found,
        Vec::<String>::new(),
        "declared bare: write the field as `Unchecked<_>`, and the handler \
         cannot store it until a `check_*` of `GroupContext` returns it"
    );
    // The walk does see a bare declaration: a new body with a share
    // written as `SigShare`, and the same written as it should be.
    static BARE: [Field; 1] = [Field::new("share", &SigShare::LAYOUT, None)];
    static DECLARED: [Field; 1] = [Field::new("share", &<Unchecked<SigShare>>::LAYOUT, None)];
    let body = |fields| Layout {
        name: "NewBody",
        by_hand: None,
        unchecked: false,
        shape: Shape::Struct(fields),
    };
    bare_signed(&body(&BARE), "", &mut found);
    assert_eq!(found, ["/NewBody/SigShare"]);
    bare_signed(&body(&DECLARED), "", &mut found);
    assert_eq!(found.len(), 1);
}
