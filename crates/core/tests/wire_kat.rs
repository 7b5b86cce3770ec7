//! Byte-level known answers for the wire codec.
//!
//! Round-trip tests hold when encode and decode are wrong in the same
//! way — two fields swapped in a declaration, a tag renumbered on both
//! sides. This test pins the bytes: the SHA-256 below was first recorded
//! against the hand-written codec the declarations replaced (wire format
//! 3), re-recorded when format 4 replaced `sc-share` with `sc-shares`,
//! and changes only with a `WIRE_FORMAT_VERSION` bump.

mod corpus;

use std::collections::BTreeSet;

use sintra_core::message::{Body, Envelope};
use sintra_core::wire::{put_bytes, Shape, Wire, WIRE_FORMAT_VERSION};
use sintra_core::ProtocolId;
use sintra_crypto::hash::Sha256;

const CORPUS_BYTES: usize = 1702;
const CORPUS_SHA256: &str = "e4f546e9a567a51d380148161efbd7b6db9449f0cd904bd7f98201f963a541e9";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn corpus_encodes_to_the_recorded_bytes() {
    assert_eq!(WIRE_FORMAT_VERSION, 4, "new format: record a new answer");
    let cases = corpus::corpus();
    let mut all = Vec::new();
    for case in &cases {
        assert!((case.decodes)(&case.bytes), "{} decodes", case.name);
        put_bytes(&mut all, &case.bytes);
    }
    let total: usize = cases.iter().map(|c| c.bytes.len()).sum();
    assert_eq!(
        (total, hex(&Sha256::digest(&all)).as_str()),
        (CORPUS_BYTES, CORPUS_SHA256),
        "the bytes of wire format {WIRE_FORMAT_VERSION} changed"
    );
}

#[test]
fn corpus_covers_every_body_variant() {
    let Shape::Enum(variants) = Body::LAYOUT.shape else {
        panic!("Body is declared as an enum");
    };
    let declared: BTreeSet<u8> = variants.iter().map(|v| v.tag).collect();
    // In an envelope the body's tag follows the pid and the send sequence.
    let body_at = ProtocolId::new("kat/ch/1").to_bytes().len() + 8;
    let covered: BTreeSet<u8> = corpus::corpus()
        .iter()
        .filter(|c| Envelope::from_bytes(&c.bytes).is_ok())
        .map(|c| c.bytes[body_at])
        .collect();
    assert_eq!(covered, declared, "one envelope per Body variant");
}
