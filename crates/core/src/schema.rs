//! `WIRE_SCHEMA.json`, rendered from the declared layouts.
//!
//! The golden is the reviewable record of the wire format: a diff in it is
//! a wire change, and [`regenerate`] refuses to write one that does not
//! come with a [`WIRE_FORMAT_VERSION`] bump. `tests/wire_schema.rs` diffs
//! the committed file against [`render`] byte for byte.

use std::collections::BTreeMap;

use sintra_crypto::thenc::Ciphertext;

use crate::broadcast::ClosingMessage;
use crate::channel::{EpochState, RecoverySet};
use crate::checked::Unchecked;
use crate::message::{EntryRef, Envelope, Payload};
use crate::wire::{Field, Layout, Shape, Wire, WIRE_FORMAT_VERSION};

/// What crosses a link as a message, or inside one as opaque bytes: every
/// layout in the schema is reachable from these.
pub const ROOTS: &[&Layout] = &[
    &Envelope::LAYOUT,
    &ClosingMessage::LAYOUT,
    &<Vec<Unchecked<EntryRef>>>::LAYOUT,
    &Ciphertext::LAYOUT,
    &Payload::LAYOUT,
    &<EpochState>::LAYOUT,
    &RecoverySet::LAYOUT,
];

/// A layout's type name as a declaration spells it.
fn type_name(layout: &Layout) -> String {
    match layout.shape {
        Shape::Wrap(_, inner) => format!("{}<{}>", layout.name, type_name(inner)),
        Shape::Pair(a, b) => format!("({}, {})", type_name(a), type_name(b)),
        _ => layout.name.to_string(),
    }
}

fn collect(layout: &'static Layout, seen: &mut BTreeMap<&'static str, &'static Layout>) {
    // A wrapper is entered once, under its constructor, but each use
    // wraps a type of its own.
    let wrapper = matches!(layout.shape, Shape::Wrap(..) | Shape::Pair(..));
    if seen.insert(layout.name, layout).is_none() || wrapper {
        for child in layout.children() {
            collect(child, seen);
        }
    }
}

/// Every layout reachable from [`ROOTS`], by name (a wrapper by its
/// constructor).
pub fn layouts() -> BTreeMap<&'static str, &'static Layout> {
    let mut seen = BTreeMap::new();
    for root in ROOTS {
        collect(root, &mut seen);
    }
    seen
}

fn fields_json(fields: &[Field]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|f| {
            let max = f.max.map(|m| format!(", \"max\": {m}")).unwrap_or_default();
            let ty = type_name(f.ty);
            format!("{{\"name\": \"{}\", \"type\": \"{ty}\"{max}}}", f.name)
        })
        .collect();
    format!("[{}]", fields.join(", "))
}

/// The schema as the text of `WIRE_SCHEMA.json`: the atoms and wrappers
/// with their bytes in words, then every struct and enum with its fields
/// in wire order, both sorted by name.
pub fn render() -> String {
    let (mut atoms, mut types) = (Vec::new(), Vec::new());
    let atom = |of: &str, bytes| format!("    {{\"type\": \"{of}\", \"bytes\": \"{bytes}\"}}");
    for (name, layout) in layouts() {
        let by_hand = layout
            .by_hand
            .map(|why| format!(", \"by_hand\": \"{why}\""))
            .unwrap_or_default();
        match layout.shape {
            Shape::Atom(bytes) => atoms.push(atom(name, bytes)),
            Shape::Wrap(bytes, _) => atoms.push(atom(&format!("{name}<T>"), bytes)),
            Shape::Pair(..) => atoms.push(atom("(A, B)", "A, then B")),
            Shape::Struct(fields) => types.push(format!(
                "    {{\"type\": \"{name}\"{by_hand}, \"fields\": {}}}",
                fields_json(fields)
            )),
            Shape::Enum(variants) => {
                let rows: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        format!(
                            "      {{\"variant\": \"{}\", \"tag\": \"{}\", \"value\": {}, \
                             \"fields\": {}}}",
                            v.name,
                            v.tag_name,
                            v.tag,
                            fields_json(v.fields)
                        )
                    })
                    .collect();
                types.push(format!(
                    "    {{\"type\": \"{name}\"{by_hand}, \"variants\": [\n{}\n    ]}}",
                    rows.join(",\n")
                ));
            }
        }
    }
    let roots: Vec<String> = ROOTS
        .iter()
        .map(|r| format!("\"{}\"", type_name(r)))
        .collect();
    format!(
        "{{\n  \"format\": \"sintra-wire-schema-v2\",\n  \
         \"wire_format_version\": {WIRE_FORMAT_VERSION},\n  \
         \"roots\": [{}],\n  \"atoms\": [\n{}\n  ],\n  \"types\": [\n{}\n  ]\n}}\n",
        roots.join(", "),
        atoms.join(",\n"),
        types.join(",\n"),
    )
}

/// The text to write over the golden `old`, or why not: a golden in this
/// format whose layouts differ from [`render`]'s under the same
/// `wire_format_version` is a wire change without a version bump. (A
/// golden in another format, or none, says nothing about these layouts.)
///
/// # Errors
///
/// Returns the refusal as a message for the person regenerating.
pub fn regenerate(old: &str) -> Result<String, String> {
    let new = render();
    // Three lines of head — brace, format, version — then the layouts.
    let old: Vec<&str> = old.splitn(4, '\n').collect();
    let fresh: Vec<&str> = new.splitn(4, '\n').collect();
    if old.len() == 4 && old[..3] == fresh[..3] && old[3] != fresh[3] {
        return Err(format!(
            "a wire layout changed but WIRE_FORMAT_VERSION is still {WIRE_FORMAT_VERSION}: \
             bump it in crates/core/src/wire.rs in the same commit, then regenerate"
        ));
    }
    Ok(new)
}
