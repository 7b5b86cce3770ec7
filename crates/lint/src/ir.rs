//! The cross-file intermediate representation.
//!
//! [`crate::parse`] lifts each file's token stream into a [`FileIr`]:
//! functions with body token ranges and outgoing call edges, enums with
//! their variants, and `impl` context. A
//! [`WorkspaceIr`] glues the per-file IRs together and answers the two
//! cross-file questions the v2 rules ask: *which functions are reachable
//! from envelope dispatch* and *where is `enum Body` declared*.
//!
//! Calls are resolved **by name**, deliberately: a token-level lexer has
//! no type information, so `x.handle(..)` edges to every function named
//! `handle`. That over-approximates the call graph, which is the safe
//! direction for both uses here — reachability (analyzing one arm too
//! many is noise at worst) and verifier discharge (an obligation is only
//! discharged by calling a function whose *name* is a registered
//! verifier, which is also how a human auditor greps for it).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::Lexed;

/// One outgoing call edge inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (the last path segment before the `(`).
    pub name: String,
    /// Token index of the callee identifier in the file's token stream.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// Whether the call is a method call (`x.name(..)`).
    pub method: bool,
}

/// A function item with its body token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// The `impl`/`trait` type the function is defined on, if any
    /// (`impl Foo` / `impl Bar for Foo` both record `Foo`-ish context).
    pub self_type: Option<String>,
    /// The trait name for `impl Trait for Type` / `trait Trait` contexts.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function sits under `#[test]`/`#[cfg(test)]`.
    pub in_test: bool,
    /// Whether the function takes `&mut self` (or `mut self`).
    pub mut_self: bool,
    /// Token range of the body **including** the braces, as half-open
    /// `[start, end)` indices into the file's token stream. Empty for
    /// bodiless trait declarations.
    pub body: (usize, usize),
    /// Outgoing call edges in source order.
    pub calls: Vec<Call>,
}

/// One enum variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
}

/// An enum item.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variants in source order.
    pub variants: Vec<Variant>,
}

/// The item-level IR of one file.
#[derive(Debug)]
pub struct FileIr {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The underlying token stream (rules scan body ranges directly).
    pub lexed: Lexed,
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// Enums in source order.
    pub enums: Vec<EnumItem>,
}

/// A function id: `(file index, fn index)` within a [`WorkspaceIr`].
pub type FnId = (usize, usize);

/// The cross-file IR for a set of files.
#[derive(Debug)]
pub struct WorkspaceIr {
    /// Per-file IRs, in the input order (analyze passes sort by path).
    pub files: Vec<FileIr>,
    /// Function name → every definition with that name.
    by_name: BTreeMap<String, Vec<FnId>>,
}

impl WorkspaceIr {
    /// Builds the IR over `(path, source)` pairs.
    pub fn build(files: &[(String, String)]) -> Self {
        let files: Vec<FileIr> = files
            .iter()
            .map(|(p, s)| crate::parse::parse_file(p, s))
            .collect();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
        }
        WorkspaceIr { files, by_name }
    }

    /// Every function definition with the given name.
    pub fn fns_named(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The function item for an id.
    pub fn fn_item(&self, id: FnId) -> &FnItem {
        &self.files[id.0].fns[id.1]
    }

    /// Finds `enum Body` in a `message.rs` file (the wire-body registry).
    pub fn body_enum(&self) -> Option<(usize, &EnumItem)> {
        for (fi, file) in self.files.iter().enumerate() {
            if !file.path.ends_with("message.rs") {
                continue;
            }
            if let Some(e) = file.enums.iter().find(|e| e.name == "Body") {
                return Some((fi, e));
            }
        }
        None
    }

    /// Function ids reachable from envelope dispatch, via name-resolved
    /// call edges (test code excluded).
    ///
    /// Roots are every non-test function named `handle_envelope`; when a
    /// file set has none (small fixtures), functions named `handle` or
    /// `on_message` serve as fallback roots so the rule still exercises.
    pub fn reachable_from_dispatch(&self) -> BTreeSet<FnId> {
        let mut roots: Vec<FnId> = self.live_fns_named("handle_envelope");
        if roots.is_empty() {
            roots = self.live_fns_named("handle");
            roots.extend(self.live_fns_named("on_message"));
        }
        let mut seen: BTreeSet<FnId> = roots.iter().copied().collect();
        let mut queue: VecDeque<FnId> = roots.into();
        while let Some(id) = queue.pop_front() {
            for call in &self.fn_item(id).calls {
                for &callee in self.fns_named(&call.name) {
                    if !self.fn_item(callee).in_test && seen.insert(callee) {
                        queue.push_back(callee);
                    }
                }
            }
        }
        seen
    }

    fn live_fns_named(&self, name: &str) -> Vec<FnId> {
        self.fns_named(name)
            .iter()
            .copied()
            .filter(|&id| !self.fn_item(id).in_test)
            .collect()
    }
}
