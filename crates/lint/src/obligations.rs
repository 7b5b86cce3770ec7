//! The verification-obligation table and the `verify-before-mutate` rule.
//!
//! Every wire body a replica acts on must be cryptographically checked
//! before the handler mutates protocol state — the paper's intrusion
//! tolerance rests on it. An envelope has one way in (`Node::handle_envelope`
//! to the instance's handler), and each handler first tests its own state
//! for whether the message can still matter, then verifies, then mutates.
//! The obligation still spans files: the body is declared in `message.rs`,
//! the handler arm is in one of nine state machines, and the check or the
//! first mutation may sit several calls away in another. This module
//! records the obligation per message type and checks, over the
//! [`WorkspaceIr`]:
//!
//! 1. **registry completeness** — every `Body` variant has a table entry,
//!    so adding a wire body without deciding its verifier is a finding;
//! 2. **discharge order** — every handler arm reachable from envelope
//!    dispatch discharges its obligation before the first protocol-state
//!    mutation (linearized over the arm's transitive callees, so a
//!    mutation hidden two calls deep in another file is still seen).
//!
//! Obligations come in three discharge modes. `Strict` is the default:
//! verify, then mutate. `Deferred` covers the quarantine pattern, where a
//! handler parks unverified input in a bounded buffer and batch-verifies
//! later (coin shares, early secure-channel shares) — there the rule
//! requires a registered verifier call to be reachable from the arm or
//! present in the handler file, so deleting the batch verification still
//! fails the lint. `Exempt` records, with a reason, the bodies that carry
//! nothing verifiable (hash echoes, bare quorum-counted votes).

use std::collections::BTreeSet;

use crate::ir::{FnId, WorkspaceIr};
use crate::lexer::{Token, TokenKind};
use crate::rules::{self, RawRelated};

/// How a message type's verification obligation is discharged.
#[derive(Debug, Clone, Copy)]
pub enum Discharge {
    /// A registered verifier must be called before the first mutation.
    Strict(&'static [&'static str]),
    /// Verification is deferred into a bounded quarantine: a registered
    /// verifier must be reachable from the arm or present in the file.
    Deferred {
        /// Verifier names that discharge the obligation.
        verifiers: &'static [&'static str],
        /// Why deferral is sound for this body.
        reason: &'static str,
    },
    /// The body carries nothing cryptographically verifiable.
    Exempt(&'static str),
}

/// One row of the obligation table.
#[derive(Debug, Clone, Copy)]
pub struct Obligation {
    /// The `Body` variant name.
    pub variant: &'static str,
    /// How handlers must discharge it.
    pub discharge: Discharge,
}

/// The per-message-type verification obligations. Every `Body` variant
/// must appear here; the lint fails on a variant it has never heard of.
pub const OBLIGATIONS: &[Obligation] = &[
    Obligation {
        variant: "RbSend",
        discharge: Discharge::Exempt(
            "unsigned Bracha send: integrity comes from the echo/ready quorums over its digest",
        ),
    },
    Obligation {
        variant: "RbEcho",
        discharge: Discharge::Exempt(
            "unsigned echo vote: 2t+1 echo intersection provides integrity, there is no signature to check",
        ),
    },
    Obligation {
        variant: "RbReady",
        discharge: Discharge::Exempt(
            "unsigned ready vote over a digest: amplification is quorum-gated, not signature-gated",
        ),
    },
    Obligation {
        variant: "CbSend",
        discharge: Discharge::Exempt(
            "sender-identity-gated payload: the receiver signs what it echoes, the send itself is unsigned",
        ),
    },
    Obligation {
        variant: "CbEcho",
        discharge: Discharge::Strict(&["verify_share"]),
    },
    Obligation {
        variant: "CbFinal",
        discharge: Discharge::Strict(&["verify_broadcast_sig"]),
    },
    Obligation {
        variant: "BaPreVote",
        discharge: Discharge::Strict(&["verify_share"]),
    },
    Obligation {
        variant: "BaMainVote",
        discharge: Discharge::Strict(&["verify_share"]),
    },
    Obligation {
        variant: "BaCoinShare",
        discharge: Discharge::Deferred {
            verifiers: &["verify_share", "verify_shares"],
            reason: "shares are parked per-sender (bounded by n per round) and batch-verified at quorum",
        },
    },
    Obligation {
        variant: "BaDecide",
        discharge: Discharge::Strict(&["verify_agreement_sig"]),
    },
    Obligation {
        variant: "VbaVote",
        discharge: Discharge::Deferred {
            verifiers: &["validate_closing_bytes"],
            reason: "yes-votes carry a closing certificate validated on unpark; no-votes are bare quorum-counted bits",
        },
    },
    Obligation {
        variant: "AcEntry",
        discharge: Discharge::Strict(&["verify_party_sig"]),
    },
    Obligation {
        variant: "AcFetch",
        discharge: Discharge::Exempt(
            "unsigned request for an entry by (round, signer, digest): answered only from entries already held and verified, one reply per requester and entry, rounds bounded by FETCH_RETAIN_ROUNDS",
        ),
    },
    Obligation {
        variant: "AcFetched",
        discharge: Discharge::Strict(&["verify_party_sig"]),
    },
    Obligation {
        variant: "ScShare",
        discharge: Discharge::Deferred {
            verifiers: &["verify_share", "verify_shares"],
            reason: "early shares are parked (one per sender per ciphertext, a capped number of ciphertexts per sender) until their ciphertext is ordered, then batch-verified",
        },
    },
    Obligation {
        variant: "OptSubmit",
        discharge: Discharge::Exempt(
            "unsigned client submission: delivery is gated downstream by a quorum of signed acks",
        ),
    },
    Obligation {
        variant: "OptAck",
        discharge: Discharge::Strict(&["verify_party_sig"]),
    },
    Obligation {
        variant: "OptComplain",
        discharge: Discharge::Exempt(
            "unsigned liveness complaint: epoch change requires t+1 distinct complainers",
        ),
    },
    Obligation {
        variant: "OptState",
        discharge: Discharge::Strict(&["validate_state"]),
    },
];

/// Methods that mutate the container/field they are called on.
const MUTATING_METHODS: &[&str] = &[
    "insert",
    "remove",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "extend",
    "extend_from_slice",
    "clear",
    "entry",
    "append",
    "drain",
    "retain",
    "resize",
    "truncate",
    "push_str",
    "swap",
    "sort",
    "sort_by",
    "or_insert",
    "or_default",
    "or_insert_with",
    "get_or_insert_with",
];

/// A finding produced by the cross-file pass, with related evidence.
#[derive(Debug)]
pub struct CrossFinding {
    /// Rule name.
    pub rule: &'static str,
    /// Primary path (where a suppression directive applies).
    pub path: String,
    /// Primary 1-based line.
    pub line: u32,
    /// Stable description (baseline key material — no line numbers).
    pub message: String,
    /// Supporting evidence locations, possibly in other files.
    pub related: Vec<RawRelated>,
}

fn obligation_for(variant: &str) -> Option<&'static Obligation> {
    OBLIGATIONS.iter().find(|o| o.variant == variant)
}

/// Files whose `Body::` match arms are handler dispatch sites.
fn in_handler_scope(path: &str) -> bool {
    (path.contains("crates/core/src/") || path.contains("crates/net/src/"))
        && !path.ends_with("wire.rs")
        && !path.ends_with("message.rs")
        && !path.contains("/link/")
        && !path.contains("/sim/")
}

/// One event in an arm's linearized execution.
#[derive(Debug, Clone, Copy)]
enum Event {
    Verifier,
    Mutation { file: usize, line: u32 },
}

/// A `Body::<Variant>` match arm found in a handler function.
struct Arm {
    file: usize,
    /// Token index of the `Body` path head.
    at: usize,
    variant: String,
    line: u32,
    /// Body token range of the arm expression.
    body: (usize, usize),
    /// Enclosing function, if resolved.
    enclosing: Option<FnId>,
}

/// Skips one balanced `(..)`/`{..}`/`[..]` group starting at `i`, if any.
fn skip_group(toks: &[Token], i: usize) -> usize {
    let Some(open) = toks.get(i) else { return i };
    let (o, c) = match () {
        _ if open.is_punct('(') => ('(', ')'),
        _ if open.is_punct('{') => ('{', '}'),
        _ if open.is_punct('[') => ('[', ']'),
        _ => return i,
    };
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(o) {
            depth += 1;
        } else if toks[j].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Finds `Body::X` match arms (with optional pattern group and guard) in
/// every handler-scope file of the workspace.
fn collect_arms(ir: &WorkspaceIr) -> Vec<Arm> {
    let mut arms = Vec::new();
    for (fi, file) in ir.files.iter().enumerate() {
        if !in_handler_scope(&file.path) {
            continue;
        }
        let toks = &file.lexed.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("Body")
                || toks[i].in_test
                || !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                || !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                continue;
            }
            let Some(var_tok) = toks.get(i + 3) else {
                continue;
            };
            if var_tok.kind != TokenKind::Ident
                || !var_tok.text.chars().next().is_some_and(char::is_uppercase)
            {
                continue;
            }
            // Two dispatch shapes reach here: a `match` arm
            // (`Body::X(..) [if guard] => body`) and a let-binding test
            // (`if let Body::X(..) = scrutinee { body }`). Skip the
            // pattern's binding group, then classify.
            let mut j = skip_group(toks, i + 4);
            let is_let = toks
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_ident("let"));
            let mut is_arm = false;
            if is_let {
                // Expect a single `=` (not `==`), then scan past the
                // scrutinee expression to the opening `{` of the block.
                if toks.get(j).is_some_and(|t| t.is_punct('='))
                    && !toks
                        .get(j + 1)
                        .is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
                {
                    j += 1;
                    let mut paren = 0isize;
                    let mut budget = 64usize;
                    while budget > 0 {
                        budget -= 1;
                        let Some(t) = toks.get(j) else { break };
                        if t.is_punct('(') || t.is_punct('[') {
                            paren += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            if paren == 0 {
                                break;
                            }
                            paren -= 1;
                        } else if paren == 0 && t.is_punct('{') {
                            is_arm = true;
                            break;
                        } else if paren == 0 && (t.is_punct(';') || t.is_punct(',')) {
                            break;
                        }
                        j += 1;
                    }
                }
            } else {
                // Look for `=>`, tolerating a short `if` guard.
                let mut paren = 0isize;
                let mut budget = 64usize;
                while budget > 0 {
                    budget -= 1;
                    let Some(t) = toks.get(j) else { break };
                    if t.is_punct('(') {
                        paren += 1;
                    } else if t.is_punct(')') {
                        if paren == 0 {
                            break;
                        }
                        paren -= 1;
                    } else if paren == 0
                        && t.is_punct('=')
                        && toks.get(j + 1).is_some_and(|t| t.is_punct('>'))
                        && !toks.get(j.wrapping_sub(1)).is_some_and(|t| {
                            t.is_punct('=') || t.is_punct('<') || t.is_punct('>') || t.is_punct('!')
                        })
                    {
                        is_arm = true;
                        j += 2;
                        break;
                    } else if paren == 0
                        && (t.is_punct(',')
                            || t.is_punct('{')
                            || t.is_punct(';')
                            || t.is_punct('?'))
                    {
                        break;
                    }
                    j += 1;
                }
            }
            if !is_arm {
                continue;
            }
            // Arm body: a block, or an expression up to `,`/unbalanced `}`.
            let body = if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                (j, skip_group(toks, j))
            } else {
                let start = j;
                let mut depth = 0isize;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(',') {
                        break;
                    }
                    j += 1;
                }
                (start, j)
            };
            let enclosing = file
                .fns
                .iter()
                .enumerate()
                .find(|(_, f)| f.body.0 <= i && i < f.body.1)
                .map(|(gi, _)| (fi, gi));
            arms.push(Arm {
                file: fi,
                at: i,
                variant: var_tok.text.clone(),
                line: toks[i].line,
                body,
                enclosing,
            });
        }
    }
    arms
}

/// Linearizes verifier-call and mutation events for a token range,
/// expanding callees transitively (name-resolved, depth-capped).
fn range_events(
    ir: &WorkspaceIr,
    file: usize,
    range: (usize, usize),
    verifiers: &[&str],
    visited: &mut BTreeSet<FnId>,
    depth: usize,
    events: &mut Vec<Event>,
) {
    let toks = &ir.files[file].lexed.tokens;
    let mut i = range.0;
    while i < range.1.min(toks.len()) {
        let t = &toks[i];
        // `self.<field-chain>` mutation detection.
        if t.is_ident("self") && toks.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            let mut j = i + 2;
            while let Some(seg) = toks.get(j) {
                if seg.kind != TokenKind::Ident && seg.kind != TokenKind::Num {
                    break;
                }
                let next = toks.get(j + 1);
                if seg.kind == TokenKind::Ident
                    && next.is_some_and(|t| t.is_punct('('))
                    && MUTATING_METHODS.contains(&seg.text.as_str())
                {
                    events.push(Event::Mutation {
                        file,
                        line: seg.line,
                    });
                    break;
                }
                // Step over an index expression: `self.proofs[value] = ..`.
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.is_punct('[')) {
                    k = skip_group(toks, k);
                }
                if let Some(op) = toks.get(k) {
                    let compound = matches!(
                        op.text.as_str(),
                        "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
                    ) && op.kind == TokenKind::Punct
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('='));
                    let assign = op.is_punct('=')
                        && !toks.get(k + 1).is_some_and(|t| t.is_punct('='))
                        && !toks.get(k.wrapping_sub(1)).is_some_and(|t| {
                            t.is_punct('=') || t.is_punct('<') || t.is_punct('>') || t.is_punct('!')
                        });
                    if compound || assign {
                        events.push(Event::Mutation {
                            file,
                            line: seg.line,
                        });
                        break;
                    }
                }
                // Continue the dotted chain, through method-call parens.
                if next.is_some_and(|t| t.is_punct('(')) {
                    let after = skip_group(toks, j + 1);
                    if toks.get(after).is_some_and(|t| t.is_punct('.')) {
                        j = after + 1;
                        continue;
                    }
                    break;
                }
                if next.is_some_and(|t| t.is_punct('.')) {
                    j += 2;
                    continue;
                }
                break;
            }
        }
        // Calls: verifier discharge or transitive expansion.
        if t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !toks
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_ident("fn"))
        {
            if verifiers.contains(&t.text.as_str()) {
                events.push(Event::Verifier);
            } else if depth > 0 {
                for &callee in ir.fns_named(&t.text) {
                    let f = ir.fn_item(callee);
                    if f.in_test || f.body.0 == f.body.1 {
                        continue;
                    }
                    let path = &ir.files[callee.0].path;
                    if !path.contains("crates/core/src/") && !path.contains("crates/net/src/") {
                        continue;
                    }
                    if visited.insert(callee) {
                        range_events(ir, callee.0, f.body, verifiers, visited, depth - 1, events);
                    }
                }
            }
        }
        i += 1;
    }
}

/// Whether any registered verifier is called in the file's non-test code.
fn file_calls_verifier(ir: &WorkspaceIr, file: usize, verifiers: &[&str]) -> bool {
    ir.files[file]
        .lexed
        .tokens
        .iter()
        .zip(ir.files[file].lexed.tokens.iter().skip(1))
        .any(|(t, n)| {
            !t.in_test
                && t.kind == TokenKind::Ident
                && n.is_punct('(')
                && verifiers.contains(&t.text.as_str())
        })
}

/// Runs the verify-before-mutate family over the workspace IR.
pub fn check(ir: &WorkspaceIr) -> Vec<CrossFinding> {
    let mut out = Vec::new();
    let body_enum = ir.body_enum();

    // 1. Registry completeness: every wire body needs a table entry.
    if let Some((fi, e)) = body_enum {
        let path = ir.files[fi].path.clone();
        for v in &e.variants {
            if obligation_for(&v.name).is_none() {
                out.push(CrossFinding {
                    rule: rules::VERIFY_MUTATE,
                    path: path.clone(),
                    line: v.line,
                    message: format!(
                        "wire body `{}` has no registered verification obligation: add a row \
                         (verifier, deferred quarantine, or reasoned exemption) to OBLIGATIONS \
                         in crates/lint/src/obligations.rs",
                        v.name
                    ),
                    related: Vec::new(),
                });
            }
        }
    }

    // 2. Discharge order per handler arm.
    let reachable = ir.reachable_from_dispatch();
    for arm in collect_arms(ir) {
        let Some(ob) = obligation_for(&arm.variant) else {
            // Unknown variants are reported once, at the enum (above).
            continue;
        };
        if let Some(id) = arm.enclosing {
            if ir.fn_item(id).in_test || !reachable.contains(&id) {
                continue;
            }
        }
        let (verifiers, deferred, reason) = match ob.discharge {
            Discharge::Exempt(_) => continue,
            Discharge::Strict(v) => (v, false, ""),
            Discharge::Deferred { verifiers, reason } => (verifiers, true, reason),
        };
        let mut visited = BTreeSet::new();
        if let Some(id) = arm.enclosing {
            visited.insert(id);
        }
        let mut events = Vec::new();
        // Include the arm's pattern tokens so bindings don't hide events,
        // then the body with transitive expansion.
        range_events(
            ir,
            arm.file,
            (arm.at, arm.body.1),
            verifiers,
            &mut visited,
            4,
            &mut events,
        );

        let first_mutation = events.iter().find_map(|e| match e {
            Event::Mutation { file, line } => Some((*file, *line)),
            _ => None,
        });
        let verifier_pos = events.iter().position(|e| matches!(e, Event::Verifier));
        let mutation_pos = events
            .iter()
            .position(|e| matches!(e, Event::Mutation { .. }));

        let variant_related = || -> Vec<RawRelated> {
            let mut rel = Vec::new();
            if let Some((mut_file, mut_line)) = first_mutation {
                rel.push(RawRelated {
                    path: ir.files[mut_file].path.clone(),
                    line: mut_line,
                    note: "first protocol-state mutation here".to_string(),
                });
            }
            if let Some((mfi, e)) = body_enum {
                if let Some(v) = e.variants.iter().find(|v| v.name == arm.variant) {
                    rel.push(RawRelated {
                        path: ir.files[mfi].path.clone(),
                        line: v.line,
                        note: "wire body declared here".to_string(),
                    });
                }
            }
            rel
        };

        if deferred {
            let discharged = verifier_pos.is_some()
                || file_calls_verifier(ir, arm.file, verifiers)
                || first_mutation.is_none();
            if !discharged {
                out.push(CrossFinding {
                    rule: rules::VERIFY_MUTATE,
                    path: ir.files[arm.file].path.clone(),
                    line: arm.line,
                    message: format!(
                        "handler arm for `Body::{}` never discharges its deferred verification \
                         obligation (expected a reachable call to one of: {}; deferral rationale: {})",
                        arm.variant,
                        verifiers.join(", "),
                        reason
                    ),
                    related: variant_related(),
                });
            }
            continue;
        }

        // Strict: a verifier must run, and before the first mutation.
        if mutation_pos.is_none() {
            continue; // pure observer arm
        }
        let ok = matches!(verifier_pos, Some(v) if v < mutation_pos.unwrap_or(usize::MAX));
        if !ok {
            let what = if verifier_pos.is_none() {
                "without discharging it at all"
            } else {
                "before discharging it"
            };
            out.push(CrossFinding {
                rule: rules::VERIFY_MUTATE,
                path: ir.files[arm.file].path.clone(),
                line: arm.line,
                message: format!(
                    "handler arm for `Body::{}` mutates protocol state {} \
                     (obligation: call one of {} before the first mutation)",
                    arm.variant,
                    what,
                    verifiers.join(", ")
                ),
                related: variant_related(),
            });
        }
    }

    out
}
