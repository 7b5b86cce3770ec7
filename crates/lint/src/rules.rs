//! The five protocol-safety rules.
//!
//! Each rule is a pass over the token stream of one file, scoped by the
//! file's workspace-relative path. The rules encode *protocol* obligations
//! that the Rust compiler cannot see:
//!
//! * [`DETERMINISM`] — replicated state machines must behave identically
//!   on every replica, so randomly-seeded containers and ambient
//!   time/entropy sources are banned from `crates/core`.
//! * [`QUORUM`] — Byzantine threshold arithmetic (`n - t`, `t + 1`,
//!   `2t + 1`, ...) must go through the named helpers on `GroupContext`
//!   so every bound has exactly one definition and one proof obligation.
//! * [`PANIC_POLICY`] — protocol and link code must not limp past a
//!   violated invariant with a bare `unwrap`/`expect`/`panic!`; failures
//!   route through the `invariant*` macros, which the server loop catches
//!   to write a flight-recorder dump before unwinding.
//! * [`WIRE_STABILITY`] — wire discriminants must be named constants
//!   (append-only, greppable) and length prefixes must be checked, never
//!   silently truncated with `as`. It applies to every file that holds a
//!   codec — an `impl Wire for`, or a `wire_struct!` / `wire_enum!`
//!   declaration — and to the link layer's framing.
//! * [`UNSAFE_BUDGET`] — `unsafe` is allowed only for crates on an
//!   explicit allowlist; today that list is empty and every crate builds
//!   with `#![forbid(unsafe_code)]`.

use crate::lexer::{Lexed, Token, TokenKind};

/// Rule name: deterministic replica state (bans `HashMap`, clocks, OS entropy).
pub const DETERMINISM: &str = "determinism";
/// Rule name: threshold arithmetic must use the `GroupContext` helpers.
pub const QUORUM: &str = "quorum-arithmetic";
/// Rule name: no bare `unwrap`/`expect`/`panic!` in protocol or link code.
pub const PANIC_POLICY: &str = "panic-policy";
/// Rule name: named wire discriminants and checked length encodings.
pub const WIRE_STABILITY: &str = "wire-stability";
/// Rule name: `unsafe` only via the per-crate allowlist.
pub const UNSAFE_BUDGET: &str = "unsafe-budget";
/// Pseudo-rule for malformed `lint:allow` directives (cannot be suppressed).
pub const LINT_DIRECTIVE: &str = "lint-directive";

/// Every suppressible rule, in reporting order.
pub const RULES: &[&str] = &[
    DETERMINISM,
    QUORUM,
    PANIC_POLICY,
    WIRE_STABILITY,
    UNSAFE_BUDGET,
];

/// Crate-path prefixes permitted to contain `unsafe` code. Deliberately
/// empty: growing this list is a reviewed decision, not a local edit.
pub const UNSAFE_ALLOWLIST: &[&str] = &[];

/// A rule hit before suppression processing.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// The rule that fired.
    pub rule: &'static str,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description, stable across runs (baseline key).
    pub message: String,
}

fn in_core(path: &str) -> bool {
    path.contains("crates/core/src/")
}

fn in_net(path: &str) -> bool {
    path.contains("crates/net/src/")
}

/// Whether a file holds a wire codec: by what it contains, not by what it
/// is called, so a codec written in a new file is in scope from its first
/// line. The link layer frames bytes without the `Wire` trait and is in
/// scope by path.
fn in_wire_scope(path: &str, toks: &[Token]) -> bool {
    path.contains("/src/link/")
        || toks.windows(2).any(|w| {
            (w[0].is_ident("Wire") && w[1].is_ident("for"))
                || ((w[0].is_ident("wire_struct") || w[0].is_ident("wire_enum"))
                    && w[1].is_punct('!'))
        })
}

/// Identifiers whose presence in `crates/core` breaks replica determinism,
/// with the reason each is banned.
const NONDETERMINISTIC_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order depends on the per-process random hasher seed, so replicas diverge; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order depends on the per-process random hasher seed, so replicas diverge; use BTreeSet",
    ),
    (
        "RandomState",
        "randomly seeded hasher state makes container behavior differ across replicas",
    ),
    (
        "DefaultHasher",
        "hasher output is not a protocol-stable function; replicas diverge",
    ),
    (
        "Instant",
        "wall-clock reads are nondeterministic; protocol code must take time from the runtime, not the OS",
    ),
    (
        "SystemTime",
        "wall-clock reads are nondeterministic; protocol code must take time from the runtime, not the OS",
    ),
    (
        "thread_rng",
        "OS-seeded randomness breaks replay; randomness comes from the threshold coin or a seeded generator",
    ),
    (
        "OsRng",
        "OS entropy breaks replay; randomness comes from the threshold coin or a seeded generator",
    ),
    (
        "getrandom",
        "OS entropy breaks replay; randomness comes from the threshold coin or a seeded generator",
    ),
];

/// Runs every applicable rule over one lexed file.
pub fn run_rules(path: &str, lexed: &Lexed) -> Vec<RawFinding> {
    let toks = &lexed.tokens;
    let wire_scope = in_wire_scope(path, toks);
    let mut out = Vec::new();
    let live = |i: usize| -> bool { !toks[i].in_test };

    let punct_at = |i: isize, c: char| -> bool {
        i >= 0 && toks.get(i as usize).is_some_and(|t| t.is_punct(c))
    };
    let ident_at = |i: isize, s: &str| -> bool {
        i >= 0 && toks.get(i as usize).is_some_and(|t| t.is_ident(s))
    };
    // `%` is deliberately absent: `epoch % n` style rotation/indexing is
    // not a threshold bound, while every quorum expression uses + - * /.
    let arith_at = |i: isize| -> bool {
        i >= 0
            && toks.get(i as usize).is_some_and(|t| {
                t.kind == TokenKind::Punct && matches!(t.text.as_str(), "+" | "-" | "*" | "/")
            })
    };

    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !live(i) {
            continue;
        }
        let i_ = i as isize;
        let name = tok.text.as_str();

        // --- determinism (crates/core only) -------------------------------
        if in_core(path) {
            if let Some((_, why)) = NONDETERMINISTIC_IDENTS.iter().find(|(id, _)| *id == name) {
                out.push(RawFinding {
                    rule: DETERMINISM,
                    line: tok.line,
                    message: format!("`{name}` in protocol code: {why}"),
                });
            }
        }

        // --- quorum-arithmetic (crates/core only) --------------------------
        if in_core(path) && (name == "n" || name == "t") {
            // `.n()` / `.t()` as an operand of + - * / %: the bound should
            // be a named GroupContext helper, not inline arithmetic.
            if punct_at(i_ - 1, '.') && punct_at(i_ + 1, '(') && punct_at(i_ + 2, ')') {
                let mut j = i_ - 2;
                while j >= 0
                    && (toks[j as usize].kind == TokenKind::Ident
                        || toks[j as usize].is_punct('.')
                        || toks[j as usize].is_punct(':'))
                {
                    j -= 1;
                }
                if arith_at(i_ + 3) || arith_at(j) {
                    out.push(RawFinding {
                        rule: QUORUM,
                        line: tok.line,
                        message: format!(
                            "inline arithmetic on `.{name}()`: thresholds must use the named GroupContext helpers (quorum, one_honest, ready_quorum, n_minus_t, fault_budget, fairness_batch)"
                        ),
                    });
                }
            } else if !punct_at(i_ - 1, '.') && (arith_at(i_ - 1) || arith_at(i_ + 1)) {
                // A bare `n`/`t` variable combined arithmetically — the
                // classic `n - t` / `t + 1` spelled out inline.
                out.push(RawFinding {
                    rule: QUORUM,
                    line: tok.line,
                    message: format!(
                        "arithmetic on bare `{name}`: spell the threshold with a named GroupContext helper instead of inline group arithmetic"
                    ),
                });
            }
        }

        // --- panic-policy (crates/core + crates/net) -----------------------
        if in_core(path) || in_net(path) {
            let called = punct_at(i_ - 1, '.') && punct_at(i_ + 1, '(');
            if name == "unwrap" && called {
                // `.lock().unwrap()` is sanctioned: a poisoned mutex means a
                // sibling thread already panicked, and propagating is the
                // correct reaction.
                let lock_chain =
                    punct_at(i_ - 2, ')') && punct_at(i_ - 3, '(') && ident_at(i_ - 4, "lock");
                if !lock_chain {
                    out.push(RawFinding {
                        rule: PANIC_POLICY,
                        line: tok.line,
                        message: "bare `.unwrap()` in protocol/link code: route the can't-happen case through `invariant_unwrap!`/`or_invariant` so the flight recorder dumps before unwinding".to_string(),
                    });
                }
            }
            if name == "expect" && called {
                out.push(RawFinding {
                    rule: PANIC_POLICY,
                    line: tok.line,
                    message: "bare `.expect()` in protocol/link code: route the can't-happen case through `invariant_unwrap!`/`or_invariant` so the flight recorder dumps before unwinding".to_string(),
                });
            }
            if (name == "panic"
                || name == "unreachable"
                || name == "todo"
                || name == "unimplemented")
                && punct_at(i_ + 1, '!')
            {
                out.push(RawFinding {
                    rule: PANIC_POLICY,
                    line: tok.line,
                    message: format!(
                        "bare `{name}!` in protocol/link code: use `invariant_violated!`/`invariant!` so the panic carries the invariant prefix and triggers the flight-recorder dump"
                    ),
                });
            }
        }

        // --- wire-stability ------------------------------------------------
        if wire_scope {
            if name == "push"
                && punct_at(i_ + 1, '(')
                && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Num)
                && punct_at(i_ + 3, ')')
            {
                out.push(RawFinding {
                    rule: WIRE_STABILITY,
                    line: tok.line,
                    message: format!(
                        "raw tag byte `{}` pushed inline: wire discriminants must be named constants (TAG_*/KIND_*), explicit and append-only",
                        toks[i + 2].text
                    ),
                });
            }
            if name == "as" {
                let narrow =
                    ident_at(i_ + 1, "u8") || ident_at(i_ + 1, "u16") || ident_at(i_ + 1, "u32");
                if narrow {
                    let len_ident = |t: &Token| {
                        t.kind == TokenKind::Ident
                            && matches!(
                                t.text.as_str(),
                                "len"
                                    | "length"
                                    | "size"
                                    | "count"
                                    | "remaining"
                                    | "pending"
                                    | "declared"
                            )
                    };
                    let direct = i > 0 && len_ident(&toks[i - 1]);
                    let call = punct_at(i_ - 1, ')')
                        && punct_at(i_ - 2, '(')
                        && i >= 3
                        && len_ident(&toks[i - 3]);
                    if direct || call {
                        out.push(RawFinding {
                            rule: WIRE_STABILITY,
                            line: tok.line,
                            message: format!(
                                "length narrowed with `as {}`, which truncates silently: use `u32::try_from` (e.g. via `wire::put_len`) so oversized values fail loudly",
                                toks[i + 1].text
                            ),
                        });
                    }
                }
            }
        }

        // --- unsafe-budget (whole workspace) -------------------------------
        if name == "unsafe" && !UNSAFE_ALLOWLIST.iter().any(|p| path.starts_with(p)) {
            out.push(RawFinding {
                rule: UNSAFE_BUDGET,
                line: tok.line,
                message: "`unsafe` outside the per-crate allowlist: every crate here builds with #![forbid(unsafe_code)]; extending UNSAFE_ALLOWLIST in crates/lint/src/rules.rs is a reviewed decision".to_string(),
            });
        }
    }

    // Match arms on raw discriminants (`3 => ...` or `... => 3`), wire
    // scope only. Scanned pairwise because `=>` lexes as two puncts.
    if wire_scope {
        for i in 0..toks.len() {
            if !punct_at(i as isize, '=') || !punct_at(i as isize + 1, '>') || !live(i) {
                continue;
            }
            // `>=` also produces `>`,`=`; require the `=` to not follow `>`.
            if punct_at(i as isize - 1, '>')
                || punct_at(i as isize - 1, '<')
                || punct_at(i as isize - 1, '=')
            {
                continue;
            }
            if i > 0 && toks[i - 1].kind == TokenKind::Num {
                out.push(RawFinding {
                    rule: WIRE_STABILITY,
                    line: toks[i - 1].line,
                    message: format!(
                        "match arm on raw discriminant `{}`: decode against the named TAG_*/KIND_* constant so encode and decode cannot drift apart",
                        toks[i - 1].text
                    ),
                });
            }
            if toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Num) {
                out.push(RawFinding {
                    rule: WIRE_STABILITY,
                    line: toks[i + 2].line,
                    message: format!(
                        "raw discriminant `{}` as a match-arm value: name the wire constant so the mapping is explicit and append-only",
                        toks[i + 2].text
                    ),
                });
            }
        }
    }

    out
}
