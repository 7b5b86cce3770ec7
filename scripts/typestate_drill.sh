#!/bin/sh
# Drill: known bugs, re-introduced one at a time into a scratch copy of
# the workspace, each of which rustc, clippy or a test must refuse.
#
# Typestate (rustc, a `Checked`/`Unchecked` type mismatch):
#   1-3  three verify-before-mutate ordering bugs once found by static analysis:
#        `note_proof` ahead of the share check in `on_pre_vote` and in
#        `on_main_vote`, the round's slot ahead of `acceptable` in
#        `on_entry`;
#   4-6  the check dropped for `AcEntry` (atomic.rs), `BaDecide`
#        (binary.rs), `CbFinal` (consistent.rs).
# One row per protocol rule (DESIGN.md §10):
#   7    determinism: `HashMap` back in multiplex.rs (core's clippy.toml);
#   8-9  panic policy: a bare `.unwrap()` in the link layer, a `panic!`
#        in the atomic channel (clippy's unwrap_used / panic);
#   10   wire stability: a length prefix cast to u32 in optimistic.rs
#        (clippy's cast_possible_truncation);
#   11   wire stability: TAG_RB_ECHO and TAG_RB_READY swapped
#        (tests/wire_kat.rs);
#   12-13 unsafe budget: `unsafe {}` in hmac.rs (deny) and in sintra-top
#        (forbid);
#   14   quorum arithmetic: `self.ctx.t() + 1` (there is no `t()`).
# One row for the agreement's external validity (tests/agreement.rs):
#   15   the VBA's binary agreement accepts a closing as 1's validation
#        data without asking whether its payload satisfies the predicate.
# One row for the VBA's vote gate (core's tests/properties.rs):
#   16   step 2b starts the binary agreement one proper vote short of
#        `n - t`.
# One row for sintra-bigint's unsafe budget, whose two allowed blocks are
# the 6-limb ADX kernel in montgomery.rs and the one call into the IFMA
# kernels in ifma.rs:
#   17   `unsafe {}` in arith.rs (deny).
# One row for the pump's seeded schedule (core's tests/properties.rs):
#   18   `Choice::Seeded` takes the front, as `Fifo` does, so every seeded
#        sweep would silently run one schedule.
# Two rows for the IFMA kernels' CPU check (rustc):
#   19   the `#[target_feature]` dispatcher called outside `unsafe`, so
#        that nothing would tie the call to the checks in `Ifma::new` and
#        `Montgomery3::new`;
#   20   `Montgomery3::pow3` calling the lockstep exponentiation directly
#        rather than through the dispatcher's reviewed block.
# One row for the digit-sliced kernel's body, which the vector unit and
# its plain-integer twin share (sintra-bigint's unit tests, which hold
# the twin to the portable kernel on every CPU):
#   21   the reduction's carry out of column i loses its `[lo52(t_i) != 0]`
#        term.
#
# Usage: scripts/typestate_drill.sh [scratch-dir]
# Exit 0 when every row is refused; prints the first error of each.

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
scratch=${1:-$(mktemp -d)}
mkdir -p "$scratch"
copy="$scratch/workspace"
rm -rf "$copy"
mkdir -p "$copy"
# The workspace without build output or the benchmark. Files get the
# current time (`m`), newer than any build a previous run left behind
# from a mutated copy.
(cd "$root" && tar cf - --exclude=./target --exclude=./abcbench --exclude=./.git .) | (cd "$copy" && tar xmf -)
export CARGO_TARGET_DIR="$scratch/target"

# run <how> <package>: `check`, `clippy` (warnings denied),
# `test:<target>` or `lib` (the unit tests) on one package of the copy.
run() {
    case $1 in
        check) (cd "$copy" && cargo check --offline -q -p "$2" 2>&1) ;;
        clippy) (cd "$copy" && cargo clippy --offline -q -p "$2" -- -D warnings 2>&1) ;;
        test:*) (cd "$copy" && cargo test --offline -q -p "$2" --test "${1#test:}" 2>&1) ;;
        lib) (cd "$copy" && cargo test --offline -q -p "$2" --lib 2>&1) ;;
    esac
}

for how in clippy:sintra-core clippy:sintra-net check:sintra-crypto \
    check:sintra-bigint check:sintra-testbed test:wire_kat:sintra-core \
    test:properties:sintra-core test:agreement:sintra lib:sintra-bigint; do
    pkg=${how##*:}
    if ! run "${how%:*}" "$pkg" >"$scratch/pristine.log"; then
        echo "drill: the unmutated copy fails ${how%:*} on $pkg" >&2
        cat "$scratch/pristine.log" >&2
        exit 1
    fi
done

# mutate <file> <name>: applies the named edit, which must find its anchor.
mutate() {
    python3 - "$copy/$1" "$2" <<'EOF'
import sys
path, name = sys.argv[1], sys.argv[2]
src = open(path).read()

def move_up(line, above):
    """Moves the statement `line` to just before the statement `above`."""
    global src
    assert src.count(line) == 1, (name, "anchor moved")
    src = src.replace(line, "")
    assert src.count(above) == 1, (name, "anchor moved")
    src = src.replace(above, line + above)

def replace(old, new, count=1):
    global src
    assert src.count(old) == count, (name, "anchor moved")
    src = src.replace(old, new)

if name == "note_proof before the share check (on_pre_vote)":
    move_up("        self.note_proof(&share, value, fresh);\n",
            "        let statement = statement_pre_vote(&self.pid, round, value);\n"
            "        let Some(share) =\n")
elif name == "note_proof before the share check (on_main_vote)":
    move_up("        if let MainVote::Value(b) = vote {\n"
            "            let fresh = self.fresh_proof(valid, b, proof);\n"
            "            self.note_proof(&share, b, fresh);\n"
            "        }\n",
            "        let statement = statement_main_vote(&self.pid, round, vote);\n"
            "        let Some(share) =\n")
elif name == "round slot before acceptable (on_entry)":
    move_up("        let state = self.slot(round, &entry);\n"
            "        state.arrived.push(entry.clone());\n",
            "        let Some(entry) = self.acceptable(round, entry) else {\n"
            "            return;\n"
            "        };\n"
            "        self.entry_stored(round, &entry, out);\n")
elif name == "AcEntry: check dropped":
    replace("        let Some(entry) = self.acceptable(round, entry) else {\n"
            "            return;\n"
            "        };\n"
            "        let state = self.slot(round, &entry);\n"
            "        state.arrived.push(",
            "        let state = self.slot(round, &entry);\n"
            "        state.arrived.push(")
elif name == "BaDecide: check dropped":
    replace("        let Some(sig) = self.check_round_sig(round, &statement, sig) else {\n"
            "            return;\n"
            "        };\n"
            "        let fresh = self.fresh_proof(valid, value, proof);\n",
            "        let fresh = self.fresh_proof(valid, value, proof);\n")
elif name == "CbFinal: check dropped":
    replace("if let Some(sig) = self.check_final(payload, sig) {",
            "if let Some(sig) = Some(sig.clone()) {")
elif name == "determinism: HashMap instance table":
    replace("BTreeMap", "HashMap", src.count("BTreeMap"))
elif name == "panic policy: bare unwrap in the link":
    replace("                .pop_front()\n"
            "                .or_invariant(\"unacked queue lost its matched front\");\n",
            "                .pop_front()\n"
            "                .unwrap();\n")
elif name == "panic policy: panic! on an unacceptable entry":
    replace("        let Some(entry) = self.acceptable(round, entry) else {\n"
            "            return;\n"
            "        };\n"
            "        let state = self.slot(round, &entry);\n"
            "        state.arrived.push(",
            "        let Some(entry) = self.acceptable(round, entry) else {\n"
            "            panic!(\"unacceptable entry\");\n"
            "        };\n"
            "        let state = self.slot(round, &entry);\n"
            "        state.arrived.push(")
elif name == "wire stability: truncating length prefix":
    replace("        put_seq(&mut buf, entries);\n",
            "        buf.extend_from_slice(&(entries.len() as u32).to_be_bytes());\n"
            "        for entry in entries {\n"
            "            entry.encode(&mut buf);\n"
            "        }\n")
elif name == "wire stability: renumbered tags":
    replace("const TAG_RB_ECHO: u8 = 1;\nconst TAG_RB_READY: u8 = 2;\n",
            "const TAG_RB_ECHO: u8 = 2;\nconst TAG_RB_READY: u8 = 1;\n")
elif name == "unsafe budget: unsafe in hmac.rs":
    replace("    pub fn sign(",
            "    fn raw(&self) {\n        unsafe {}\n    }\n\n    pub fn sign(")
elif name == "unsafe budget: unsafe in sintra-top":
    replace("fn main() -> ExitCode {\n",
            "fn main() -> ExitCode {\n    unsafe {}\n")
elif name == "unsafe budget: unsafe in bigint's arith.rs":
    replace("pub(crate) fn add_assign(",
            "fn raw() {\n    unsafe {}\n}\n\npub(crate) fn add_assign(")
elif name == "quorum arithmetic: t() + 1":
    replace("if self.close_origins.len() > self.ctx.fault_budget() {",
            "if self.close_origins.len() >= self.ctx.t() + 1 {")
elif name == "VBA validity dropped":
    replace("                || bc\n"
            "                    .check_closing(proof)\n"
            "                    .is_some_and(|(payload, _sig)| valid(&payload))\n",
            "                || bc.check_closing(proof).is_some()\n")
elif name == "seeded pump takes the front":
    replace("                let idx = rng.gen_range(0..self.pending.len());\n"
            "                self.pending.swap_remove_back(idx)\n",
            "                let _ = rng;\n"
            "                self.pending.pop_front()\n")
elif name == "IFMA kernel called outside unsafe":
    replace("    #[allow(unsafe_code)]\n"
            "    unsafe {\n"
            "        run(call)\n"
            "    }\n",
            "    run(call)\n")
elif name == "lockstep kernel called around the dispatcher":
    replace("        dispatch(Call::Pow3(ctx, &x, exps, &mut out));\n",
            "        out = pow3_lockstep(ctx, &x, exps);\n")
elif name == "sliced carry loses its low-digit term":
    replace("                let carry = add(srli::<52>(t[i]), min(and(t[i], mask), one));\n",
            "                let carry = srli::<52>(t[i]);\n")
elif name == "VBA vote gate one short":
    replace("            let quorum = self.ctx.n_minus_t();\n",
            "            let quorum = self.ctx.n_minus_t() - 1;\n")
else:
    raise SystemExit("unknown mutation " + name)
open(path, "w").write(src)
EOF
}

failed=0
rows=0
# drill <how> <package> <file> <pattern> <name>: mutates <file>, runs
# <how> on <package>, and wants it to fail with an error matching
# <pattern> (`typestate` for the `Checked`/`Unchecked` mismatch).
drill() {
    how=$1
    pkg=$2
    file=$3
    pattern=$4
    name=$5
    rows=$((rows + 1))
    cp "$copy/$file" "$scratch/pristine.rs"
    mutate "$file" "$name"
    log="$scratch/drill.log"
    if run "$how" "$pkg" >"$log"; then
        echo "NOT REFUSED  $name ($file passes $how)"
        failed=1
    elif [ "$pattern" = typestate ]; then
        if grep -q 'mismatched types' "$log" && grep -Eq 'expected .*Checked<|found .*Unchecked<' "$log"; then
            echo "refused      $name"
            grep -E -m1 -A12 '^error\[E0308\]' "$log" | grep -E '^error|-->|expected|found' | head -4 | sed 's/^/             /'
        else
            echo "NOT A TYPE ERROR  $name"
            cat "$log"
            failed=1
        fi
    elif grep -Eq "$pattern" "$log"; then
        echo "refused      $name"
        grep -E -m1 -A1 "$pattern" "$log" | sed 's/^/             /'
    else
        echo "REFUSED FOR ANOTHER REASON  $name"
        cat "$log"
        failed=1
    fi
    cp "$scratch/pristine.rs" "$copy/$file"
}

core=crates/core/src
drill check sintra-core $core/agreement/binary.rs typestate "note_proof before the share check (on_pre_vote)"
drill check sintra-core $core/agreement/binary.rs typestate "note_proof before the share check (on_main_vote)"
drill check sintra-core $core/channel/atomic.rs typestate "round slot before acceptable (on_entry)"
drill check sintra-core $core/channel/atomic.rs typestate "AcEntry: check dropped"
drill check sintra-core $core/agreement/binary.rs typestate "BaDecide: check dropped"
drill check sintra-core $core/broadcast/consistent.rs typestate "CbFinal: check dropped"
drill clippy sintra-core $core/channel/multiplex.rs 'disallowed type `std::collections::(hash_map::)?HashMap`' \
    "determinism: HashMap instance table"
drill clippy sintra-net crates/net/src/link/reliable.rs 'used `unwrap\(\)`' \
    "panic policy: bare unwrap in the link"
drill clippy sintra-core $core/channel/atomic.rs '`panic` should not be present' \
    "panic policy: panic! on an unacceptable entry"
drill clippy sintra-core $core/channel/optimistic.rs 'casting `usize` to `u32` may truncate' \
    "wire stability: truncating length prefix"
drill test:wire_kat sintra-core $core/message.rs 'the bytes of wire format [0-9]+ changed' \
    "wire stability: renumbered tags"
drill check sintra-crypto crates/crypto/src/hmac.rs 'usage of an `unsafe` block' \
    "unsafe budget: unsafe in hmac.rs"
drill check sintra-testbed crates/testbed/src/bin/sintra-top.rs 'usage of an `unsafe` block' \
    "unsafe budget: unsafe in sintra-top"
drill check sintra-core $core/channel/atomic.rs 'no method named `t` found' \
    "quorum arithmetic: t() + 1"
drill test:agreement sintra $core/agreement/multi.rs 'seed [0-9]+: (undecided|external validity)' \
    "VBA validity dropped"
drill test:properties sintra-core $core/agreement/multi.rs 'after [0-9]+ proper votes' \
    "VBA vote gate one short"
drill check sintra-bigint crates/bigint/src/arith.rs 'usage of an `unsafe` block' \
    "unsafe budget: unsafe in bigint's arith.rs"
drill test:properties sintra-core $core/pump.rs 'two seeds, one schedule' \
    "seeded pump takes the front"
drill check sintra-bigint crates/bigint/src/ifma.rs 'call to function `run` with `#\[target_feature\]` is unsafe' \
    "IFMA kernel called outside unsafe"
drill check sintra-bigint crates/bigint/src/ifma.rs 'call to function `pow3_lockstep` with `#\[target_feature\]` is unsafe' \
    "lockstep kernel called around the dispatcher"
drill lib sintra-bigint crates/bigint/src/ifma.rs 'lockstep: .* mod ' \
    "sliced carry loses its low-digit term"

if [ "$failed" -ne 0 ]; then
    echo "drill: a re-introduced bug was not refused" >&2
    exit 1
fi
echo "drill: all $rows refused"
