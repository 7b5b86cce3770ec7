#!/bin/sh
# Typestate drill: six known verify-before-mutate bugs, re-introduced one
# at a time into a scratch copy of the workspace, each of which rustc must
# refuse with a `Checked`/`Unchecked` type mismatch.
#
#   1-3  the ordering bugs the lint's cross-file rule found in PR 10:
#        `note_proof` ahead of the share check in `on_pre_vote` and in
#        `on_main_vote`, the round's slot ahead of `acceptable` in
#        `on_entry`;
#   4-6  the lint's own mutation drills: the check dropped for `AcEntry`
#        (atomic.rs), `BaDecide` (binary.rs), `CbFinal` (consistent.rs).
#
# Usage: scripts/typestate_drill.sh [scratch-dir]
# Exit 0 when all six are refused; prints the first rustc error of each.

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
scratch=${1:-$(mktemp -d)}
mkdir -p "$scratch"
copy="$scratch/workspace"
rm -rf "$copy"
mkdir -p "$copy"
# The workspace without build output or the benchmark.
(cd "$root" && tar cf - --exclude=./target --exclude=./abcbench --exclude=./.git .) | (cd "$copy" && tar xf -)
export CARGO_TARGET_DIR="$scratch/target"

check() {
    (cd "$copy" && cargo check --offline -q -p sintra-core 2>&1)
}

if ! check >"$scratch/pristine.log"; then
    echo "typestate drill: the unmutated copy does not build" >&2
    cat "$scratch/pristine.log" >&2
    exit 1
fi

# mutate <file> <name>: applies the named edit, which must find its anchor.
mutate() {
    python3 - "$copy/crates/core/src/$1" "$2" <<'EOF'
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

def replace(old, new):
    global src
    assert src.count(old) == 1, (name, "anchor moved")
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
else:
    raise SystemExit("unknown mutation " + name)
open(path, "w").write(src)
EOF
}

failed=0
drill() {
    file=$1
    name=$2
    cp "$copy/crates/core/src/$file" "$scratch/pristine.rs"
    mutate "$file" "$name"
    log="$scratch/drill.log"
    if check >"$log"; then
        echo "NOT REFUSED  $name ($file compiles)"
        failed=1
    elif grep -q 'mismatched types' "$log" && grep -Eq 'expected .*Checked<|found .*Unchecked<' "$log"; then
        echo "refused      $name"
        grep -E -m1 -A12 '^error\[E0308\]' "$log" | grep -E '^error|-->|expected|found' | head -4 | sed 's/^/             /'
    else
        echo "NOT A TYPE ERROR  $name"
        cat "$log"
        failed=1
    fi
    cp "$scratch/pristine.rs" "$copy/crates/core/src/$file"
}

drill agreement/binary.rs "note_proof before the share check (on_pre_vote)"
drill agreement/binary.rs "note_proof before the share check (on_main_vote)"
drill channel/atomic.rs "round slot before acceptable (on_entry)"
drill channel/atomic.rs "AcEntry: check dropped"
drill agreement/binary.rs "BaDecide: check dropped"
drill broadcast/consistent.rs "CbFinal: check dropped"

if [ "$failed" -ne 0 ]; then
    echo "typestate drill: a re-introduced bug was not refused by the types" >&2
    exit 1
fi
echo "typestate drill: all six refused by rustc"
