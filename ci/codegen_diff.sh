#!/usr/bin/env bash
# Compare the machine code of two builds of one binary, function by function.
#
#   ci/codegen_diff.sh OLD_BIN NEW_BIN
#
# Prints the functions whose normalized disassembly differs ("-" only in
# OLD_BIN's form, "+" only in NEW_BIN's) and exits 1; prints nothing and
# exits 0 when every function compiled to the same code. Normalization
# removes what a pure layout shift changes: instruction addresses and raw
# bytes, %rip displacements and objdump's address comments, the address and
# offset of branch and call targets (the symbol stays), the legacy-mangling
# hash (17h<16 hex>E) and LLVM's .llvm.N suffixes, and alignment padding.
# Functions compare as a multiset, so reordering them reads as no change.
# Needs only objdump, sed, awk, sort and diff.
set -euo pipefail
if [ $# -ne 2 ] || [ ! -f "$1" ] || [ ! -f "$2" ]; then
    echo "usage: $0 OLD_BIN NEW_BIN" >&2
    exit 2
fi

# One line per function: "name|insn;insn;...", sorted.
normalize() {
    objdump -d --no-show-raw-insn "$1" \
        | sed -E \
            -e 's/17h[0-9a-f]{16}E/E/g' \
            -e 's/\.llvm\.[0-9]+//g' \
            -e 's/[[:space:]]+#.*$//' \
            -e 's/-?0x[0-9a-f]+\(%rip\)/(%rip)/g' \
            -e '/^[[:space:]]/s/[0-9a-f]+ <([^>+]*)(\+0x[0-9a-f]+)?>/<\1>/g' \
        | awk '
            /^[0-9a-f]+ <.*>:$/ {
                if (open) printf "\n"
                name = $2; gsub(/^<|>:$/, "", name)
                printf "%s|", name; open = 1; next
            }
            open && /^[[:space:]]+[0-9a-f]+:\t/ {
                sub(/^[[:space:]]+[0-9a-f]+:\t/, "")
                gsub(/[[:space:]]+/, " ")
                if ($0 ~ /^(nop|xchg %ax,%ax|int3|cs nopw|data16)/) next
                printf ";%s", $0
            }
            END { if (open) printf "\n" }
        ' \
        | sort
}

out=$(diff <(normalize "$1") <(normalize "$2") \
    | sed -n -E -e 's/^< ([^|]*)\|.*/- \1/p' -e 's/^> ([^|]*)\|.*/+ \1/p' || true)
if [ -n "$out" ]; then
    printf '%s\n' "$out"
    exit 1
fi
