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
# hash (17h<16 hex>E) and LLVM's .llvm.N suffixes, alignment padding, and
# the thread-pointer-relative offsets of thread-locals, which move when a
# thread_local! is added or removed anywhere in the binary. Those offsets
# are rewritten to TLS in the three local-exec shapes x86-64 uses: the
# displacement of the lea right after a thread-pointer load
# (mov %fs:0x0,%R; lea -N(%R),%X), an absolute %fs:-N operand, and a
# negative 64-bit immediate moved into a register that the same function
# then uses as an %fs-relative base or adds to a loaded thread pointer.
# Field offsets inside one thread-local (%fs:0x40(%R)) are kept.
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
            # The 64-bit register a write to r replaces (%eax -> %rax,
            # %r8d -> %r8); narrower names come back unchanged.
            function r64(r) {
                if (r ~ /^%r[0-9]+d$/) sub(/d$/, "", r)
                else if (r ~ /^%e[a-z][a-z]$/) r = "%r" substr(r, 3)
                return r
            }
            # Print the buffered function with its thread-local offsets
            # rewritten (see the header). tp holds the registers that hold
            # the thread pointer at this point of a linear scan; a jump or a
            # return forgets them all, a call the caller-saved ones.
            function flush(    i, j, r, re, imm, tp, ever) {
                if (!open) return
                for (i = 1; i <= n; i++) {
                    for (r in tp) {
                        re = "-0x[0-9a-f]+\\(" r "\\)"
                        gsub(re, "TLS(" r ")", ins[i])
                    }
                    sub(/%fs:(-0x[0-9a-f]+|0xffffffff[0-9a-f]+)/, "%fs:TLS", ins[i])
                    if (ins[i] ~ /^mov \$0xffffffff[0-9a-f]+,%[a-z0-9]+$/) {
                        r = ins[i]; sub(/.*,/, "", r); imm[i] = r
                    }
                    if (ins[i] ~ /^mov %fs:0x0,%[a-z0-9]+$/) {
                        r = ins[i]; sub(/.*,/, "", r); tp[r] = 1; ever[r] = 1
                    } else if (ins[i] ~ /^(jmp|ret|ud2)/) {
                        for (r in tp) delete tp[r]
                    } else if (ins[i] ~ /^call/) {
                        for (r in tp) if (r !~ /^%(rbx|rbp|r12|r13|r14|r15)$/) delete tp[r]
                    } else if (ins[i] ~ /,%[a-z0-9]+$/) {
                        r = ins[i]; sub(/.*,/, "", r); r = r64(r)
                        j = ins[i]; sub(/^mov /, "", j); sub(/,.*/, "", j)
                        if (ins[i] ~ /^mov %[a-z0-9]+,%[a-z0-9]+$/ && (j in tp)) tp[r] = 1
                        else delete tp[r]
                    }
                }
                for (i in imm) {
                    r = imm[i]
                    for (j = i + 1; j <= n; j++) {
                        if (index(ins[j], "%fs:") && index(ins[j], "(" r ")")) break
                        if (ins[j] ~ ("^add " r ",%") && (substr(ins[j], length("add " r ",") + 1) in ever)) break
                    }
                    if (j <= n) sub(/\$0x[0-9a-f]+,/, "$TLS,", ins[i])
                }
                printf "%s|", name
                for (i = 1; i <= n; i++) printf ";%s", ins[i]
                printf "\n"
                n = 0; delete ins
            }
            /^[0-9a-f]+ <.*>:$/ {
                flush()
                name = $2; gsub(/^<|>:$/, "", name)
                open = 1; next
            }
            open && /^[[:space:]]+[0-9a-f]+:\t/ {
                sub(/^[[:space:]]+[0-9a-f]+:\t/, "")
                gsub(/[[:space:]]+/, " ")
                # The relaxed general-dynamic TLS sequence pads its
                # thread-pointer load with prefixes; keep the load.
                if ($0 ~ /^(data16 )+mov %fs:/) sub(/^(data16 )+/, "")
                if ($0 ~ /^(nop|xchg %ax,%ax|int3|cs nopw|data16)/) next
                ins[++n] = $0
            }
            END { flush() }
        ' \
        | sort
}

out=$(diff <(normalize "$1") <(normalize "$2") \
    | sed -n -E -e 's/^< ([^|]*)\|.*/- \1/p' -e 's/^> ([^|]*)\|.*/+ \1/p' || true)
if [ -n "$out" ]; then
    printf '%s\n' "$out"
    exit 1
fi
