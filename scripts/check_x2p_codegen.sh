#!/usr/bin/env bash
# Codegen guard for RIV x2p: builds examples/x2p_codegen.rs and fails unless
# the hop loop of `riv_chase` is the paper's sequence — bit transforms, one
# bounds branch, ONE load that depends on the RIV value (the base-table
# entry), one add. Specifically it fails on
#   * a `lock`-prefixed instruction anywhere in the function,
#   * a `call` inside the hop loop (the cold OnceLock initialiser and the
#     cold translation-miss counter sit outside it),
#   * any load whose address depends on the loaded RIV value other than the
#     scaled `[table + rid*8]` load (a directory level, a cache probe, ...).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --example x2p_codegen
bin="${CARGO_TARGET_DIR:-target}/release/examples/x2p_codegen"

objdump -d -M intel --no-show-raw-insn "$bin" | awk '
function canon(r) {                     # any width of a register -> its 64-bit name
    if (r ~ /^r[0-9]+[dwb]$/) return substr(r, 1, length(r) - 1)
    if (r ~ /^e[a-z][a-z]$/) return "r" substr(r, 2)
    if (r ~ /^[a-d]l$/) return "r" substr(r, 1, 1) "x"
    if (r ~ /^(si|di|bp|sp)l$/) return "r" substr(r, 1, 2)
    return r
}
function hex(s,    k, v) {               # mawk has no strtonum
    for (k = 1; k <= length(s); k++) v = v * 16 + index("0123456789abcdef", substr(s, k, 1)) - 1
    return v
}
function tainted(expr,    n, parts, k) { # does expr name a register derived from the RIV value?
    n = split(expr, parts, /[^a-z0-9]+/)
    for (k = 1; k <= n; k++) if (canon(parts[k]) in taint) return 1
    return 0
}
function fail(why,    k) {
    print "check_x2p_codegen: FAIL: " why > "/dev/stderr"
    for (k = 1; k <= n; k++) print "    " line[k] > "/dev/stderr"
    failed = 1
    exit 1
}
/^[0-9a-f]+ <riv_chase>:$/ { inside = 1; next }
inside && /^$/ { inside = 0 }
inside {
    n++
    line[n] = $0
    addr[n] = hex(substr($1, 1, length($1) - 1))
    op[n] = $2
    args[n] = $3; for (k = 4; k <= NF && $k !~ /^[#<]/; k++) args[n] = args[n] " " $k
}
END {
    if (failed) exit 1
    if (!n) fail("no riv_chase symbol in " bin)
    for (i = 1; i <= n; i++) {
        if (op[i] == "lock") fail("lock-prefixed instruction: " line[i])
        if (args[i] ~ /\*8\]/) { if (entry) fail("more than one scaled table load"); entry = i }
    }
    if (!entry) fail("no [table + rid*8] load: x2p did not inline")
    # The hop loop: closed by the first backward jump after the table load.
    for (last = entry + 1; last <= n; last++)
        if (op[last] ~ /^j/ && hex(args[last]) <= addr[entry]) break
    if (last > n) fail("no backward jump after the table load")
    for (first = 1; addr[first] != hex(args[last]); first++);
    dependent = 0
    for (i = first; i <= last; i++) {
        if (op[i] == "call") fail("call on the hop path: " line[i])
        comma = index(args[i], ",")
        if (!comma) continue
        dst = substr(args[i], 1, comma - 1); src = substr(args[i], comma + 1)
        mem = (dst ~ /\[/) ? dst : src
        load = (mem ~ /\[/ && op[i] != "lea" && !(op[i] ~ /^mov/ && mem == dst))
        if (load && !seen_value) { seen_value = 1; taint[canon(dst)]; continue }  # the RIV value itself
        if (load && tainted(mem)) { dependent++; if (i != entry) fail("extra dependent load: " line[i]) }
        if (op[i] ~ /^(cmp|test)$/ || dst ~ /\[/) continue
        dst = canon(dst)
        if (op[i] ~ /^(mov|lea)/) { if (tainted(src)) taint[dst]; else delete taint[dst] }
        else if (op[i] == "xor" && dst == canon(src)) delete taint[dst]
        else if (tainted(src)) taint[dst]
    }
    if (dependent != 1) fail("the table load does not depend on the RIV value")
    printf "check_x2p_codegen: ok (%d instructions per hop, 1 dependent load, no call, no lock)\n", last - first + 1
}' bin="$bin"
