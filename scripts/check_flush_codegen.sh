#!/usr/bin/env bash
# Codegen guard for idle persistence points: builds examples/flush_codegen.rs
# and fails unless, with the armed word 0, `clflush_range` and `wbarrier`
# are what nvmsim::latency's module docs promise. The idle path of each
# wrapper is the straight line from its entry to its first `ret` (the armed
# sequence and first-use counter registration are #[cold], so the compiler
# lays them out after it). On that line the script fails on
#   * any `call`,
#   * any `lock`-prefixed instruction in `flush_point`,
#   * anything but exactly one fence (`mfence`, or the `lock or` on the
#     stack LLVM emits for fence(SeqCst)) in `fence_point`,
#   * a conditional jump that goes backwards, or no jump at all past the
#     `ret` (the armed test must exist and its target must be out of line).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --example flush_codegen
bin="${CARGO_TARGET_DIR:-target}/release/examples/flush_codegen"

objdump -d -M intel --no-show-raw-insn "$bin" | awk '
function hex(s,    k, v) {               # mawk has no strtonum
    for (k = 1; k <= length(s); k++) v = v * 16 + index("0123456789abcdef", substr(s, k, 1)) - 1
    return v
}
function fail(why,    k) {
    print "check_flush_codegen: FAIL: " fn ": " why > "/dev/stderr"
    for (k = 1; k <= n; k++) print "    " line[k] > "/dev/stderr"
    failed = 1
    exit 1
}
function check(    i, ret, fences, locks, cold) {
    if (!n) fail("no such symbol in " bin)
    for (ret = 1; ret <= n && op[ret] != "ret"; ret++);
    if (ret > n) fail("no ret")
    for (i = 1; i < ret; i++) {
        if (op[i] == "call") fail("call on the idle path: " line[i])
        if (op[i] == "mfence") fences++
        if (op[i] == "lock") { if (rest[i] ~ /^or +DWORD PTR \[rsp/) fences++; else locks++ }
        if (op[i] ~ /^j/) {
            if (hex(rest[i]) <= addr[i]) fail("backward jump on the idle path: " line[i])
            if (hex(rest[i]) > addr[ret]) cold++
        }
    }
    if (locks) fail("lock-prefixed instruction on the idle path")
    if (fences != want_fences) fail("expected " want_fences " fence(s) on the idle path, found " fences + 0)
    if (!cold) fail("no branch to an out-of-line armed path")
    printf "check_flush_codegen: ok: %s idle path is %d instructions, %d fence, no call, no other lock\n", fn, ret, fences
    checked++
}
/^[0-9a-f]+ <(flush_point|fence_point)>:$/ {
    fn = substr($2, 2, length($2) - 3); want_fences = (fn == "fence_point"); n = 0; inside = 1; next
}
inside && /^$/ { inside = 0; check() }
inside {
    n++
    line[n] = $0
    addr[n] = hex(substr($1, 1, length($1) - 1))
    op[n] = $2
    rest[n] = $3; for (k = 4; k <= NF && $k !~ /^[#<]/; k++) rest[n] = rest[n] " " $k
}
END {
    if (failed) exit 1
    if (inside) check()
    if (checked != 2) { print "check_flush_codegen: FAIL: found " checked + 0 " of flush_point, fence_point in " bin > "/dev/stderr"; exit 1 }
}' bin="$bin"
