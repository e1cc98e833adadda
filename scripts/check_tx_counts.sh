#!/usr/bin/env bash
# Count guard for the transactional write path: runs pibench's `tx_mixed`
# on a fixed seed with tracing on and fails unless the per-operation
# persistence counts are the ones the log protocol promises (DESIGN.md
# "Fault model", EXPERIMENTS.md TX-FLOOR):
#   * hashset/bst insert_tx   <= 3.1 fences, <= 8.1 flushed lines
#     (3 + 8 exactly, plus one subtree grow per 64 allocations; the
#     allocation is an allocator entry in the one batch, whose third
#     entry ends at byte 144 of the log area, and its bitmap bit is set
#     at commit under the commit fence; the 56-byte node is its own
#     64-byte block, one line),
#   * hashset/bst remove_tx   <= 3 fences,   <= 7 flushed lines
#     (the free: one more batch line and its bitmap word at commit),
#   * ART insert_tx/remove_tx <= 4 fences,   <= 5 flushed lines
#     (every probe key has a leaf by then, so insert_tx is an
#     occurrence bump: the leaf count alone, or with the header's key
#     count when it was 0; a remove logs the key count only when it
#     takes the last occurrence; a new leaf's lines are pinned by
#     crates/pds/tests/tx_counts.rs),
#   * fences_per_op           <= 0.77 over the whole 25/25/50 mix,
#   * fail_share              == 0 (every oracle check passed).
# The op stream is generated from the seed and the counters are exact, so
# this is a deterministic gate, not a timing one; timings in the same
# result line are not judged. pibench itself exits non-zero on a failed
# oracle check.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
result="$(benchmark/run.sh --workload tx_mixed --seed 7 --seconds 3 --trace 1 | tail -n 1)"

printf '%s\n' "$result" | awk '
function value(name,    key, i, rest) {
    key = "\"" name "\":{\"value\":"
    i = index($0, key)
    if (!i) { print "check_tx_counts: FAIL: no metric " name " in the result line" > "/dev/stderr"; failed = 1; return -1 }
    rest = substr($0, i + length(key))
    sub(/[,}].*/, "", rest)
    return rest + 0
}
function at_most(name, bound,    v) {
    v = value(name)
    if (v < 0) return
    if (v > bound) { printf "check_tx_counts: FAIL: %s = %s, bound %s\n", name, v, bound > "/dev/stderr"; failed = 1 }
    else printf "check_tx_counts: ok: %-40s %8s <= %s\n", name, v, bound
}
{
    n = split("hashset bst", s, " ")
    for (i = 1; i <= n; i++) {
        at_most("pds." s[i] ".insert_tx.fences", 3.1)
        at_most("pds." s[i] ".insert_tx.flushed_lines", 8.1)
        at_most("pds." s[i] ".remove_tx.fences", 3)
        at_most("pds." s[i] ".remove_tx.flushed_lines", 7)
    }
    n = split("insert_tx remove_tx", o, " ")
    for (i = 1; i <= n; i++) {
        at_most("pds.art." o[i] ".fences", 4)
        at_most("pds.art." o[i] ".flushed_lines", 5)
    }
    at_most("fences_per_op", 0.77)
    at_most("fail_share", 0)
}
END { exit failed }'
