#!/usr/bin/env bash
# Size of the product code: every .rs file under crates/*/src and src,
# counted up to its first `#[cfg(test)]` line (unit tests sit below it).
#
#   scripts/product_size.sh
#
# Prints the non-test lines, how many of them mention `unsafe`, and the
# number of files, then the non-test lines of each crate (`src` is the
# root crate). Works from any directory.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
files=$(find crates/*/src src -name '*.rs' | sort)
# shellcheck disable=SC2086 # one argument per file
awk '/^#\[cfg\(test\)\]/ { nextfile }
     { lines++ }
     /unsafe/ { unsafe_lines++ }
     END {
         printf "non-test lines:  %d\n", lines
         printf "unsafe mentions: %d\n", unsafe_lines
     }' $files
printf "files:           %d\n" "$(echo "$files" | wc -l)"
echo "non-test lines per crate:"
for dir in crates/*/src src; do
    # shellcheck disable=SC2046 # one argument per file
    awk -v dir="$dir" '/^#\[cfg\(test\)\]/ { nextfile }
         { lines++ }
         END { printf "  %-20s %d\n", dir, lines }' $(find "$dir" -name '*.rs' | sort)
done
