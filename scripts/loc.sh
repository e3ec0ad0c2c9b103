#!/usr/bin/env bash
# Net non-test line count of the library crates: non-blank lines up to
# each file's first `#[cfg(test)]` (doc comments included), for every
# `.rs` file under `crates/*/src`, summed per crate, then in total.
#
#   scripts/loc.sh            # per-crate counts and the total
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
  crate=$(basename "$(dirname "$dir")")
  n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && NF > 0 { n++ }
    END { print n + 0 }')
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
