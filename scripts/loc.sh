#!/usr/bin/env bash
# Non-test lines of Rust per crate and in total.
#
# Each `crates/*/src/**/*.rs` file counts up to (not including) its
# first line that contains `#[cfg(test)]`; a file without one counts in
# full. `acceptance_tests.rs`, `reference_tests.rs` and
# `search_tests.rs` are test modules kept in `src` and are left out.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
    lines=$(find "$dir/src" -name '*.rs' \
        ! -name acceptance_tests.rs ! -name reference_tests.rs ! -name search_tests.rs \
        -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { counting = 1 }
                         /#\[cfg\(test\)\]/ { counting = 0 }
                         counting { n++ }
                         END { print n + 0 }')
    printf '%-18s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-18s %6d\n' total "$total"
