#!/usr/bin/env bash
# Non-test lines of Rust per crate and in total.
#
# Each `crates/*/src/**/*.rs` file counts up to (not including) its
# first line that contains `#[cfg(test)]`; a file without one counts in
# full. `acceptance_tests.rs`, `reference_tests.rs` and
# `search_tests.rs` are test modules kept in `src` and are left out.
#
# After the per-crate rows it prints two subtotals: the infrastructure
# crates (backend, bench, exec, serve, store, telemetry) and the
# algorithm crates (every other crate).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

infrastructure=" backend bench exec serve store telemetry "
total=0
infra=0
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
    if [[ $infrastructure == *" ${crate#paqoc-} "* ]]; then
        infra=$((infra + lines))
    fi
done
printf '%-18s %6d\n' infrastructure "$infra"
printf '%-18s %6d\n' algorithm "$((total - infra))"
printf '%-18s %6d\n' total "$total"
