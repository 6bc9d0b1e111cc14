#!/usr/bin/env bash
# Prints the non-test line count of the workspace's library and vendored
# sources, the size figure simplicity changes report.
#
#   bash scripts/loc.sh
#
# The rule: every `*.rs` file under `crates/*/src` and `vendor/*/src` counts
# its lines up to (not including) its first unindented `#[cfg(test)]` that
# opens a block item (a test module or helper), or all of them when it has
# none. An unindented `#[cfg(test)]` whose next line ends in `;` (a test-only
# `mod name;`) drops only those two lines, and an indented one marks a
# test-only statement inside code that ships, which counts.
# `crates/serve/src/fault_injection.rs` is excluded: it is compiled only
# into the serve crate's unit tests. Blank lines and comments count. The
# script prints the total and sets no bound.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src vendor/*/src -name '*.rs' ! -name fault_injection.rs -print0 \
    | LC_ALL=C sort -z \
    | xargs -0 awk '
        FNR == 1 { counting = 1; attribute = 0 }
        attribute {
            attribute = 0
            if (/;[[:space:]]*$/) next
            counting = 0
        }
        counting && /^#\[cfg\(test\)\]/ { attribute = 1; next }
        counting { total++ }
        END { print total + 0 }
    '
