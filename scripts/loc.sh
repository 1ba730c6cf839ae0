#!/bin/sh
# Non-test lines of Rust per crate: for every crates/<crate>/src/**/*.rs the
# lines before the file's first `#[cfg(test)]`, summed per crate. This is
# the "net line count" ROADMAP tracks; CHANGES.md quotes the table at the
# parent and at the change of every PR whose goal is to simplify.
#
# usage: scripts/loc.sh [--check] [repo-root]   (default: the script's own repo)
#
# --check makes the count a ratchet: exit 1 when the total exceeds the
# number in scripts/loc.max. A PR that must grow the count edits that file
# and says why in CHANGES.md.
set -eu
check=0
if [ "${1:-}" = --check ]; then
    check=1
    shift
fi
root=${1:-$(dirname "$0")/..}
cd "$root"
printf '%-14s %7s\n' crate lines
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir/src" -name '*.rs' -exec awk 'FNR == 1 { skip = 0 }
        /#\[cfg\(test\)\]/ { skip = 1 }
        !skip { n++ }
        END { print n + 0 }' {} +)
    printf '%-14s %7d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-14s %7d\n' total "$total"
if [ "$check" = 1 ] && [ "$total" -gt "$(cat scripts/loc.max)" ]; then
    echo "total $total exceeds scripts/loc.max ($(cat scripts/loc.max))" >&2
    exit 1
fi
