#!/bin/sh
# Non-test lines of Rust per crate: for every crates/<crate>/src/**/*.rs the
# lines before the file's first `#[cfg(test)]`, summed per crate. This is
# the "net line count" ROADMAP tracks; CHANGES.md quotes the table at the
# parent and at the change of every PR whose goal is to simplify.
#
# usage: scripts/loc.sh [repo-root]      (default: the script's own repo)
set -eu
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
