#!/usr/bin/env bash
# Compare the first six columns of scripts/cv_identity.py at a git revision
# (default HEAD) and in this checkout; prints nothing when they match.
#
#   scripts/identity_diff.sh [REV]
#
# REV is exported with `git archive` into a temporary directory, and this
# checkout's cv_identity.py is copied into it, so both sides print the same
# lines. The exit status is diff's: 0 when the lines match, 1 when they
# differ. Nothing is written into the repository.
set -euo pipefail
export PYTHONDONTWRITEBYTECODE=1
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "${1:-HEAD}" | tar -x -C "$tmp"
cp "$root/scripts/cv_identity.py" "$tmp/scripts/cv_identity.py"
python3 "$tmp/scripts/cv_identity.py" | cut -f1-6 > "$tmp/rev.txt"
python3 "$root/scripts/cv_identity.py" | cut -f1-6 > "$tmp/checkout.txt"
diff "$tmp/rev.txt" "$tmp/checkout.txt"
