#!/usr/bin/env bash
# Regenerates every golden file of the repository after an intentional
# change: each package whose tests declare an -update flag runs with
# -update, then again without it, so each writer is held to its own
# checker; git status then lists what moved. Read that diff before
# committing it.
#
#   scripts/update_goldens.sh
#
# The packages are found, not listed, so a new golden cannot fall out.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=()
while read -r pkg dir; do
  if grep -qs 'flag\.Bool("update"' "$dir"/*_test.go; then
    pkgs+=("$pkg")
  fi
done < <(go list -f '{{.ImportPath}} {{.Dir}}' ./...)
if [ "${#pkgs[@]}" -eq 0 ]; then
  echo "update_goldens: no package declares an -update flag" >&2
  exit 1
fi
printf 'golden packages: %s\n' "${pkgs[*]}"

go test -count=1 "${pkgs[@]}" -update
go test -count=1 "${pkgs[@]}"
git status --short
