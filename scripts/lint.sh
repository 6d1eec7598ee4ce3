#!/bin/sh
# lint.sh runs pdqlint (internal/lint) over the whole module through its
# one entry point, TestRepoClean. Exit 0 means the tree upholds the
# determinism and cell-isolation rules; any diagnostic prints as
# file:line:col: message (analyzer) and exits 1.
set -eu
cd "$(dirname "$0")/.."
exec go test -count=1 -run '^TestRepoClean$' ./internal/lint
