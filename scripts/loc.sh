#!/bin/sh
# loc.sh prints the project's size metric: lines of non-test Go, and of
# test Go beside it. Both leave out benchmark/ (its own module, which
# measures the program) and every testdata/ directory (fixtures, such as
# the lint checks' sample packages). Run it from anywhere in the checkout:
# sh scripts/loc.sh.
set -eu
cd "$(dirname "$0")/.."
count() {
	find . -name '*.go' -not -path './benchmark/*' -not -path '*/testdata/*' "$@" -exec cat {} + | wc -l
}
echo "non-test Go: $(count -not -name '*_test.go')"
echo "test Go:     $(count -name '*_test.go')"
