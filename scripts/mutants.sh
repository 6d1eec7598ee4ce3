#!/bin/sh
# mutants.sh checks that the tests still kill every kept mutant. Each
# scripts/mutants/NN-name.patch breaks the code on purpose, and its first
# line names the test that must catch it:
#
#   killed-by: <package> <test>
#
# For each patch the script applies it to a scratch git worktree of HEAD,
# requires the tree to build, and runs that test; the mutant is killed when
# the test fails. The script first runs every named test on the unpatched
# tree, which must pass. It exits 1 if any mutant survives, and 2 if the
# check itself cannot be made (a patch that does not apply or build, or a
# test that fails unpatched). Arguments select patches; the default is all.
# Uncommitted changes are not seen: commit before running.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
[ $# -gt 0 ] || set -- scripts/mutants/*.patch
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
tree="$work/tree"
trap 'git worktree remove --force "$tree" 2>/dev/null; rm -rf "$work"' EXIT
git worktree add --detach --quiet "$tree" HEAD

# killer reads the patch's header line into pkg and test.
killer() {
	read -r tag pkg test < "$1"
	if [ "$tag" != "killed-by:" ] || [ -z "$test" ]; then
		echo "$1: first line must be 'killed-by: <package> <test>'" >&2
		exit 2
	fi
}

# passes runs the test in the worktree.
passes() {
	(cd "$tree" && go test -count=1 -run "^$test\$" "$pkg") > "$work/log" 2>&1
}

for p in "$@"; do
	killer "$p"
	if ! passes; then
		cat "$work/log"
		echo "$p: $test fails without the mutant" >&2
		exit 2
	fi
done

survivors=0
for p in "$@"; do
	killer "$p"
	git -C "$tree" apply "$root/$p" || { echo "$p: does not apply" >&2; exit 2; }
	(cd "$tree" && go build ./...) || { echo "$p: does not build" >&2; exit 2; }
	if passes; then
		echo "SURVIVED $p ($test passes)"
		survivors=$((survivors + 1))
	else
		echo "killed   $p by $test"
	fi
	git -C "$tree" reset --hard --quiet
	git -C "$tree" clean -fdq
done
[ "$survivors" -eq 0 ]
