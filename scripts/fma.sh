#!/bin/sh
# fma.sh checks that pdqsim computes one answer on every machine.
#
# The Go spec lets a compiler fuse x*y + z into one multiply-add, which
# rounds once where the source rounds twice; only an explicit float64(...)
# conversion forbids it. amd64 never fuses, while arm64, ppc64le, s390x,
# riscv64 and loong64 do, so a fused site gives those machines other
# bits. The script:
#
#   1. cross-compiles ./cmd/... for each of those GOARCHes with the module's
#      assembly listing (-gcflags='pdq/...=-S') and fails on any fused
#      multiply-add or multiply-subtract in module code;
#   2. runs pdqsim -exp all -quick -json with the CPU's FMA turned off
#      (GODEBUG=cpu.fma=off, which moves math.Exp and friends off their
#      FMA path on amd64) and requires output equal to a default run.
#
# Run it from anywhere in the checkout: sh scripts/fma.sh. It needs no
# emulator and no network. It exits 1 on a fused site or a differing
# table.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work=$(mktemp -d "${TMPDIR:-/tmp}/fma.XXXXXX")
trap 'rm -rf "$work"' EXIT

status=0
for arch in arm64 ppc64le s390x riscv64 loong64; do
	GOARCH=$arch go build -gcflags='pdq/...=-S' -o /dev/null ./cmd/... > "$work/$arch.s" 2>&1
	# A listing line is "<pc> <offset> (<file>:<line>) <op> <args>";
	# only module files are compiled with -S.
	if grep -E '^[[:space:]]+0x[0-9a-f]+ [0-9]+ \(.*\)[[:space:]]+FN?M(ADD|SUB)[SD]?[[:space:]]' "$work/$arch.s" > "$work/$arch.fused"; then
		echo "$arch: fused multiply-adds in module code:"
		awk '{print "  " $3, $4}' "$work/$arch.fused" | sort | uniq -c
		status=1
	else
		echo "$arch: no fused multiply-add"
	fi
done

go build -o "$work/pdqsim" ./cmd/pdqsim
"$work/pdqsim" -exp all -quick -json > "$work/default.json"
GODEBUG=cpu.fma=off "$work/pdqsim" -exp all -quick -json > "$work/nofma.json"
if cmp "$work/default.json" "$work/nofma.json"; then
	echo "cpu.fma=off: tables equal"
else
	echo "cpu.fma=off: tables differ"
	status=1
fi
exit $status
