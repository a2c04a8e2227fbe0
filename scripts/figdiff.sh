#!/usr/bin/env bash
# Byte-identity check of the simulator against another revision: builds
# triad-sim once at REV (from `git archive`, in a temporary directory)
# and once at the working tree, runs the same figure set on both at
# each seed, and diffs everything they print and write. Exits 1 on any
# difference.
#
#   bash scripts/figdiff.sh REV [SEED...]   (or: make figdiff REV=... [SEED="1 7"])
#
# Compared per side, at each SEED (default 1): `-fig all -seed SEED -out
# DIR` (stdout and all CSVs), `-fig check -seed SEED` (stdout and exit
# status) and `-fig 6 -seed SEED -trace FILE` (stdout and the JSONL
# trace). stderr carries only runner timing and is not compared.
# Everything is built and written in a temporary directory, removed on
# exit.
set -euo pipefail

rev=${1:?usage: figdiff.sh REV [SEED...]}
shift
seeds=("${@:-1}")
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/bin"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
go -C "$tmp/src" build -o "$tmp/bin/base" ./cmd/triad-sim
go -C "$root" build -o "$tmp/bin/head" ./cmd/triad-sim

run() ( # side seed; relative paths, because stdout names the files written
	bin="$tmp/bin/$1"
	mkdir -p "$tmp/$2/$1/out"
	cd "$tmp/$2/$1"
	"$bin" -fig all -seed "$2" -out out >all.txt 2>/dev/null
	status=0
	"$bin" -fig check -seed "$2" >check.txt 2>/dev/null || status=$?
	echo "exit status $status" >>check.txt
	"$bin" -fig 6 -seed "$2" -trace fig6.jsonl >fig6.txt 2>/dev/null
)

differ=0
for seed in "${seeds[@]}"; do
	run base "$seed" &
	base=$!
	run head "$seed"
	wait "$base"
	if diff -r "$tmp/$seed/base" "$tmp/$seed/head"; then
		echo "figdiff: identical to $rev at seed $seed ($(ls "$tmp/$seed/head/out" | wc -l) CSVs, check, fig 6 trace)"
	else
		echo "figdiff: outputs differ from $rev at seed $seed" >&2
		differ=1
	fi
done
exit "$differ"
