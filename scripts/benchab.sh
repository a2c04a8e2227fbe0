#!/usr/bin/env bash
# Alternated A/B runs of one benchmark workload: the working tree
# against another revision. Builds REV from `git archive` in a temporary
# directory, then runs `benchmark/run.sh --workload W --seed S --seconds
# 20 --trace 0` PAIRS times on each side, alternating which side goes
# first, and prints every run, each side's median and quartiles, and how
# many pairs the working tree won on each end-to-end metric.
#
#   bash scripts/benchab.sh REV WORKLOAD PAIRS SEED
#   (or: make benchab REV=... WORKLOAD=ops_mixed PAIRS=10 SEED=1)
#
# Every end-to-end metric is lower-is-better (BENCHMARK.json). A run
# that prints a GUARD line is marked in its row. Not a gate: the host's
# noise moves these numbers by tens of percent, which is why the table
# shows every run. Needs jq. The temporary directory is removed on exit.
set -euo pipefail

rev=${1:?usage: benchab.sh REV WORKLOAD PAIRS SEED}
workload=${2:?usage: benchab.sh REV WORKLOAD PAIRS SEED}
pairs=${3:?usage: benchab.sh REV WORKLOAD PAIRS SEED}
seed=${4:?usage: benchab.sh REV WORKLOAD PAIRS SEED}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

metrics=(setup_s cpu_us_per_unit lat_p50_us lat_p99_us peak_rss_mb)

# run SIDE PAIR: one benchmark run, appended to $tmp/runs as
# "side pair correct attempted failed guard m1 … m5".
run() {
	local side=$1 pair=$2 dir=$root log="$tmp/$1.$2.log"
	[ "$side" = base ] && dir=$tmp/base
	(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0) >"$log" 2>&1 || true
	local guard=- json
	grep -q ' GUARD ' "$log" && guard=GUARD
	json=$(grep '^{' "$log" | tail -1)
	if [ -z "$json" ]; then
		echo "$side $pair run failed; its output:" >&2
		tail -20 "$log" >&2
		exit 1
	fi
	echo "$side $pair $(jq -r --arg m "${metrics[*]}" \
		'[.correct, .attempted, .failed] + [($m | split(" "))[] as $k | .metrics[$k].value] | map(tostring) | join(" ")' <<<"$json") $guard" >>"$tmp/runs"
}

printf '%-4s %4s %7s %9s %6s' side pair correct attempted failed
printf ' %15s' "${metrics[@]}"
printf ' guard\n'
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		run "$side" "$p"
		tail -1 "$tmp/runs" | awk '{ printf "%-4s %4s %7s %9s %6s", $1, $2, $3, $4, $5
			for (i = 6; i <= 10; i++) printf " %15s", $i; printf " %s\n", $11 }'
	done
done

echo
echo "REV $rev = base, working tree = head; $workload seed $seed, $pairs pairs"
for side in base head; do
	awk -v side="$side" '$1 == side { a++; att += $4; fail += $5 } END {
		printf "%s: %d runs, %d attempted, %d failed (%.4f%%)\n", side, a, att, fail, att ? 100 * fail / att : 0 }' "$tmp/runs"
done
# quartiles of column c for one side: q1 median q3 (linear interpolation)
quart() {
	awk -v side="$1" -v c="$2" '$1 == side { print $c }' "$tmp/runs" | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
		END { printf "%.4g %.4g %.4g", q(0.25), q(0.5), q(0.75) }'
}
printf '\n%-16s %-26s %-26s %8s %s\n' metric "base q1/median/q3" "head q1/median/q3" ratio "pairs head lower"
for i in "${!metrics[@]}"; do
	c=$((i + 6))
	read -r bq1 bmed bq3 <<<"$(quart base $c)"
	read -r hq1 hmed hq3 <<<"$(quart head $c)"
	won=$(awk -v c=$c '{ v[$1 " " $2] = $c } END {
		for (k in v) { split(k, s, " "); if (s[1] == "head") { n++; if (v[k] < v["base " s[2]]) w++ } }
		printf "%d/%d", w, n }' "$tmp/runs")
	printf '%-16s %-26s %-26s %8s %s\n' "${metrics[$i]}" "$bq1/$bmed/$bq3" "$hq1/$hmed/$hq3" \
		"$(awk -v b="$bmed" -v h="$hmed" 'BEGIN { printf "%.3f", b ? h / b : 0 }')" "$won"
done
