#!/usr/bin/env bash
# pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SEED
#
# Compares two checkouts on one benchmark workload. Each of PAIRS pairs runs
# `bash bench/run.sh --workload WORKLOAD --seed SEED` once in each checkout,
# the parent first in odd pairs and the change first in even ones. It prints
# one row per run (attempted, failed, setup_s, p25_ms, live_heap_mb), then,
# per metric, each side's median and quartiles, the change's median over the
# parent's, and the pairs in which the change read lower, ties counting for
# neither side. `gain` is yes when the change is lower in at least nine
# tenths of the pairs and the medians differ by more than the parent's
# interquartile range: the rule for claiming a gain. All three metrics are
# better lower. Every run's full output stays in a temporary directory, named
# on the last line. A run that exits non-zero stops the script.
set -euo pipefail

if [ $# -ne 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SEED" >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seed=$5
logs=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")

# run SIDE DIR PAIR appends the run's row to $logs/rows and prints it.
run() {
	local out="$logs/$3-$1.out"
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed") >"$out" 2>&1; then
		echo "pairs.sh: the $1 run of pair $3 failed; its output is in $out" >&2
		exit 1
	fi
	tail -n 1 "$out" | awk -v pair="$3" -v side="$1" '
		function field(re) {
			if (!match($0, re)) {
				print "pairs.sh: no " re " in the last line of the run" > "/dev/stderr"
				exit 1
			}
			s = substr($0, RSTART, RLENGTH)
			sub(/.*:/, "", s)
			return s
		}
		{
			printf "%-4s %-6s %9s %6s %10s %10s %12s\n", pair, side,
				field("\"attempted\":[0-9]+"), field("\"failed\":[0-9]+"),
				field("\"setup_s\":{\"value\":[-0-9.eE+]+"),
				field("\"p25_ms\":{\"value\":[-0-9.eE+]+"),
				field("\"live_heap_mb\":{\"value\":[-0-9.eE+]+")
		}' | tee -a "$logs/rows"
}

echo "# $workload, seed $seed, $pairs pairs: parent $parent, change $change"
printf "%-4s %-6s %9s %6s %10s %10s %12s\n" pair side attempted failed setup_s p25_ms live_heap_mb
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done

awk '
	# q returns the p-quantile of the n sorted values a[0..n-1], interpolating
	# linearly between order statistics.
	function q(a, n, p,   h, i) {
		h = (n - 1) * p
		i = int(h)
		return i + 1 < n ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[i]
	}
	function isort(a, n,   i, j, t) {
		for (i = 1; i < n; i++)
			for (j = i; j > 0 && a[j - 1] > a[j]; j--) {
				t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
			}
	}
	{ for (c = 5; c <= 7; c++) val[$1, $2, c] = $c; if ($1 > n) n = $1 }
	END {
		split("setup_s p25_ms live_heap_mb", name, " ")
		printf "\n%-13s %10s %21s %10s %21s %7s %5s %4s\n", "metric", "parent", "[q1 q3]", "change", "[q1 q3]", "ratio", "wins", "gain"
		for (c = 5; c <= 7; c++) {
			wins = 0
			for (i = 0; i < n; i++) {
				p[i] = val[i + 1, "parent", c]
				ch[i] = val[i + 1, "change", c]
				if (ch[i] < p[i]) wins++
			}
			isort(p, n); isort(ch, n)
			pm = q(p, n, 0.5); cm = q(ch, n, 0.5)
			gain = wins >= 0.9 * n && pm - cm > q(p, n, 0.75) - q(p, n, 0.25) ? "yes" : "no"
			printf "%-13s %10.5g [%9.5g %9.5g] %10.5g [%9.5g %9.5g] %7.3f %5s %4s\n", name[c - 4],
				pm, q(p, n, 0.25), q(p, n, 0.75), cm, q(ch, n, 0.25), q(ch, n, 0.75),
				pm != 0 ? cm / pm : 0, wins "/" n, gain
		}
	}' "$logs/rows"
echo "# runs kept in $logs"
