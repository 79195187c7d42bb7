#!/usr/bin/env bash
# e2e_pairs.sh runs the end-to-end benchmark (cmd/e2ebench) on a parent
# revision and on the working tree in paired runs, and compares them.
#
#	scripts/e2e_pairs.sh PARENT_REV WORKLOAD...
#
# Run it from the repository root. PAIRS (default 6), SEED (5),
# RUN_SECONDS (20) and TRACE (0) set the pairs per workload and the
# e2ebench -seed, -seconds and -trace of every run.
#
#   - The parent is exported with git archive into
#     .bench_build/parent-REV and benchmarked from there. Each side
#     builds its own binaries through its own cmd/e2ebench/run.sh, as a
#     fresh checkout would.
#   - Each workload runs on its own, never -workload all, in PAIRS pairs
#     of alternating order: odd pairs run the parent first, even pairs
#     the change, so a host that speeds up or slows down over the batch
#     weighs on both sides alike.
#   - A pair either of whose reports marks its run invalid (a non-empty
#     "invalid" list, e.g. a generator that sent late) is run again,
#     in the same order, rather than letting -compare refuse the whole
#     batch. At most PAIRS re-runs happen per workload; the script
#     prints how many there were, and each set-aside pair is kept under
#     .bench_build/pairs/WORKLOAD/invalid/. Past the cap the invalid pair
#     stays in the batch and -compare refuses it.
#   - Every kept report goes to e2ebench -compare. No valid pair is
#     dropped.
#   - Drift control: serve.http_rtt_us, the /healthz round trip every
#     report carries, is printed as a change/parent ratio next to each
#     pair. When the median ratio lies outside ±5 %, the host's speed
#     moved between the sides. The script then withholds the verdict:
#     it prints the comparison for reference only, says why, and
#     prints the exit status the timings alone would give.
#
# Reports land in .bench_build/pairs/WORKLOAD/{parent,change}-N.json.
# Exit status: 0 no regression, 1 a metric regressed (or -compare
# refused the batch), 2 usage, 3 a verdict was withheld for drift; a
# run that fails stops the script with its own status.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: scripts/e2e_pairs.sh PARENT_REV WORKLOAD..." >&2
	exit 2
fi
root=$(pwd)
if [ ! -f "$root/cmd/e2ebench/run.sh" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "e2e_pairs: run from the repository root" >&2
	exit 2
fi
rev=$(git rev-parse --short "$1^{commit}")
shift
pairs=${PAIRS:-6}
seed=${SEED:-5}
seconds=${RUN_SECONDS:-20}
trace=${TRACE:-0}

parent="$root/.bench_build/parent-$rev"
if [ ! -f "$parent/cmd/e2ebench/run.sh" ]; then
	rm -rf "$parent"
	mkdir -p "$parent"
	git archive "$rev" | tar -x -C "$parent"
fi

# run SIDE_ROOT REPORT WORKLOAD: one e2ebench run of one workload.
run() {
	(cd "$1" && bash cmd/e2ebench/run.sh -workload "$3" -seed "$seed" -seconds "$seconds" -trace "$trace" -o "$2" >/dev/null)
}

# rtt REPORT WORKLOAD: the report's serve.http_rtt_us.
rtt() {
	jq -r --arg w "$2" '.workloads[] | select(.workload == $w) | .layers["serve.http_rtt_us"].value' "$1"
}

# invalid REPORT WORKLOAD: how many reasons the report gives for its run
# not being a valid measurement.
invalid() {
	jq -r --arg w "$2" '.workloads[] | select(.workload == $w) | .invalid // [] | length' "$1"
}

status=0
for wl in "$@"; do
	out="$root/.bench_build/pairs/$wl"
	rm -rf "$out"
	mkdir -p "$out"
	ratios=()
	reruns=0
	for i in $(seq 1 "$pairs"); do
		while :; do
			if [ $((i % 2)) -eq 1 ]; then
				run "$parent" "$out/parent-$i.json" "$wl"
				run "$root" "$out/change-$i.json" "$wl"
			else
				run "$root" "$out/change-$i.json" "$wl"
				run "$parent" "$out/parent-$i.json" "$wl"
			fi
			if [ "$(invalid "$out/parent-$i.json" "$wl")" -eq 0 ] && [ "$(invalid "$out/change-$i.json" "$wl")" -eq 0 ]; then
				break
			fi
			if [ "$reruns" -ge "$pairs" ]; then
				echo "$wl pair $i/$pairs: a run is invalid and the $pairs re-runs are spent; the pair stays"
				break
			fi
			reruns=$((reruns + 1))
			mkdir -p "$out/invalid"
			mv "$out/parent-$i.json" "$out/invalid/parent-$i.$reruns.json"
			mv "$out/change-$i.json" "$out/invalid/change-$i.$reruns.json"
			echo "$wl pair $i/$pairs: a run is invalid; set aside as invalid/*-$i.$reruns.json and run again"
		done
		ratio=$(awk -v c="$(rtt "$out/change-$i.json" "$wl")" -v p="$(rtt "$out/parent-$i.json" "$wl")" \
			'BEGIN { if (p > 0) printf "%.3f", c / p; else print "nan" }')
		ratios+=("$ratio")
		echo "$wl pair $i/$pairs ($([ $((i % 2)) -eq 1 ] && echo parent first || echo change first)): serve.http_rtt_us change/parent $ratio"
	done
	median=$(printf '%s\n' "${ratios[@]}" | sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
	drift=$(awk -v m="$median" 'BEGIN { print (m == "nan" || m < 0.95 || m > 1.05) ? 1 : 0 }')
	parents=()
	changes=()
	for i in $(seq 1 "$pairs"); do
		parents+=("$out/parent-$i.json")
		changes+=("$out/change-$i.json")
	done
	echo "$wl: $reruns invalid pair(s) re-run"
	if [ "$drift" -eq 1 ]; then
		echo "$wl: verdict withheld: the median serve.http_rtt_us ratio is $median, outside 0.95-1.05, so the host's speed differed between the sides; the table below is for reference only"
	fi
	cmp=0
	bash cmd/e2ebench/run.sh -compare "${parents[@]}" -- "${changes[@]}" || cmp=$?
	if [ "$drift" -eq 1 ]; then
		echo "$wl: the timings alone give exit status $([ "$cmp" -eq 0 ] && echo "0: no regression" || echo "1: a metric regressed or -compare refused the batch")"
		status=3
	elif [ "$cmp" -ne 0 ] && [ "$status" -ne 3 ]; then
		status=1
	fi
done
exit "$status"
