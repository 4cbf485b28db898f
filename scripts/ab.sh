#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark: revision REV (A) against the
# working tree (B), on one host in one session. Run from the repository
# root, or as `make ab REV=<rev> [WORKLOADS="…"]`:
#
#   bash scripts/ab.sh REV [WORKLOAD...]
#
# For each workload (default: every workload in BENCHMARK.json) it makes 10
# pairs of `benchmark/run.sh` runs at BENCHMARK.json's run_seconds. A pair
# is one run of each side on the same fresh seed, and the side that runs
# first alternates from pair to pair. REV runs from a temporary git
# worktree, removed on any exit. The outputs are saved under
# .bench_build/ab-TIME/; the script ends with `run.sh -compare A… -- B…`
# over them and exits with its status: 1 when any row is worse. A run that
# fails stops the script with status 1.
set -euo pipefail

pairs=10
if [ $# -lt 1 ]; then
	echo "usage: $0 REV [WORKLOAD...]" >&2
	exit 2
fi
rev=$1
shift
root=$PWD
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	read -r -a workloads <<<"$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json | tr '\n' ' ')"
fi
if [ -z "$seconds" ] || [ ${#workloads[@]} -eq 0 ]; then
	echo "ab: no run_seconds or workloads in BENCHMARK.json" >&2
	exit 2
fi

tmp=$(mktemp -d)
cleanup() {
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
	git -C "$root" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$tmp/rev" "$rev"
outs=$root/.bench_build/ab-$(date +%Y%m%dT%H%M%S)
mkdir -p "$outs"
echo "ab: A = $rev ($(git -C "$tmp/rev" rev-parse --short=12 HEAD)), B = working tree; ${seconds}s runs; outputs in $outs"

# run SIDE DIR WORKLOAD SEED OUT runs one benchmark and saves its output.
run() {
	if ! (cd "$2" && bash benchmark/run.sh -workload "$3" -seed "$4" -seconds "$seconds") >"$5" 2>"$5.err"; then
		echo "ab: the $1 run of $3 at seed $4 failed:" >&2
		cat "$5.err" >&2
		exit 1
	fi
}

a=() b=()
for w in "${workloads[@]}"; do
	for i in $(seq 1 $pairs); do
		# Microseconds since the epoch: fresh in every pair and invocation.
		seed=$(($(date +%s%N) / 1000))
		fa=$outs/$w-$i-A.out fb=$outs/$w-$i-B.out
		if [ $((i % 2)) -eq 1 ]; then
			echo "ab: $w pair $i/$pairs, seed $seed, A first"
			run A "$tmp/rev" "$w" "$seed" "$fa"
			run B "$root" "$w" "$seed" "$fb"
		else
			echo "ab: $w pair $i/$pairs, seed $seed, B first"
			run B "$root" "$w" "$seed" "$fb"
			run A "$tmp/rev" "$w" "$seed" "$fa"
		fi
		a+=("$fa") b+=("$fb")
	done
done

status=0
bash benchmark/run.sh -compare "${a[@]}" -- "${b[@]}" || status=$?
exit $status
