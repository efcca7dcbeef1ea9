#!/usr/bin/env bash
# Alternates perfbench runs of an old revision and of this working tree on
# one host, then summarizes the pairs with cmd/benchdiff: each side's median
# and interquartile range per end-to-end metric of BENCHMARK.json, the new
# side's win count, and failed/attempted totals. Alternating on one host is
# the only comparison host drift cannot bias. Run from the repository root:
#
#   bash scripts/bench_ab.sh OLD WORKLOAD SEED PAIRS SECONDS
#
# (`make bench-ab OLD=<rev> WORKLOAD=<w> SEED=<n> PAIRS=10 SECONDS=20`).
# OLD is checked out into a git worktree under .bench_build/ab/, removed on
# exit. Pair i runs the old tree first when i is even and the new tree
# first when i is odd. Each run's last stdout line (its JSON result) is
# appended to .bench_build/ab/old.jsonl or new.jsonl; a failed run's line
# is kept too, and counts in the failed total.
set -euo pipefail

if [[ $# -ne 5 ]]; then
	echo "usage: bash scripts/bench_ab.sh OLD WORKLOAD SEED PAIRS SECONDS" >&2
	exit 2
fi
old=$1 workload=$2 seed=$3 pairs=$4 seconds=$5
root=$(pwd)
if [[ ! -f "$root/BENCHMARK.json" || ! -f "$root/perfbench/run.sh" ]]; then
	echo "bench_ab: run from the root of a treegion checkout" >&2
	exit 2
fi

ab="$root/.bench_build/ab"
tree="$ab/old"
mkdir -p "$ab"
if [[ -e "$tree" ]]; then
	git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
	git worktree prune
fi
git worktree add --quiet --detach "$tree" "$old"
cleanup() {
	git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
	git worktree prune
}
trap cleanup EXIT

: >"$ab/old.jsonl"
: >"$ab/new.jsonl"
{
	echo "# old $(git rev-parse "$old") new $(git rev-parse HEAD) (working tree)"
	echo "# workload=$workload seed=$seed pairs=$pairs seconds=$seconds"
	echo "# cpu: $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //')"
	echo "# nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-unset} $(go version)"
} | tee "$ab/host.txt"

# run DIR OUT appends DIR's perfbench result line to OUT.
run() {
	local line
	line=$(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 | tail -n 1) || true
	if [[ -z "$line" ]]; then
		echo "bench_ab: no result from $1" >&2
		exit 1
	fi
	echo "$line" >>"$2"
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run "$tree" "$ab/old.jsonl"
		run "$root" "$ab/new.jsonl"
	else
		run "$root" "$ab/new.jsonl"
		run "$tree" "$ab/old.jsonl"
	fi
	echo "bench_ab: pair $((i + 1))/$pairs done" >&2
done
go run ./cmd/benchdiff -perfbench "$ab/old.jsonl" "$ab/new.jsonl"
