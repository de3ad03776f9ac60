#!/usr/bin/env bash
# A/B two commits with this working tree's benchmark: builds each ref's
# cmd/s3cluster into its own directory and runs the end-to-end pass on both,
# in pairs, alternating which side goes first. The benchmark code and its
# settings are identical on both sides; only the measured binary differs.
#
#   bench/perf/ab.sh <refA> <refB> [pairs] [workload]
#
# Prints, per workload and metric, each side's quartiles and how many pairs
# B won. Result lines are kept in .bench_build/ab/{A,B}.jsonl.
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: $0 <refA> <refB> [pairs=10] [workload=all]" >&2
	exit 2
fi
refA=$1 refB=$2 pairs=${3:-10} only=${4:-}

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
ab="$root/.bench_build/ab"
rm -rf "$ab"
mkdir -p "$ab"

build_ref() { # <side> <ref>
	mkdir -p "$ab/$1-src"
	git -C "$root" archive "$2" | tar -x -C "$ab/$1-src"
	(cd "$ab/$1-src" && go build -o "$ab/$1-s3cluster" ./cmd/s3cluster)
}
build_ref A "$refA"
build_ref B "$refB"
(cd "$here" && go build -o "$ab/perf" .)

workloads=(wc-shared scan-cold sel-shuffle admit-durable)
[[ -n "$only" ]] && workloads=("$only")

cd "$root"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order=(A B); else order=(B A); fi
	for w in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			echo "pair $i: $w on $side" >&2
			"$ab/perf" -s3cluster "$ab/$side-s3cluster" -out "$ab/out" \
				-workload "$w" -seed "$i" -trace 0 | tail -n 1 |
				sed "s/^{/{\"workload\":\"$w\",\"pair\":$i,/" >>"$ab/$side.jsonl"
		done
	done
done

python3 - "$ab/A.jsonl" "$ab/B.jsonl" "$refA" "$refB" <<'PY'
import json, statistics, sys
a_path, b_path, ref_a, ref_b = sys.argv[1:5]
load = lambda p: [json.loads(l) for l in open(p)]
A, B = load(a_path), load(b_path)
higher = {"jobs_per_s"}
print(f"A = {ref_a}, B = {ref_b}; quartiles are statistics.quantiles(n=4)")
for w in dict.fromkeys(r["workload"] for r in A):
    ra = {r["pair"]: r for r in A if r["workload"] == w}
    rb = {r["pair"]: r for r in B if r["workload"] == w}
    pairs = sorted(set(ra) & set(rb))
    print(f"\n{w}: {len(pairs)} pairs, failed A {sum(ra[p]['failed'] for p in pairs)} B {sum(rb[p]['failed'] for p in pairs)}")
    for m in ra[pairs[0]]["metrics"]:
        va = [ra[p]["metrics"][m]["value"] for p in pairs]
        vb = [rb[p]["metrics"][m]["value"] for p in pairs]
        better = (lambda x, y: x > y) if m in higher else (lambda x, y: x < y)
        wins = sum(better(y, x) for x, y in zip(va, vb))
        ties = sum(x == y for x, y in zip(va, vb))
        q = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        qa, qb = q(va), q(vb)
        print(f"  {m:20s} A {qa[0]:10.4f} {qa[1]:10.4f} {qa[2]:10.4f}   B {qb[0]:10.4f} {qb[1]:10.4f} {qb[2]:10.4f}"
              f"   B/A median {qb[1]/qa[1]:.3f}   B wins {wins}/{len(pairs)} (ties {ties})")
PY
