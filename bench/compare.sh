#!/usr/bin/env bash
# The bench gate: the claims benchmark (benchmark/) at HEAD against BASE.
#
#   bash bench/compare.sh BASE
#
# BASE is a commit: CI passes a pull request's merge base with its target
# branch, or the first parent on a push. The script builds ./benchmark at HEAD
# and, in a git worktree, at BASE; runs five pairs of
# `-all -append -size tiny -seconds 1`, one seed per pair, alternating which
# side runs first; and ends with HEAD's `-compare BASE HEAD`. It exits non-zero
# when a run fails (-all fails on a wrong answer or a failed op) or when
# -compare reads a `regressed` row. Everything it writes stays under
# bench/out/compare/.
set -euo pipefail
cd "$(dirname "$0")/.."

base=$(git rev-parse --verify "${1:?usage: bash bench/compare.sh BASE}^{commit}")
out="$PWD/bench/out/compare"
rm -rf "$out"
git worktree prune
mkdir -p "$out"
git worktree add --quiet --detach "$out/base-src" "$base"
trap 'git worktree remove --force "$out/base-src"' EXIT

go build -o "$out/bench-head" ./benchmark
(cd "$out/base-src" && go build -o "$out/bench-base" ./benchmark)

for seed in 1 2 3 4 5; do
	order="base head"
	if [ $((seed % 2)) = 0 ]; then order="head base"; fi
	for side in $order; do
		src="$PWD"
		if [ "$side" = base ]; then src="$out/base-src"; fi
		(cd "$src" && "$out/bench-$side" -all -append -size tiny -seconds 1 -seed "$seed" -out "$out/$side")
	done
done
"$out/bench-head" -compare "$out/base/summary.json" "$out/head/summary.json"
