#!/bin/sh
# Paired benchmark comparison of an older revision against this checkout.
#
#   bench/compare.sh OLD WORKLOAD PAIRS SECONDS
#   make bench-compare OLD=<rev> W=<workload> PAIRS=<n> SECONDS=<s>
#
# Checks OLD out into a temporary git worktree (under $TMPDIR), then for
# seeds 1..PAIRS runs the perfbench workload on OLD and on this checkout
# in turn — parent, change, parent, change, ... — and hands the runs to
# `perfbench/run.py compare`, which pairs them by seed and prints each
# metric's medians, quartiles, pair wins and verdict.  The first run on
# each side pays for its build.  The raw runs stay in
# .perfbench/compare/<workload>/ for a second look; the worktree is
# removed on exit.
set -eu

if [ $# -ne 4 ]; then
  echo "usage: $0 OLD WORKLOAD PAIRS SECONDS" >&2
  exit 2
fi
old=$1 workload=$2 pairs=$3 seconds=$4

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$old^{commit}")
tree=$(mktemp -d)
cleanup() {
  git worktree remove --force "$tree" >/dev/null 2>&1 || rm -rf "$tree"
  git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --detach "$tree" "$rev" >/dev/null 2>&1

out=.perfbench/compare/$workload
rm -rf "$out"
mkdir -p "$out"

run() { # DIR SEED FILE
  (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$2" \
     --seconds "$seconds" --trace 0) > "$3"
}

seed=1
while [ "$seed" -le "$pairs" ]; do
  echo "bench-compare: $workload seed $seed: parent $(echo "$rev" | cut -c1-8)" >&2
  run "$tree" "$seed" "$out/parent-$seed.txt"
  echo "bench-compare: $workload seed $seed: change" >&2
  run "$root" "$seed" "$out/change-$seed.txt"
  seed=$((seed + 1))
done

python3 perfbench/run.py compare \
  --parent $(seq -f "$out/parent-%g.txt" "$pairs") \
  --change $(seq -f "$out/change-%g.txt" "$pairs")
