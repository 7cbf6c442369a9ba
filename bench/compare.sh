#!/bin/sh
# Paired benchmark comparison of an older revision against this checkout.
#
#   bench/compare.sh OLD WORKLOAD PAIRS SECONDS
#   make bench-compare OLD=<rev> W=<workload> PAIRS=<n> SECONDS=<s>
#
# Exports OLD into a temporary directory (under $TMPDIR), then for
# seeds 1..PAIRS runs the perfbench workload on OLD and on this checkout
# in turn (the parent first on odd seeds, the change first on even ones,
# so neither side always runs second), and hands the runs to
# `perfbench/run.py compare`, which pairs them by seed and prints each
# metric's medians, quartiles, pair wins and verdict.  The first run on
# each side pays for its build.  The raw runs stay in
# .perfbench/compare/<workload>/ for a second look; the export is
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
trap 'rm -rf "$tree"' EXIT
trap 'exit 130' INT TERM
git archive "$rev" | tar -x -C "$tree"

out=.perfbench/compare/$workload
rm -rf "$out"
mkdir -p "$out"

run() { # DIR SEED FILE
  (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$2" \
     --seconds "$seconds" --trace 0) > "$3"
}

parent() {
  echo "bench-compare: $workload seed $1: parent $(echo "$rev" | cut -c1-8)" >&2
  run "$tree" "$1" "$out/parent-$1.txt"
}
change() {
  echo "bench-compare: $workload seed $1: change" >&2
  run "$root" "$1" "$out/change-$1.txt"
}

seed=1
while [ "$seed" -le "$pairs" ]; do
  if [ $((seed % 2)) -eq 1 ]; then
    parent "$seed"; change "$seed"
  else
    change "$seed"; parent "$seed"
  fi
  seed=$((seed + 1))
done

python3 perfbench/run.py compare \
  --parent $(seq -f "$out/parent-%g.txt" "$pairs") \
  --change $(seq -f "$out/change-%g.txt" "$pairs")
