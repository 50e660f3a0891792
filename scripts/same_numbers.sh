#!/usr/bin/env bash
# Same numbers: does the working tree reproduce BASE_REV's results?
#
#   scripts/same_numbers.sh BASE_REV [OUT_DIR]
#
# Builds BASE_REV (exported with `git archive` into a temp dir) and the
# working tree, runs on each side the gated bench experiments
#
#   bench/main.exe e2 e3 e4 e10 e12 e15 e16 e17 e18 e19 e20 e21
#
# and every scripts/ci_sweep.sh lane, then diffs the BENCH_*.json files
# and the lane outputs. Only host-time fields are masked: e21's
# "wall_s" and "events_per_sec_wall", and the explorer's cpu-seconds and
# schedules/s. Everything else is simulated and must match byte for
# byte. Each side's raw outputs and exit codes stay in OUT_DIR (default:
# a fresh temp dir, printed at the end). Exits 1 if anything differs.
# It only reads benchmark/ and changes nothing in either tree.
#
# A full run takes a while (every lane twice): run it on a quiet machine.

set -eu

base=${1:?usage: scripts/same_numbers.sh BASE_REV [OUT_DIR]}
root=$(git rev-parse --show-toplevel)
out=${2:-$(mktemp -d)}
src=$(mktemp -d)
trap 'rm -rf "$src"' EXIT

experiments="e2 e3 e4 e10 e12 e15 e16 e17 e18 e19 e20 e21"
lanes="deadlock-check repl paxos shard chaos health openloop"

mkdir -p "$src/base" "$out/base" "$out/head"
git -C "$root" archive "$base" | tar -x -C "$src/base"

# Host-time fields differ run to run; blank their values.
mask() {
  sed -E \
    -e 's/"(wall_s|events_per_sec_wall)": [0-9.e+-]+/"\1": _/g' \
    -e 's/in [0-9.]+s cpu = [0-9.]+ schedules\/s/in _s cpu = _ schedules\/s/'
}

run_side() {
  local dir=$1 dst=$2
  echo "== $dir"
  (cd "$dir" && dune build 2>&1)
  # Experiments write BENCH_*.json into the working directory and read
  # bench/baselines/ from it: run from a scratch copy of the tree root.
  (cd "$dir" && ./_build/default/bench/main.exe $experiments \
     >"$dst/bench.log" 2>&1; echo "exit $?" >"$dst/bench-exit.out") || true
  for e in $experiments; do
    mask <"$dir/BENCH_$e.json" >"$dst/BENCH_$e.json"
  done
  for lane in $lanes; do
    (cd "$dir" && bash scripts/ci_sweep.sh "$lane" 2>&1 \
       ; echo "exit $?") | mask >"$dst/lane-$lane.out"
  done
}

# The working tree is copied too, so neither side's BENCH files land in
# the repository checkout.
mkdir -p "$src/head"
(cd "$root" && git ls-files --cached --others --exclude-standard \
   | while IFS= read -r f; do
       if [ -e "$f" ]; then cp --parents "$f" "$src/head"; fi
     done)

run_side "$src/base" "$out/base"
run_side "$src/head" "$out/head"

status=0
for f in $(cd "$out/base" && ls BENCH_*.json *.out); do
  if diff -u "$out/base/$f" "$out/head/$f" >"$out/$f.diff"; then
    rm "$out/$f.diff"
    echo "same   $f"
  else
    echo "DIFFER $f (see $out/$f.diff)"
    status=1
  fi
done
echo "outputs in $out"
exit $status
