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
# every scripts/ci_sweep.sh lane, the CI load smoke
#
#   locusctl load --seed 42 --scenario flash-partition
#
# the other locusctl smokes (the deadlock one is the deadlock-check lane)
#
#   locusctl health --seed 42 --out FILE --series-out FILE
#   locusctl top --seed 42
#   locusctl trace-export --seed 7 --out FILE
#   locusctl metrics --seed 7 --out FILE
#
# and each benchmark workload
#
#   bash benchmark/run.sh --workload W --seed 1 --seconds 2 --trace 0
#
# then diffs the BENCH_*.json files, the lane outputs, the load JSON, the
# smokes' files, printouts and exit codes and, for the benchmark, its
# "correct" and "failed" fields and every metric row on the virtual
# clock. Only host-time fields are masked: e21's "wall_s" and
# "events_per_sec_wall", and the explorer's cpu-seconds and schedules/s.
# Everything else is simulated and must match byte for byte. Each side's
# raw outputs and exit codes stay in OUT_DIR (default: a fresh temp dir,
# printed at the end). Exits 1 if anything differs.
# It runs benchmark/ from each side's copy and changes nothing in either
# tree.
#
# A full run takes about two minutes (every lane and workload twice): run
# it on a quiet machine.

set -eu

base=${1:?usage: scripts/same_numbers.sh BASE_REV [OUT_DIR]}
root=$(git rev-parse --show-toplevel)
out=${2:-$(mktemp -d)}
src=$(mktemp -d)
trap 'rm -rf "$src"' EXIT

experiments="e2 e3 e4 e10 e12 e15 e16 e17 e18 e19 e20 e21"
lanes="deadlock-check repl paxos shard chaos health openloop"
workloads="ladder hotspot sweep audit"

mkdir -p "$src/base" "$out/base" "$out/head"
git -C "$root" archive "$base" | tar -x -C "$src/base"

# Host-time fields differ run to run; blank their values.
mask() {
  sed -E \
    -e 's/"(wall_s|events_per_sec_wall)": [0-9.e+-]+/"\1": _/g' \
    -e 's/in [0-9.]+s cpu = [0-9.]+ schedules\/s/in _s cpu = _ schedules\/s/'
}

# The benchmark's simulated results: the "correct" and "failed" fields
# of its JSON line and every metric row whose clock column reads virtual.
virtual_rows() {
  sed -nE \
    -e '/^[^ ]+ +[^ ]+ +[^ ]+ +virtual/p' -e '/^exit /p' \
    -e 's/^\{"correct": ([a-z]+), "attempted": [0-9]+, "failed": ([0-9]+).*/correct \1 failed \2/p'
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
  (cd "$dir" && ./_build/default/bin/locusctl.exe load --seed 42 \
     --scenario flash-partition --out "$dst/load.json" >/dev/null 2>&1 \
     ; echo "exit $?") >"$dst/load-exit.out"
  local ctl=./_build/default/bin/locusctl.exe
  (cd "$dir" && $ctl health --seed 42 --out "$dst/health.json" \
     --series-out "$dst/health-series.json" 2>&1; echo "exit $?") \
    >"$dst/health.out"
  (cd "$dir" && $ctl top --seed 42 2>&1; echo "exit $?") >"$dst/top.out"
  (cd "$dir" && $ctl trace-export --seed 7 --out "$dst/trace.json" 2>&1 \
     ; echo "exit $?") >"$dst/trace.out"
  (cd "$dir" && $ctl metrics --seed 7 --out "$dst/metrics.json" 2>&1 \
     ; echo "exit $?") >"$dst/metrics.out"
  for w in $workloads; do
    (cd "$dir" && bash benchmark/run.sh --workload "$w" --seed 1 \
       --seconds 2 --trace 0 2>/dev/null; echo "exit $?") \
      | virtual_rows >"$dst/benchmark-$w.out"
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
for f in $(cd "$out/base" && ls *.json *.out); do
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
