#!/usr/bin/env bash
# Alternating A/B pairs: is the working tree faster than BASE_REV?
#
#   scripts/ab_pairs.sh BASE_REV WORKLOAD PAIRS [SECONDS] [SEED]
#
# Builds BASE_REV (exported with `git archive` into a temp dir) and a
# copy of the working tree, the way scripts/same_numbers.sh does, then
# runs PAIRS pairs of
#
#   bash benchmark/run.sh --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# (SECONDS defaults to BENCHMARK.json's run_seconds, SEED to 1), one run
# on each side per pair, alternating which side runs first. It prints
# every run's end-to-end metrics as they land, then per metric each
# side's median and quartiles (linear interpolation), the pairs the
# change won (ties count for neither; "better" is read from
# BENCHMARK.json) and whether a gain claim holds: the change wins at
# least 9 pairs in 10 and the medians differ, in the better direction,
# by more than the base's interquartile range. A run that exits non-zero
# or reports "correct": false is printed as FAILED.
#
# Each side runs benchmark/ from its own copy; neither tree is changed.
# Run it on a quiet machine: every pair is two full benchmark runs.

set -eu

usage="usage: scripts/ab_pairs.sh BASE_REV WORKLOAD PAIRS [SECONDS] [SEED]"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
root=$(git rev-parse --show-toplevel)
seconds=${4:-$(jq -r .run_seconds "$root/BENCHMARK.json")}
seed=${5:-1}
metrics=$(jq -r '.end_to_end[].name' "$root/BENCHMARK.json")
src=$(mktemp -d)
trap 'rm -rf "$src"' EXIT

mkdir -p "$src/base" "$src/head" "$src/runs"
: >"$src/runs/all"
git -C "$root" archive "$base" | tar -x -C "$src/base"
(cd "$root" && git ls-files --cached --others --exclude-standard \
   | while IFS= read -r f; do
       if [ -e "$f" ]; then cp --parents "$f" "$src/head"; fi
     done)
for side in base head; do
  (cd "$src/$side" && dune build --root . --display quiet ./benchmark/main.exe)
done

# One run: append "SIDE METRIC VALUE" lines to the run log and print
# the run's metrics on one line.
run() {
  local side=$1 pair=$2 line status=0
  line=$(cd "$src/$side" && bash benchmark/run.sh --workload "$workload" \
           --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null \
           | tail -n 1) || status=$?
  if [ "$status" -ne 0 ] || [ "$(jq -r .correct <<<"$line" 2>/dev/null)" != true ]; then
    printf 'pair %2d %-4s FAILED (exit %d)\n' "$pair" "$side" "$status"
    return
  fi
  printf 'pair %2d %-4s' "$pair" "$side"
  for m in $metrics; do
    v=$(jq -r --arg m "$m" '.metrics[$m].value // empty' <<<"$line")
    [ -n "$v" ] || continue
    echo "$side $m $pair $v" >>"$src/runs/all"
    printf ' %s=%.6g' "$m" "$v"
  done
  printf '\n'
}

for p in $(seq 1 "$pairs"); do
  if [ $((p % 2)) -eq 1 ]; then run base "$p"; run head "$p"
  else run head "$p"; run base "$p"; fi
done

echo
printf '%-22s %-5s %12s %12s %12s\n' metric side q1 median q3
for m in $metrics; do
  better=$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .better' \
             "$root/BENCHMARK.json")
  awk -v m="$m" -v better="$better" -v pairs="$pairs" '
    # Linear-interpolation quantile of the sorted array a[1..n].
    function q(a, n, p,   h, lo) {
      h = (n - 1) * p + 1; lo = int(h)
      return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function sort(a, n,   i, j, x) {
      for (i = 2; i <= n; i++) {
        x = a[i]
        for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
        a[j + 1] = x
      }
    }
    $2 == m { v[$1, $3] = $4; if ($1 == "base") b[++nb] = $4; else h[++nh] = $4 }
    END {
      if (nb == 0 || nh == 0) exit
      sort(b, nb); sort(h, nh)
      printf "%-22s %-5s %12.6g %12.6g %12.6g\n", m, "base", q(b, nb, .25), q(b, nb, .5), q(b, nb, .75)
      printf "%-22s %-5s %12.6g %12.6g %12.6g\n", m, "head", q(h, nh, .25), q(h, nh, .5), q(h, nh, .75)
      wins = 0; both = 0
      for (p = 1; p <= pairs; p++) {
        if (!(("base", p) in v) || !(("head", p) in v)) continue
        both++
        d = v["head", p] - v["base", p]
        if ((better == "higher" && d > 0) || (better == "lower" && d < 0)) wins++
      }
      gain = q(h, nh, .5) - q(b, nb, .5)
      if (better == "lower") gain = -gain
      iqr = q(b, nb, .75) - q(b, nb, .25)
      rel = q(b, nb, .5) != 0 ? 100 * gain / q(b, nb, .5) : 0
      printf "%-22s wins %d/%d, median gain %+.1f%% (%s is better), base IQR %.6g: gain claim %s\n",
        m, wins, both, rel, better, iqr,
        (both > 0 && wins >= 0.9 * both && gain > iqr) ? "holds" : "does not hold"
    }' "$src/runs/all"
done
