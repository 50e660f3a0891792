#!/usr/bin/env bash
# CI perf-regression gate for the deterministic benchmarks.
#
# Two layers of checks over the BENCH_<exp>.json files the harness drops
# in the working directory:
#
#   1. Baseline comparison: every metric's p50 virtual latency must stay
#      within TOLERANCE_PCT of the committed bench/baselines/ copy, and
#      throughput must not fall more than TOLERANCE_PCT below it. The
#      simulation is deterministic, so drift means the commit changed
#      the protocol's work — refresh the baseline deliberately (see
#      HACKING.md) if the change is intended.
#
#   2. e16 self-contained ratios: with a non-zero batch window the run
#      must show >= MIN_FORCE_RATIO fewer coordinator-log forces and
#      >= MIN_MSG_RATIO fewer per-commit messages than window 0. This is
#      what makes the gate fire when batching silently stops working
#      (CI proves it by re-running e16 under LOCUS_BREAK=batch and
#      asserting this script fails).
#
#   3. e19 self-contained checks: over the lossy network every run must
#      still land all of its commits (exactly-once held), the non-zero
#      drop rows must show faults actually injected AND reply-cache
#      hits absorbing the resulting duplicates, and the lossy rows must
#      cost more messages per commit than the clean row. CI proves the
#      oracle side with the explorer's --break dedup inversion.
#
#   4. e18 self-contained ratios: dynamic lock placement must actually
#      collapse the hot-key round trips — the placement-on row needs a
#      local-hit ratio >= MIN_LOCAL_HIT (with the off row staying below
#      MAX_STATIC_HIT), at least one migration, and a lock p50 no more
#      than E18_P50_FRACTION of the static row's. CI proves the gate
#      fires by re-running e18 under LOCUS_BREAK=shard (the owner
#      keeps granting at its superseded epoch) and asserting this
#      script fails.
#
#   5. e21 self-contained checks: the open-loop ladder must show both
#      sides of the saturation knee on the virtual clock (a sub-knee row
#      where completed == offered, and a saturated row whose sustained
#      rate sits well below its offered rate), nothing may be shed, and
#      the engine's host dispatch rate (events_per_sec_wall, the one
#      machine-dependent number in any BENCH json) must clear the
#      MIN_WALL_EPS floor. CI proves the floor has teeth by re-running
#      e21 under LOCUS_BREAK=load — an O(queue) scan per dispatched
#      event that leaves every virtual metric byte-identical while the
#      wall rate collapses ~25x — and asserting this script fails.
#
#   6. e20 self-contained checks: the health plane must be free on the
#      virtual clock — the health-on row's p50 must sit within
#      TOLERANCE_PCT of the health-off row (the sampler consumes no
#      virtual time, so they are byte-identical in practice) with
#      windows actually closing and zero alarms on the clean loop — and
#      the stranded-coordinator scenario must raise in_doubt_age within
#      MAX_ALARM_WINDOWS window closes of the age-threshold crossing.
#      CI proves the oracle side with the explorer's --break health
#      inversion.
#
# Usage: scripts/bench_gate.sh [exp ...]   (default: e2 e4 e15 e16 e17 e18 e19 e20 e21)

set -u

TOLERANCE_PCT=${TOLERANCE_PCT:-10}
MIN_FORCE_RATIO=${MIN_FORCE_RATIO:-2.0}
MIN_MSG_RATIO=${MIN_MSG_RATIO:-1.5}
MIN_LOCAL_HIT=${MIN_LOCAL_HIT:-0.6}
MAX_STATIC_HIT=${MAX_STATIC_HIT:-0.2}
E18_P50_FRACTION=${E18_P50_FRACTION:-0.6}
MAX_ALARM_WINDOWS=${MAX_ALARM_WINDOWS:-2}
# Host-dispatch floor for e21 (events per wall second). ~measured/5 on
# the reference machine: generous enough for slow CI runners, far above
# the ~25x collapse LOCUS_BREAK=load inflicts.
MIN_WALL_EPS=${MIN_WALL_EPS:-100000}
BASELINES=${BASELINES:-bench/baselines}
EXPS=("${@:-e2 e4 e15 e16 e17 e18 e19 e20 e21}")
[ $# -eq 0 ] && EXPS=(e2 e4 e15 e16 e17 e18 e19 e20 e21)

fail=0

note() { printf '%s\n' "$*"; }
bad() {
  printf 'GATE FAIL: %s\n' "$*" >&2
  fail=1
}

compare_baseline() {
  local exp=$1 cur=BENCH_$1.json base=$BASELINES/BENCH_$1.json
  if [ ! -f "$cur" ]; then
    bad "$cur missing (did the bench run?)"
    return
  fi
  if [ ! -f "$base" ]; then
    bad "$base missing (commit a baseline for $exp)"
    return
  fi
  local labels
  labels=$(jq -r '.metrics[].label' "$base")
  while IFS= read -r label; do
    local bp50 cp50 bops cops
    bp50=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .p50_virtual_us' "$base")
    cp50=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .p50_virtual_us' "$cur")
    bops=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .ops_per_sec' "$base")
    cops=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .ops_per_sec' "$cur")
    if [ -z "$cp50" ] || [ "$cp50" = "null" ]; then
      bad "$exp: metric '$label' vanished from $cur"
      continue
    fi
    # p50 latency within +/- tolerance of baseline (0 baseline: must stay 0).
    if ! jq -n --argjson b "$bp50" --argjson c "$cp50" --argjson t "$TOLERANCE_PCT" \
        'if $b == 0 then $c == 0 else (($c - $b) | if . < 0 then -. else . end) * 100 <= $t * $b end' \
        | grep -q true; then
      bad "$exp '$label': p50 ${cp50}us vs baseline ${bp50}us (>${TOLERANCE_PCT}% drift)"
    fi
    # Throughput must not regress below tolerance (improvement is fine).
    if ! jq -n --argjson b "$bops" --argjson c "$cops" --argjson t "$TOLERANCE_PCT" \
        '$c * 100 >= $b * (100 - $t)' | grep -q true; then
      bad "$exp '$label': throughput $cops ops/s vs baseline $bops (-${TOLERANCE_PCT}% floor)"
    fi
  done <<<"$labels"
  note "gate: $exp within ${TOLERANCE_PCT}% of baseline"
}

check_e16_ratios() {
  local cur=BENCH_e16.json
  [ -f "$cur" ] || { bad "$cur missing"; return; }
  local f0 m0
  f0=$(jq -r '.metrics[] | select(.window_us == 0) | .coord_forces' "$cur")
  m0=$(jq -r '.metrics[] | select(.window_us == 0) | .msgs_per_commit' "$cur")
  local windows
  windows=$(jq -r '.metrics[] | select(.window_us > 0) | .window_us' "$cur")
  local any_force=1 any_msg=1
  while IFS= read -r w; do
    local fw mw
    fw=$(jq -r --argjson w "$w" '.metrics[] | select(.window_us == $w) | .coord_forces' "$cur")
    mw=$(jq -r --argjson w "$w" '.metrics[] | select(.window_us == $w) | .msgs_per_commit' "$cur")
    if jq -n --argjson b "$f0" --argjson c "$fw" --argjson r "$MIN_FORCE_RATIO" \
        '$c > 0 and $b >= $r * $c' | grep -q true; then
      any_force=0
    fi
    if jq -n --argjson b "$m0" --argjson c "$mw" --argjson r "$MIN_MSG_RATIO" \
        '$c > 0 and $b >= $r * $c' | grep -q true; then
      any_msg=0
    fi
    note "gate: e16 window ${w}us: coord forces $fw (window 0: $f0), msgs/commit $mw (window 0: $m0)"
  done <<<"$windows"
  [ "$any_force" -eq 0 ] ||
    bad "e16: no window achieves >= ${MIN_FORCE_RATIO}x fewer coordinator-log forces than window 0"
  [ "$any_msg" -eq 0 ] ||
    bad "e16: no window achieves >= ${MIN_MSG_RATIO}x fewer per-commit messages than window 0"
}

check_e18_ratios() {
  local cur=BENCH_e18.json
  [ -f "$cur" ] || { bad "$cur missing"; return; }
  local off_hit on_hit off_p50 on_p50 migrations
  off_hit=$(jq -r '.metrics[] | select(.label == "placement off") | .local_hit_ratio' "$cur")
  on_hit=$(jq -r '.metrics[] | select(.label | startswith("placement on")) | .local_hit_ratio' "$cur")
  off_p50=$(jq -r '.metrics[] | select(.label == "placement off") | .p50_virtual_us' "$cur")
  on_p50=$(jq -r '.metrics[] | select(.label | startswith("placement on")) | .p50_virtual_us' "$cur")
  migrations=$(jq -r '.metrics[] | select(.label | startswith("placement on")) | .migrations' "$cur")
  note "gate: e18 local-hit $on_hit (static: $off_hit), lock p50 ${on_p50}us (static: ${off_p50}us), migrations $migrations"
  jq -n --argjson h "$on_hit" --argjson m "$MIN_LOCAL_HIT" '$h >= $m' | grep -q true ||
    bad "e18: placement-on local-hit ratio $on_hit below ${MIN_LOCAL_HIT} floor"
  jq -n --argjson h "$off_hit" --argjson m "$MAX_STATIC_HIT" '$h <= $m' | grep -q true ||
    bad "e18: placement-off local-hit ratio $off_hit above ${MAX_STATIC_HIT} (workload not remote?)"
  jq -n --argjson m "$migrations" '$m >= 1' | grep -q true ||
    bad "e18: no ownership migration happened"
  jq -n --argjson on "$on_p50" --argjson off "$off_p50" --argjson f "$E18_P50_FRACTION" \
      '$on <= $off * $f' | grep -q true ||
    bad "e18: lock p50 ${on_p50}us did not collapse below ${E18_P50_FRACTION}x the static ${off_p50}us"
}

check_e19_ratios() {
  local cur=BENCH_e19.json
  [ -f "$cur" ] || { bad "$cur missing"; return; }
  local clean_commits clean_msgs
  clean_commits=$(jq -r '.metrics[] | select(.label | startswith("clean")) | .commits' "$cur")
  clean_msgs=$(jq -r '.metrics[] | select(.label | startswith("clean")) | .msgs_per_commit' "$cur")
  local labels
  labels=$(jq -r '.metrics[] | select(.label | startswith("drop")) | .label' "$cur")
  while IFS= read -r label; do
    local commits faults hits msgs
    commits=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .commits' "$cur")
    faults=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .drops + .dups' "$cur")
    hits=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .dedup_hits' "$cur")
    msgs=$(jq -r --arg l "$label" '.metrics[] | select(.label == $l) | .msgs_per_commit' "$cur")
    note "gate: e19 '$label': commits $commits (clean: $clean_commits), faults $faults, dedup hits $hits, msgs/commit $msgs (clean: $clean_msgs)"
    jq -n --argjson c "$commits" --argjson b "$clean_commits" '$c == $b' | grep -q true ||
      bad "e19 '$label': $commits commits landed vs $clean_commits clean — loss broke exactly-once or liveness"
    jq -n --argjson f "$faults" '$f >= 1' | grep -q true ||
      bad "e19 '$label': no faults injected (chaos layer not armed?)"
    jq -n --argjson h "$hits" '$h >= 1' | grep -q true ||
      bad "e19 '$label': reply cache never hit — duplicates were re-executed or never produced"
    jq -n --argjson m "$msgs" --argjson b "$clean_msgs" '$m > $b' | grep -q true ||
      bad "e19 '$label': msgs/commit $msgs not above the clean row's $clean_msgs (faults free?)"
  done <<<"$labels"
}

check_e20_health() {
  local cur=BENCH_e20.json
  [ -f "$cur" ] || { bad "$cur missing"; return; }
  local off_p50 on_p50 on_windows off_alarms on_alarms
  off_p50=$(jq -r '.metrics[] | select(.label == "health off") | .p50_virtual_us' "$cur")
  on_p50=$(jq -r '.metrics[] | select(.label | startswith("health on")) | .p50_virtual_us' "$cur")
  on_windows=$(jq -r '.metrics[] | select(.label | startswith("health on")) | .windows' "$cur")
  off_alarms=$(jq -r '.metrics[] | select(.label == "health off") | .alarms' "$cur")
  on_alarms=$(jq -r '.metrics[] | select(.label | startswith("health on")) | .alarms' "$cur")
  note "gate: e20 p50 on ${on_p50}us vs off ${off_p50}us, ${on_windows} windows, alarms off/on $off_alarms/$on_alarms"
  # Observation must be free on the virtual clock (within the tolerance,
  # identical in practice).
  jq -n --argjson b "$off_p50" --argjson c "$on_p50" --argjson t "$TOLERANCE_PCT" \
      'if $b == 0 then $c == 0 else (($c - $b) | if . < 0 then -. else . end) * 100 <= $t * $b end' \
      | grep -q true ||
    bad "e20: health-on p50 ${on_p50}us drifts >${TOLERANCE_PCT}% from health-off ${off_p50}us"
  jq -n --argjson w "$on_windows" '$w >= 1' | grep -q true ||
    bad "e20: health on but no sampler window ever closed"
  jq -n --argjson a "$off_alarms" --argjson b "$on_alarms" '$a == 0 and $b == 0' | grep -q true ||
    bad "e20: watchdog raised alarms on the clean overhead loop (false alarms)"
  # The stranded-coordinator scenario: alarm fired, participants were
  # really blocked, and the raise landed within the window budget.
  local lat alarm_at blocked
  lat=$(jq -r '.metrics[] | select(.label == "in_doubt_age alarm") | .alarm_latency_windows' "$cur")
  alarm_at=$(jq -r '.metrics[] | select(.label == "in_doubt_age alarm") | .alarm_at_us' "$cur")
  blocked=$(jq -r '.metrics[] | select(.label == "in_doubt_age alarm") | .blocked_participants' "$cur")
  note "gate: e20 in_doubt_age alarm latency ${lat} windows (blocked participants: $blocked)"
  jq -n --argjson a "$alarm_at" '$a >= 0' | grep -q true ||
    bad "e20: in_doubt_age alarm never fired on the stranded-coordinator scenario"
  jq -n --argjson b "$blocked" '$b >= 1' | grep -q true ||
    bad "e20: no participant ended blocked in-doubt (scenario lost its teeth)"
  jq -n --argjson l "$lat" --argjson m "$MAX_ALARM_WINDOWS" '$l >= 0 and $l <= $m' | grep -q true ||
    bad "e20: alarm latency ${lat} windows outside [0, ${MAX_ALARM_WINDOWS}]"
}

check_e21_load() {
  local cur=BENCH_e21.json
  [ -f "$cur" ] || { bad "$cur missing"; return; }
  # Virtual side: the ladder must show both sides of the knee, with
  # every arrival either completed or aborted (never silently shed).
  local subknee saturated shed
  subknee=$(jq -r '[.metrics[] | select(.label | startswith("rate"))
                    | select(.completed == .offered)] | length' "$cur")
  saturated=$(jq -r '[.metrics[] | select(.label | startswith("rate"))
                      | select(.ops_per_sec * 2 < .offered_per_sec)] | length' "$cur")
  shed=$(jq -r '[.metrics[] | select(.label | startswith("rate")) | .shed] | add' "$cur")
  note "gate: e21 ladder: $subknee sub-knee row(s), $saturated saturated row(s), $shed shed"
  jq -n --argjson s "$subknee" '$s >= 1' | grep -q true ||
    bad "e21: no ladder row completed everything it was offered (knee below the lowest rate?)"
  jq -n --argjson s "$saturated" '$s >= 1' | grep -q true ||
    bad "e21: no ladder row saturated (sustained < offered/2) — the ladder no longer crosses the knee"
  jq -n --argjson s "$shed" '$s == 0' | grep -q true ||
    bad "e21: $shed arrivals shed on a fault-free ladder"
  # Host side: the engine must dispatch fast enough to be the harness
  # rather than the bottleneck. Machine-dependent, hence only a floor.
  local eps
  eps=$(jq -r '.metrics[] | select(.label == "engine speed") | .events_per_sec_wall' "$cur")
  note "gate: e21 engine dispatch $eps events/s wall (floor: $MIN_WALL_EPS)"
  jq -n --argjson e "$eps" --argjson m "$MIN_WALL_EPS" '$e >= $m' | grep -q true ||
    bad "e21: engine dispatch $eps events/s below the ${MIN_WALL_EPS} floor"
}

for exp in ${EXPS[@]+"${EXPS[@]}"}; do
  # Word-split the default "e4 e15 e16" string form.
  for e in $exp; do
    compare_baseline "$e"
    [ "$e" = e16 ] && check_e16_ratios
    [ "$e" = e18 ] && check_e18_ratios
    [ "$e" = e19 ] && check_e19_ratios
    [ "$e" = e20 ] && check_e20_health
    [ "$e" = e21 ] && check_e21_load
  done
done

if [ "$fail" -ne 0 ]; then
  echo "bench gate: FAILED" >&2
  exit 1
fi
echo "bench gate: OK"
