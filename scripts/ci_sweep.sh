#!/usr/bin/env bash
# One named CI sweep lane = one coherent slice of the explorer matrix.
#
# CI fans these out as a parallel `sweeps` matrix job (one lane per job,
# so a red lane is identifiable from the job list alone), and each lane
# runs verbatim on a laptop:
#
#   scripts/ci_sweep.sh openloop
#
# Every lane pairs its positive sweeps (1SR + liveness must hold) with
# the matching --break NAME inversion where one exists (the oracle must
# catch the seeded bug), so a lane going green means both directions
# were exercised.

set -eu

lane=${1:?usage: scripts/ci_sweep.sh <lane>   (lanes: deadlock-check repl paxos shard chaos health openloop)}

x() {
  echo "+ locusctl $*"
  dune exec bin/locusctl.exe -- "$@"
}

# An inversion that *succeeds* means the oracle slept through the seeded
# bug — that fails the lane.
must_fail() {
  if x "$@"; then
    echo "ci_sweep($lane): inverted self-test passed — oracle has no teeth" >&2
    exit 1
  fi
}

case "$lane" in
  deadlock-check)
    x deadlock --sites 3 --cycle 3 --expect-resolved
    x explore --seeds 50
    x explore --seeds 25 --sites 3 --fault-every 5
    must_fail explore --seeds 25 --break locks
    ;;
  repl)
    x explore --seeds 200 --sites 3 --replicas 2 --fault-every 5
    x explore --seeds 200 --sites 3 --replicas 2 --batch-window 500 --fault-every 5
    must_fail explore --seeds 25 --sites 3 --replicas 2 --break repl
    x repl-status --sites 3 --replicas 2 --crash-primary
    ;;
  paxos)
    x explore --seeds 200 --sites 3 --fault-every 3 --commit paxos --paxos-f 1
    x explore --seeds 200 --sites 5 --fault-every 3 --commit paxos --paxos-f 2
    must_fail explore --seeds 50 --sites 3 --fault-every 3 --commit paxos --paxos-f 1 --break paxos
    ;;
  shard)
    x explore --seeds 200 --sites 4 --shards 8 --fault-every 3
    x explore --seeds 200 --sites 5 --shards 8 --fault-every 3 --commit paxos --paxos-f 1
    x explore --seeds 25 --sites 32 --shards 32 --txns 8 --fault-every 5
    must_fail explore --seeds 40 --sites 4 --shards 8 --fault-every 2 --break shard
    x shard-status --sites 8 --rounds 6
    ;;
  chaos)
    x explore --seeds 200 --sites 3 --fault-every 5 --net-faults drop=0.05,dup=0.05,reorder=4
    x explore --seeds 200 --sites 3 --fault-every 5 --commit paxos --paxos-f 1 --net-faults drop=0.05,dup=0.05,reorder=4
    x explore --seeds 200 --sites 3 --shards 4 --fault-every 5 --net-faults drop=0.05,dup=0.05,reorder=4
    must_fail explore --seeds 200 --sites 3 --fault-every 5 --net-faults drop=0.05,dup=0.05,reorder=4 --break dedup
    ;;
  health)
    x explore --seeds 200 --sites 3 --health
    x explore --seeds 200 --sites 3 --fault-every 3 --health
    must_fail explore --seeds 50 --sites 3 --fault-every 3 --health --break health
    ;;
  openloop)
    # Open-loop specs: Poisson arrivals with a mid-makespan flash crowd,
    # Zipfian record popularity, the driver releasing each transaction
    # at its instant. The crash/partition rotation lands mid-load, and
    # --health arms the no-false-alarm + alarm-liveness oracles on every
    # seed. 1SR, no blocked participants, no health violations.
    x explore --seeds 200 --sites 3 --arrival 50 --fault-every 7 --health
    x explore --seeds 200 --sites 3 --arrival 120 --records 8 --fault-every 5
    # The checker must still have teeth under open-loop release.
    must_fail explore --seeds 25 --arrival 50 --break locks
    # Long histories: 1024 transactions per seed over Zipfian records,
    # tens of thousands of conflict edges for the checker to build and
    # search, in both directions.
    x explore --seeds 4 --sites 3 --txns 1024 --ops 4 --records 512 --arrival 2
    must_fail explore --seeds 2 --sites 3 --txns 1024 --ops 4 --records 512 --arrival 2 --break locks
    ;;
  *)
    echo "ci_sweep: unknown lane '$lane'" >&2
    exit 2
    ;;
esac

echo "ci_sweep: lane '$lane' OK"
