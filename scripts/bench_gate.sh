#!/bin/sh
# Bench gate: validate BENCH_*.json artifacts and enforce performance
# floors, so CI fails loudly when a bench silently degrades instead of
# uploading a quietly-regressed artifact.
#
#   scripts/bench_gate.sh [FILE...]
#
# With no arguments, gates every BENCH_*.json present in the repo root
# that it knows how to check. With arguments, gates exactly those files
# (each must exist). Checks per file:
#
#   BENCH_parallel.json  well-formed, no "identical": false, at least one
#                        phase with speedup > 1.0
#   BENCH_vm.json        well-formed, identical engines, campaign
#                        speedup >= 1.5
#   BENCH_prune.json     well-formed, all identical, aggregate
#                        speedup >= 1.0
#   BENCH_server.json    well-formed, identical responses, warm
#                        speedup > 1.0, cold_ms >= 10 x warm_p50_ms
#   BENCH_faults.json    well-formed, every fault model identical between
#                        serial and pooled runs, bitflip prover prunes
#                        >= 20% of classes, throughput above a sanity
#                        floor for every model
#   BENCH_store.json     well-formed, identical reload, incremental save
#                        >= 5x faster than a full rewrite, every save
#                        reflected in the persist.saves telemetry; with
#                        2+ cores two disjoint-shard writers must also
#                        beat serial (on 1 core only a no-pathological-
#                        serialization floor applies)
#   BENCH_detect.json    well-formed, protect runs identical between
#                        serial and pooled execution, zero benign
#                        false-positive fires, and on at least one
#                        benchmark the mixed detector+duplication plan
#                        reaches the protection target at strictly lower
#                        cost than pure duplication
#
# Prints one readable line per violation and exits nonzero if any check
# fails.
set -u

status=0
violation() {
  echo "bench_gate: $1" >&2
  status=1
}

# json_num FILE KEY: first numeric value of "KEY": N in FILE, or empty.
json_num() {
  sed -n 's/.*"'"$2"'"[[:space:]]*:[[:space:]]*\(-\{0,1\}[0-9][0-9.eE+-]*\).*/\1/p' \
    "$1" | head -n 1
}

well_formed() {
  f=$1
  if [ ! -s "$f" ]; then
    violation "$f: missing or empty"
    return 1
  fi
  if ! tail -c 3 "$f" | grep -q '}'; then
    violation "$f: truncated (does not end in '}')"
    return 1
  fi
  return 0
}

# require_floor FILE KEY OP FLOOR LABEL: the numeric KEY must exist and
# satisfy OP (awk comparison) against FLOOR.
require_floor() {
  f=$1 key=$2 op=$3 floor=$4 label=$5
  v=$(json_num "$f" "$key")
  if [ -z "$v" ]; then
    violation "$f: malformed, no numeric \"$key\""
    return
  fi
  if ! awk -v v="$v" -v floor="$floor" "BEGIN { exit !(v $op floor) }"; then
    violation "$f: $label: \"$key\" is $v, floor is $op $floor"
  fi
}

require_identical() {
  f=$1 label=$2
  if grep -q '"identical": false' "$f"; then
    violation "$f: $label"
  fi
  if ! grep -q '"identical": true' "$f"; then
    violation "$f: no \"identical\": true recorded"
  fi
}

gate_parallel() {
  f=$1
  well_formed "$f" || return
  grep -q '"phases"' "$f" || violation "$f: malformed, no \"phases\" key"
  grep -q '"tables"' "$f" || violation "$f: malformed, no \"tables\" key"
  require_identical "$f" "a parallel phase diverged from the serial run"
  # At least one phase must actually go faster than serial.
  best=$(sed -n 's/.*"speedup"[[:space:]]*:[[:space:]]*\([0-9][0-9.eE+-]*\).*/\1/p' "$f" |
    sort -g | tail -n 1)
  if [ -z "$best" ]; then
    violation "$f: malformed, no numeric \"speedup\""
  elif ! awk -v v="$best" "BEGIN { exit !(v > 1.0) }"; then
    violation "$f: parallel never beats serial: best phase speedup is $best, floor is > 1.0"
  fi
}

gate_vm() {
  f=$1
  well_formed "$f" || return
  grep -q '"engines"' "$f" || violation "$f: malformed, no \"engines\" key"
  require_identical "$f" "unboxed engine diverged from the boxed oracle"
  require_floor "$f" campaign_speedup ">=" 1.5 "unboxed engine regression"
}

gate_prune() {
  f=$1
  well_formed "$f" || return
  grep -q '"prune_ratio"' "$f" || violation "$f: malformed, no \"prune_ratio\" key"
  require_identical "$f" "prover-pruned campaign diverged from full replay"
  require_floor "$f" aggregate_speedup ">=" 1.0 "prover makes campaigns slower"
}

gate_server() {
  f=$1
  well_formed "$f" || return
  require_identical "$f" "daemon responses diverged from the one-shot CLI"
  require_floor "$f" warm_speedup ">" 1.0 "warm daemon state buys nothing"
  require_floor "$f" throughput_rps ">" 0 "no concurrent throughput recorded"
  # The warm p50 must sit at least 10x below the cold request (measured
  # ~50x). Checked on the raw latencies: the one-decimal warm_speedup
  # would round a 9.96x run up to 10.0.
  cold=$(json_num "$f" cold_ms)
  warm=$(json_num "$f" warm_p50_ms)
  if [ -z "$cold" ] || [ -z "$warm" ]; then
    violation "$f: malformed, no numeric \"cold_ms\"/\"warm_p50_ms\""
  elif ! awk -v c="$cold" -v w="$warm" 'BEGIN { exit !(c > 0 && w > 0 && c >= 10 * w) }'; then
    violation "$f: warm p50 ${warm}ms is not 10x below cold ${cold}ms"
  fi
}

gate_faults() {
  f=$1
  well_formed "$f" || return
  grep -q '"models"' "$f" || violation "$f: malformed, no \"models\" key"
  require_identical "$f" "a fault-model campaign diverged between serial and pooled runs"
  # The default register model must keep pruning; other models abstain
  # (ratio 0.0 is expected for skip/opcode/memflip), so only the bitflip
  # aggregate carries a floor.
  require_floor "$f" bitflip_prune_ratio ">=" 0.2 "bitflip prover stopped pruning"
  # Every model must sustain a sane replay rate; the floor is orders of
  # magnitude below observed throughput and only rejects pathologically
  # slow (or zero/missing) measurements.
  worst=$(sed -n 's/.*"throughput_sites_s"[[:space:]]*:[[:space:]]*\([0-9][0-9.eE+-]*\).*/\1/p' "$f" |
    sort -g | head -n 1)
  if [ -z "$worst" ]; then
    violation "$f: malformed, no numeric \"throughput_sites_s\""
  elif ! awk -v v="$worst" "BEGIN { exit !(v >= 1000) }"; then
    violation "$f: a fault model replays at $worst sites/s, floor is >= 1000"
  fi
}

gate_store() {
  f=$1
  well_formed "$f" || return
  require_identical "$f" "sharded store did not reload bit-identically"
  require_floor "$f" odirty_speedup ">=" 5.0 "incremental save is not O(dirty)"
  # The telemetry counter must have moved at least once per save the
  # bench performed (the bench itself fails hard on undercounting, so
  # here it is a malformed-artifact check).
  saves=$(json_num "$f" saves_counted)
  expected=$(json_num "$f" saves_expected)
  if [ -z "$saves" ] || [ -z "$expected" ]; then
    violation "$f: malformed, no numeric \"saves_counted\"/\"saves_expected\""
  elif [ "$(awk -v a="$saves" -v b="$expected" 'BEGIN { print (a >= b && b > 0) }')" != 1 ]; then
    violation "$f: persist.saves telemetry counted $saves of $expected saves"
  fi
  # Two writers on disjoint shards can only beat one-at-a-time when
  # there is a second core to run on; on a 1-core host the floor just
  # rejects pathological lock serialization (scaling far below 1).
  cores=$(json_num "$f" cores)
  if [ -n "$cores" ] && [ "$cores" -ge 2 ] 2>/dev/null; then
    require_floor "$f" writer_scaling ">" 1.0 "disjoint-shard writers do not scale"
  else
    require_floor "$f" writer_scaling ">" 0.5 "disjoint-shard writers serialize each other"
  fi
}

gate_detect() {
  f=$1
  well_formed "$f" || return
  grep -q '"benches"' "$f" || violation "$f: malformed, no \"benches\" key"
  require_identical "$f" "a protect run diverged between serial and pooled execution"
  # Detectors are validated to fire on zero benign runs; any recorded
  # false positive means the synthesis validation phase is broken.
  require_floor "$f" fp_fires "<=" 0 "detectors fire on benign runs"
  # The whole point of the subsystem: on at least one benchmark the
  # mixed plan must reach the protection target cheaper than pure
  # duplication.
  if ! grep -q '"detector_win": true' "$f"; then
    violation "$f: detectors never beat pure duplication at the target on any benchmark"
  fi
}

gate_one() {
  case $(basename "$1") in
  BENCH_parallel.json) gate_parallel "$1" ;;
  BENCH_vm.json) gate_vm "$1" ;;
  BENCH_prune.json) gate_prune "$1" ;;
  BENCH_server.json) gate_server "$1" ;;
  BENCH_faults.json) gate_faults "$1" ;;
  BENCH_store.json) gate_store "$1" ;;
  BENCH_detect.json) gate_detect "$1" ;;
  *) violation "$1: no gate known for this file" ;;
  esac
}

if [ $# -gt 0 ]; then
  for f in "$@"; do
    gate_one "$f"
  done
else
  cd "$(dirname "$0")/.."
  found=0
  for f in BENCH_parallel.json BENCH_vm.json BENCH_prune.json BENCH_server.json BENCH_faults.json BENCH_store.json BENCH_detect.json; do
    if [ -e "$f" ]; then
      found=1
      gate_one "$f"
    fi
  done
  [ "$found" -eq 1 ] || violation "no BENCH_*.json artifacts found to gate"
fi

if [ "$status" -eq 0 ]; then
  echo "bench_gate: ok (all artifacts well-formed, all floors hold)"
fi
exit "$status"
