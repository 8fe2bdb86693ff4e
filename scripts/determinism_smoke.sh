#!/bin/sh
# Determinism smoke: run the CLI under two variants of one command and
# compare the outputs, for every row of the table below:
#   - every built-in fault model gives the same report at -j 1 and -j 4;
#   - the default model is byte-identical to --fault-model bitflip;
#   - bitflip and skip differ (a silently ignored --fault-model flag
#     would make them equal);
#   - `protect`, with and without --detectors, gives the same report and
#     Pareto JSON at -j 1 and -j 4.
# The Pareto JSON must also carry the front, both selections and the
# detectors, with zero benign fires. Also available as a dune alias:
# dune build @determinism-smoke
set -eu

fail() {
  echo "determinism_smoke.sh: $1" >&2
  exit 1
}

if [ -x bin/fastflip_cli.exe ]; then
  # Invoked by the dune rule: deps are staged in the action directory.
  FASTFLIP=bin/fastflip_cli.exe
else
  # Invoked by hand from a checkout.
  cd "$(dirname "$0")/.."
  dune build bin/fastflip_cli.exe
  FASTFLIP=_build/default/bin/fastflip_cli.exe
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

AN="analyze examples/pipeline.ff --samples 40"
PR="protect examples/pipeline.ff --samples 40"

# run TAG VARIANT: $FASTFLIP $cmd plus VARIANT's words into $WORK/TAG; a
# "%" word stands for the run's own file, $WORK/TAG.json. The "wrote
# pareto front to PATH" line names that file, so it is dropped.
run() {
  args=
  for w in $2; do
    case $w in
    %) args="$args $WORK/$1.json" ;;
    *) args="$args $w" ;;
    esac
  done
  "$FASTFLIP" $cmd $args >"$WORK/$1.out" 2>"$WORK/$1.err" || {
    cat "$WORK/$1.err" >&2
    fail "$label: $FASTFLIP $cmd $args failed"
  }
  sed '/^wrote pareto front/d' "$WORK/$1.out" >"$WORK/$1"
}

# LABEL | COMMAND | VARIANT A | = or != | VARIANT B
rows=$WORK/rows
cat >"$rows" <<EOF
j/bitflip | $AN --fault-model bitflip | -j 1 | = | -j 4
j/bitflip:4 | $AN --fault-model bitflip:4 | -j 1 | = | -j 4
j/skip | $AN --fault-model skip | -j 1 | = | -j 4
j/opcode | $AN --fault-model opcode | -j 1 | = | -j 4
j/memflip | $AN --fault-model memflip | -j 1 | = | -j 4
j/memflip:2 | $AN --fault-model memflip:2 | -j 1 | = | -j 4
default-is-bitflip | $AN | -j 2 | = | --fault-model bitflip -j 1
bitflip-vs-skip | $AN -j 1 | --fault-model bitflip | != | --fault-model skip
j/protect-detectors | $PR --detectors | --pareto % -j 1 | = | --pareto % -j 4
j/protect | $PR | -j 1 | = | -j 4
EOF

n=0
while IFS='|' read -r label cmd a rel b; do
  label=$(echo $label) a=$(echo $a) b=$(echo $b)
  tag=$(echo "$label" | tr '/:' '__')
  run "$tag.a" "$a"
  run "$tag.b" "$b"
  case $rel in
  *!=*)
    if cmp -s "$WORK/$tag.a" "$WORK/$tag.b"; then
      fail "$label: [$a] and [$b] give the same output"
    fi
    ;;
  *)
    diff -u "$WORK/$tag.a" "$WORK/$tag.b" >&2 \
      || fail "$label: [$a] and [$b] diverge"
    if [ -e "$WORK/$tag.a.json" ]; then
      cmp "$WORK/$tag.a.json" "$WORK/$tag.b.json" >&2 \
        || fail "$label: the exported JSON diverges between [$a] and [$b]"
    fi
    ;;
  esac
  n=$((n + 1))
done <"$rows"

# The exported front must be well-formed, and synthesis validation must
# have dropped every benign-firing candidate.
json=$WORK/j_protect-detectors.a.json
[ -s "$json" ] || fail "pareto JSON missing or empty"
tail -c 3 "$json" | grep -q '}' || fail "pareto JSON truncated"
for key in '"front"' '"pure_front"' '"mixed"' '"pure"' '"detectors"'; do
  grep -q "$key" "$json" || fail "pareto JSON has no $key key"
done
grep -q '"fp_fires": 0' "$json" \
  || fail "surviving detectors fire on benign runs (fp_fires != 0)"

echo "determinism smoke: OK ($n rows, pareto front well-formed, zero benign fires)"
