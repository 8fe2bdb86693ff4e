#!/bin/sh
# Sharded-store crash smoke: run the CLI analysis once for reference,
# run it again and SIGKILL it mid-save (the FF_PERSIST_KILL_AFTER hook
# kills the process right after a shard-log write reaches the disk,
# before the manifest declares it — the worst-timed real kill), then
# verify the torn store salvages: `store stat` still reads it, and a
# rerun reuses the salvaged sections and produces an analysis identical
# to the uninterrupted run. Exercised at 1 and 4 domains.
# Also available as a dune alias: dune build @store-smoke
set -eu

fail() {
  echo "store_smoke.sh: $1" >&2
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

# The lines that legitimately differ between a cold run and a resumed
# one (load/save banners, reuse and work accounting) are dropped; every
# other line — the SDC specification, the value/cost tables, the
# selection — must match exactly.
normalize() {
  sed "s#$WORK/[a-z]*\.store#STORE#g" "$1" |
    grep -v '^loaded [0-9]* section records' |
    grep -v '^saved [0-9]* section records' |
    grep -v '^sections reused from the store:' |
    grep -v '^injection + sensitivity work:'
}

for j in 1 4; do
  ARGS="analyze examples/pipeline.ff --samples 40 -j $j"

  # 1. Uninterrupted reference run.
  $FASTFLIP $ARGS --store "$WORK/ref.store" >"$WORK/ref.out" 2>/dev/null \
    || fail "-j $j: reference run failed"

  # 2. Fresh-store run, SIGKILLed right after the 2nd durable shard-log
  #    write — shard data is on disk, the manifest never was.
  status=0
  FF_PERSIST_KILL_AFTER=2 $FASTFLIP $ARGS --store "$WORK/crash.store" \
    >/dev/null 2>&1 || status=$?
  [ "$status" -ne 0 ] || fail "-j $j: killed run exited 0 (kill hook did not fire)"
  [ ! -e "$WORK/crash.store" ] \
    || fail "-j $j: manifest exists; kill landed after the save finished"
  [ -s "$WORK/crash.store.s00" ] || fail "-j $j: no shard log survived the kill"

  # 3. The torn store is still inspectable: stat salvages from the logs.
  $FASTFLIP store stat "$WORK/crash.store" >"$WORK/stat.out" 2>/dev/null \
    || fail "-j $j: store stat refused the torn store"
  grep -q 'FFSTORE4' "$WORK/stat.out" \
    || fail "-j $j: stat did not identify the salvaged layout"

  # 4. Rerun on the torn store: the salvaged section records are reused
  #    (not recomputed), the save completes, and the analysis matches
  #    the uninterrupted run exactly.
  $FASTFLIP $ARGS --store "$WORK/crash.store" \
    >"$WORK/resumed.out" 2>"$WORK/resume.err" || fail "-j $j: resumed run failed"
  grep -q '^sections reused from the store: [1-9]' "$WORK/resumed.out" \
    || fail "-j $j: resume did not reuse any salvaged section"
  normalize "$WORK/ref.out" >"$WORK/ref.norm"
  normalize "$WORK/resumed.out" >"$WORK/resumed.norm"
  diff -u "$WORK/ref.norm" "$WORK/resumed.norm" \
    || fail "-j $j: resumed analysis differs from the uninterrupted run"

  # 5. After the clean finish the store is whole again.
  $FASTFLIP store stat "$WORK/crash.store" >"$WORK/stat2.out" 2>/dev/null \
    || fail "-j $j: store stat failed after resume"
  grep -q '^records:    3 live' "$WORK/stat2.out" \
    || fail "-j $j: resumed store is not whole"

  rm -f "$WORK"/ref.store* "$WORK"/crash.store* "$WORK"/*.out "$WORK"/*.norm
done

echo "store smoke: OK (killed mid-save, salvaged, resumed bit-identical at -j 1 and -j 4)"
