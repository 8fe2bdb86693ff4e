#!/bin/sh
# Sharded-store crash smoke: run the CLI analysis once for reference,
# run it again and SIGKILL it mid-save (the FF_PERSIST_KILL_AFTER hook
# kills the process right after a shard-log write reaches the disk,
# before the manifest declares it — the worst-timed real kill), then
# verify the torn store salvages: `store stat` still reads it, and a
# rerun reuses the salvaged sections and produces an analysis identical
# to the uninterrupted run. A daemon that loaded the torn store before
# the rerun saved then saves the same sections again, leaving dead
# frames; SIGKILL `store compact` on that store right after each of its
# writes: every killed store must still read whole, and a rerun on it
# must match the uninterrupted run.
# Exercised at 1 and 4 domains.
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
SOCK="$WORK/serve.sock"
SERVER_PID=
cleanup() {
  [ -z "$SERVER_PID" ] || kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

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

  # 4. A daemon loads the torn store before the rerun below saves it
  #    (step 6 has it save too).
  $FASTFLIP serve "$SOCK" --store "$WORK/crash.store" -j $j >/dev/null 2>&1 &
  SERVER_PID=$!
  tries=0
  while [ ! -S "$SOCK" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "-j $j: daemon did not create $SOCK within 10s"
    kill -0 "$SERVER_PID" 2>/dev/null || fail "-j $j: daemon died on startup"
    sleep 0.1
  done

  #    Rerun on the torn store: the salvaged section records are reused
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

  # 5. After the clean finish the store is whole again, at the default
  #    width whatever number of logs the killed save left.
  $FASTFLIP store stat "$WORK/crash.store" >"$WORK/stat2.out" 2>/dev/null \
    || fail "-j $j: store stat failed after resume"
  grep -q '^records:    3 live' "$WORK/stat2.out" \
    || fail "-j $j: resumed store is not whole"
  grep -q '^shards:     16$' "$WORK/stat2.out" \
    || fail "-j $j: resumed store is not at the default width"

  # 6. Dead frames as racing writers leave them: the daemon, which loaded
  #    the store before the rerun saved, analyzes the same program and at
  #    shutdown appends the sections the rerun saved once more, declared
  #    in the manifest.
  $FASTFLIP query "$SOCK" examples/pipeline.ff --samples 40 >/dev/null \
    || fail "-j $j: query failed"
  $FASTFLIP shutdown "$SOCK" >/dev/null || fail "-j $j: shutdown failed"
  wait "$SERVER_PID" || fail "-j $j: daemon exited non-zero"
  SERVER_PID=
  $FASTFLIP store stat "$WORK/crash.store" >"$WORK/stat3.out" 2>/dev/null \
    || fail "-j $j: store stat failed on the store with dead frames"
  grep -q '^records:    3 live, [1-9] dead' "$WORK/stat3.out" \
    || fail "-j $j: the daemon's save left no dead frame to compact"

  # 7. Kill `store compact` on a copy of that store right after its k-th
  #    write, for every k until the compaction finishes: the killed store
  #    must read 3 live records and no skipped region, --strict-store must
  #    accept it, and the rerun must match the uninterrupted run.
  k=1
  while :; do
    rm -f "$WORK"/kill.store*
    for f in "$WORK"/crash.store "$WORK"/crash.store.s[0-9][0-9]; do
      cp "$f" "$WORK/kill.store${f#"$WORK"/crash.store}"
    done
    status=0
    FF_PERSIST_KILL_AFTER=$k $FASTFLIP store compact "$WORK/kill.store" \
      >/dev/null 2>&1 || status=$?
    [ "$status" -eq 0 ] || [ "$status" -eq 137 ] \
      || fail "-j $j: store compact exited $status"
    $FASTFLIP store stat "$WORK/kill.store" >"$WORK/stat4.out" 2>/dev/null \
      || fail "-j $j: store stat refused the store compact killed after $k write(s)"
    grep -q '^records:    3 live' "$WORK/stat4.out" \
      || fail "-j $j: store compact killed after $k write(s) lost records"
    ! grep -q '^skipped:' "$WORK/stat4.out" \
      || fail "-j $j: store compact killed after $k write(s) left a skipped region"
    $FASTFLIP $ARGS --store "$WORK/kill.store" --strict-store >"$WORK/rerun.out" \
      2>/dev/null || fail "-j $j: rerun on the store compact killed after $k write(s) failed"
    normalize "$WORK/rerun.out" >"$WORK/rerun.norm"
    diff -u "$WORK/ref.norm" "$WORK/rerun.norm" \
      || fail "-j $j: rerun after store compact killed after $k write(s) differs"
    [ "$status" -ne 0 ] || break
    [ "$k" -lt 64 ] || fail "-j $j: store compact never finished"
    k=$((k + 1))
  done
  [ "$k" -gt 2 ] || fail "-j $j: no kill landed inside store compact"
  grep -q '^records:    3 live, 0 dead' "$WORK/stat4.out" \
    || fail "-j $j: the finished compaction left dead frames"

  rm -f "$WORK"/ref.store* "$WORK"/crash.store* "$WORK"/kill.store* "$WORK"/*.out \
    "$WORK"/*.norm
done

echo "store smoke: OK (killed mid-save and mid-compaction, salvaged, resumed bit-identical at -j 1 and -j 4)"
