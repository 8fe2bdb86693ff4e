#!/bin/sh
# Crash-recovery smoke: run the CLI analysis once for reference, run it
# again with checkpointing enabled and SIGKILL it mid-campaign (the
# FF_PERSIST_KILL_AFTER hook kills the process right after a progress-log
# append reaches the disk — the worst-timed real kill), then resume and
# require the resumed stdout and every file of the resumed store to be
# identical to the uninterrupted run's.
# Also available as a dune alias: dune build @crash-smoke
set -eu

fail() {
  echo "crash_recovery_smoke.sh: $1" >&2
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

ARGS="analyze examples/pipeline.ff --samples 40 -j 2"

# 1. Uninterrupted reference run.
$FASTFLIP $ARGS --store "$WORK/ref.store" >"$WORK/ref.out" 2>/dev/null \
  || fail "reference run failed"

# 2. Checkpointed run, SIGKILLed right after the 2nd durable progress-log
#    append (no store save precedes the campaigns, so these are the first
#    two log writes of the process).
status=0
FF_PERSIST_KILL_AFTER=2 $FASTFLIP $ARGS \
  --store "$WORK/crash.store" --checkpoint-every 2 >/dev/null 2>&1 || status=$?
[ "$status" -ne 0 ] || fail "killed run exited 0 (kill hook did not fire)"
[ -s "$WORK/crash.store.progress" ] || fail "no progress log survived the kill"
[ ! -e "$WORK/crash.store" ] || fail "killed run should not have saved a store"

# 3. Resume: replay only the unfinished classes, finish, save, clean up.
$FASTFLIP $ARGS --store "$WORK/crash.store" --checkpoint-every 2 --resume \
  >"$WORK/resumed.out" 2>"$WORK/resume.err" || fail "resumed run failed"
grep -q "^resuming: [1-9][0-9]* class outcome(s) restored from $WORK/crash.store.progress" \
  "$WORK/resume.err" || fail "resume did not restore progress-log outcomes"
[ ! -e "$WORK/crash.store.progress" ] \
  || fail "progress log not removed after a clean finish"
[ -s "$WORK/crash.store" ] || fail "resumed run did not save the store"

# 4. The resumed analysis must be identical to the uninterrupted one
#    (only the store path differs between the two stdouts).
sed "s#$WORK/ref.store#STORE#g" "$WORK/ref.out" >"$WORK/ref.norm"
sed "s#$WORK/crash.store#STORE#g" "$WORK/resumed.out" >"$WORK/resumed.norm"
diff -u "$WORK/ref.norm" "$WORK/resumed.norm" \
  || fail "resumed analysis differs from the uninterrupted run"

# 5. So must the saved store, byte for byte: the manifest and every
#    shard log, with no shard log on one side only.
files=0
for ref in "$WORK"/ref.store "$WORK"/ref.store.s[0-9][0-9]; do
  crash="$WORK/crash.store${ref#"$WORK"/ref.store}"
  cmp "$ref" "$crash" || fail "resumed store file $crash differs from $ref"
  files=$((files + 1))
done
for crash in "$WORK"/crash.store.s[0-9][0-9]; do
  [ -e "$WORK/ref.store${crash#"$WORK"/crash.store}" ] \
    || fail "resumed store has an extra shard log $crash"
done

echo "crash-recovery smoke: OK (killed after 2 appends, resumed bit-identical, $files store files identical)"
