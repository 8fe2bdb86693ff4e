#!/bin/sh
# Server smoke: start the `fastflip serve` daemon on a throwaway socket,
# query it from several concurrent clients, and require
#   - every response byte-identical to the one-shot `fastflip analyze`,
#   - warm (cached) queries faster than the cold one,
#   - a bad source answered twice with the same error the one-shot CLI
#     prints (a failed compile is never cached),
#   - a non-finite target refused and a huge one clamped to 1.0, by
#     both the CLI and the daemon,
#   - the same report from both off the default options (every analyze
#     option that changes the analysis is a query field),
#   - a clean shutdown on SIGTERM (store saved, socket removed),
#   - a BENCH_server.json from the bench harness, which checks its own
#     floors (among them a warm p50 at least 10x below the cold request).
# Also available as a dune alias: dune build @serve-smoke
set -eu

fail() {
  echo "server_smoke.sh: $1" >&2
  exit 1
}

if [ -x bin/fastflip_cli.exe ]; then
  # Invoked by the dune rule: deps are staged in the action directory.
  FASTFLIP=bin/fastflip_cli.exe
  BENCH=bench/main.exe
else
  # Invoked by hand from a checkout.
  cd "$(dirname "$0")/.."
  dune build bin/fastflip_cli.exe bench/main.exe
  FASTFLIP=_build/default/bin/fastflip_cli.exe
  BENCH=_build/default/bench/main.exe
fi

WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -z "$SERVER_PID" ] || kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

SOCK="$WORK/serve.sock"
# Enough sensitivity samples that a cold analysis dominates process
# startup — the warm-vs-cold timing assertion then measures the cache,
# not exec overhead.
ARGS="examples/pipeline.ff --samples 8000"

# Millisecond wall-clock (portable enough: GNU date %N, else python3).
now_ms() {
  if date +%s%N | grep -qv N; then
    echo $(($(date +%s%N) / 1000000))
  else
    python3 -c 'import time; print(int(time.time() * 1000))'
  fi
}

# 1. One-shot reference: what every daemon response must match.
$FASTFLIP analyze $ARGS >"$WORK/oneshot.out" 2>/dev/null \
  || fail "one-shot analyze failed"

# 2. Start the daemon and wait for it to listen.
$FASTFLIP serve "$SOCK" --store "$WORK/serve.store" \
  >"$WORK/server.out" 2>"$WORK/server.err" &
SERVER_PID=$!
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || fail "daemon did not create $SOCK within 10s"
  kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died on startup"
  sleep 0.1
done

# 3. Cold query: the daemon analyzes from scratch; must match one-shot.
t0=$(now_ms)
$FASTFLIP query "$SOCK" $ARGS >"$WORK/cold.out" || fail "cold query failed"
t1=$(now_ms)
cold_ms=$((t1 - t0))
diff -u "$WORK/oneshot.out" "$WORK/cold.out" >&2 \
  || fail "cold daemon response differs from one-shot analyze"

# 4. Four concurrent clients, same request: all must match byte-for-byte
#    (the warm cache and request coalescing may not perturb the bytes).
t0=$(now_ms)
pids=
for i in 1 2 3 4; do
  $FASTFLIP query "$SOCK" $ARGS >"$WORK/client$i.out" &
  pids="$pids $!"
done
for pid in $pids; do
  wait "$pid" || fail "a concurrent client failed"
done
t1=$(now_ms)
warm4_ms=$((t1 - t0))
for i in 1 2 3 4; do
  diff -u "$WORK/oneshot.out" "$WORK/client$i.out" >&2 \
    || fail "concurrent client $i response differs from one-shot analyze"
done

# 5. Warm state must actually buy something: 4 warm queries together must
#    finish faster than the single cold one (in practice ~50x faster).
[ "$warm4_ms" -lt "$cold_ms" ] \
  || fail "4 warm queries (${warm4_ms}ms) not faster than 1 cold query (${cold_ms}ms)"

# 5b. A source that does not compile: the daemon compiles only on a cache
#     miss and never caches a failure, so asking twice must give the same
#     error bytes both times, and the one-shot CLI's. The client prefixes
#     the daemon's message with "fastflip: ".
printf 'kernel broken(' >"$WORK/bad.ff"
if $FASTFLIP analyze "$WORK/bad.ff" >/dev/null 2>"$WORK/bad_oneshot.err"; then
  fail "one-shot analyze of a bad source exited 0"
fi
for i in 1 2; do
  if $FASTFLIP query "$SOCK" "$WORK/bad.ff" >/dev/null 2>"$WORK/bad_query$i.err"; then
    fail "query $i of a bad source exited 0"
  fi
done
cmp "$WORK/bad_query1.err" "$WORK/bad_query2.err" >&2 \
  || fail "the daemon's two errors for one bad source differ"
sed 's/^fastflip: //' "$WORK/bad_query1.err" >"$WORK/bad_daemon.err"
diff -u "$WORK/bad_oneshot.err" "$WORK/bad_daemon.err" >&2 \
  || fail "the daemon's compile error differs from one-shot analyze"

# 6. Out-of-range targets: a non-finite one is refused by both the
#    one-shot CLI and the client, with an error naming the target; a huge
#    finite one clamps, so it reports exactly what -t 1.0 reports.
for cmd in "analyze" "query $SOCK"; do
  if $FASTFLIP $cmd $ARGS -t inf >"$WORK/inf.out" 2>"$WORK/inf.err"; then
    fail "$cmd -t inf exited 0"
  fi
  grep -q "target inf" "$WORK/inf.err" || fail "$cmd -t inf error does not name the target"
done
$FASTFLIP query "$SOCK" $ARGS -t 1.0 >"$WORK/t1.out" || fail "query -t 1.0 failed"
$FASTFLIP analyze $ARGS -t 1e300 >"$WORK/huge_oneshot.out" 2>/dev/null \
  || fail "analyze -t 1e300 failed"
$FASTFLIP query "$SOCK" $ARGS -t 1e300 >"$WORK/huge_query.out" || fail "query -t 1e300 failed"
for out in huge_oneshot huge_query; do
  diff -u "$WORK/t1.out" "$WORK/$out.out" >&2 \
    || fail "$out: -t 1e300 report differs from -t 1.0"
done

# 7. Off the defaults: epsilon, prover, fault model and target all reach
#    the daemon, so query still reports exactly what analyze does.
OFF="examples/pipeline.ff --epsilon 0.01 --no-prove --fault-model bitflip:2 -t 0.95"
$FASTFLIP analyze $OFF >"$WORK/off_oneshot.out" 2>/dev/null \
  || fail "analyze off the defaults failed"
$FASTFLIP query "$SOCK" $OFF >"$WORK/off_query.out" || fail "query off the defaults failed"
diff -u "$WORK/off_oneshot.out" "$WORK/off_query.out" >&2 \
  || fail "query off the defaults differs from one-shot analyze"

# 8. Clean SIGTERM shutdown: daemon saves its store, removes the socket,
#    and exits 0.
kill -TERM "$SERVER_PID"
tries=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
  tries=$((tries + 1))
  [ "$tries" -le 150 ] || fail "daemon did not exit within 15s of SIGTERM"
  sleep 0.1
done
wait "$SERVER_PID" && server_status=0 || server_status=$?
SERVER_PID=
[ "$server_status" -eq 0 ] || fail "daemon exited nonzero ($server_status) on SIGTERM"
grep -q "shut down cleanly" "$WORK/server.out" || fail "daemon did not report a clean shutdown"
[ ! -e "$SOCK" ] || fail "daemon left its socket behind"
[ -s "$WORK/serve.store" ] || fail "daemon did not save its store on shutdown"

# 9. Bench artifact: honest cold/warm numbers over the same transport.
#    The bench exits 1 when a floor fails (warm p50 at least 10x below
#    cold, among others), after writing the JSON, which is kept either way.
ROOT=$(pwd)
bench_status=0
(cd "$WORK" && FF_DOMAINS=2 "$ROOT/$BENCH" quick server >bench.out 2>&1) \
  || bench_status=$?
[ ! -e "$WORK/BENCH_server.json" ] || mv "$WORK/BENCH_server.json" BENCH_server.json
[ "$bench_status" -eq 0 ] \
  || { cat "$WORK/bench.out" >&2; fail "bench server artifact failed"; }

echo "server smoke: OK (cold ${cold_ms}ms, 4 warm clients ${warm4_ms}ms, byte-identical, compile errors identical, targets clamped, off-default options identical, clean SIGTERM)"
