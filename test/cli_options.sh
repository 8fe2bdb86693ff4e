#!/bin/sh
# Every analysis command refuses an invalid --bits, --epsilon or
# --samples before it does any work: exit status 124 and exactly one
# stderr line "fastflip: --OPTION: ..." that names the option. The edges
# of each range are accepted. store compact, which keeps a store's
# width, refuses --shards as an unknown option. protect --seed-security refuses a file that
# is not a whole security export the same way, naming the file. Runs under `dune runtest`; by hand:
#   sh test/cli_options.sh _build/default/bin/fastflip_cli.exe examples/pipeline.ff
set -eu

fastflip=$1
program=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

fail() {
  echo "cli_options.sh: $1" >&2
  exit 1
}

bad_bits="--bits=-1:bits --bits=64:bits --bits=1,2,1:bits --samples=-5:samples"
bad_epsilon="--epsilon=nan:epsilon --epsilon=inf:epsilon --epsilon=-1:epsilon"

"$fastflip" analyze "$program" --bits 2,40 --samples 20 --store "$work/store.bin" >/dev/null

n=0
# COMMAND | its invalid cases (bench takes no --epsilon)
while IFS='|' read -r cmd cases; do
  cmd=$(echo $cmd)
  for c in $cases; do
    opt=${c%:*} name=${c##*:}
    status=0
    "$fastflip" $cmd "$opt" >/dev/null 2>"$work/err" || status=$?
    [ "$status" -ne 0 ] || fail "$cmd $opt was accepted"
    [ "$status" -eq 124 ] || fail "$cmd $opt exited $status, not 124"
    if [ "$(wc -l <"$work/err")" -ne 1 ] || ! grep -q "^fastflip: --$name: " "$work/err"; then
      cat "$work/err" >&2
      fail "$cmd $opt did not fail with one 'fastflip: --$name:' line"
    fi
    n=$((n + 1))
  done
done <<ROWS
analyze $program | $bad_bits $bad_epsilon
compare $program | $bad_bits $bad_epsilon
bench FFT | $bad_bits
security $program | $bad_bits $bad_epsilon
protect $program | $bad_bits $bad_epsilon
query $work/no.sock $program | $bad_bits $bad_epsilon
ROWS

status=0
"$fastflip" store compact "$work/store.bin" --shards 8 >/dev/null 2>"$work/err" || status=$?
[ "$status" -eq 124 ] && grep -q "unknown option '--shards'" "$work/err" \
  || fail "store compact --shards 8 was not refused as an unknown option (exit $status)"

"$fastflip" analyze "$program" --bits=0,63 --samples=0 --epsilon=0 >/dev/null \
  || fail "the range edges --bits=0,63 --samples=0 --epsilon=0 were refused"

quick="--bits 2,40 --samples 20"
"$fastflip" security "$program" $quick --json "$work/security.json" >/dev/null
"$fastflip" protect "$program" $quick --pareto "$work/pareto.json" >/dev/null
echo "not json" >"$work/garbage.json"
head -c 100 "$work/security.json" >"$work/truncated.json"
for f in garbage truncated pareto; do
  file=$work/$f.json
  if "$fastflip" protect "$program" $quick --seed-security "$file" >/dev/null 2>"$work/err"; then
    fail "--seed-security $f.json was accepted"
  fi
  if [ "$(wc -l <"$work/err")" -ne 1 ] || ! grep -qF "fastflip: --seed-security $file: " "$work/err"; then
    cat "$work/err" >&2
    fail "--seed-security $f.json did not fail with one 'fastflip: --seed-security FILE:' line"
  fi
  n=$((n + 1))
done
"$fastflip" protect "$program" $quick --seed-security "$work/security.json" >/dev/null \
  || fail "--seed-security refused a security export"

echo "cli options: OK ($n invalid cases refused)"
