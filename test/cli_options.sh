#!/bin/sh
# Every analysis command refuses an invalid --bits, --epsilon or
# --samples before it does any work: exit status 124 and exactly one
# stderr line "fastflip: --OPTION: ..." that names the option. The edges
# of each range are accepted. Options the commands do not have are
# refused as unknown: store compact's --shards (it keeps a store's
# width), --sens-safety-factor, security's --samples and --no-prove (its
# campaign is the baseline's: no sampling, no prover) and --resume (a
# checkpointed run resumes its progress log by itself). protect
# --seed-security refuses a file that is not a whole security export the
# same way, naming the file. Runs under `dune runtest`; by hand:
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

bad_bits="--bits=-1:bits --bits=64:bits --bits=1,2,1:bits"
bad_samples="--samples=-5:samples"
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
analyze $program | $bad_bits $bad_samples $bad_epsilon
compare $program | $bad_bits $bad_samples $bad_epsilon
bench FFT | $bad_bits $bad_samples
security $program | $bad_bits $bad_epsilon
protect $program | $bad_bits $bad_samples $bad_epsilon
query $work/no.sock $program | $bad_bits $bad_samples $bad_epsilon
ROWS

# COMMAND | the option it does not have
while IFS='|' read -r cmd opt; do
  status=0
  "$fastflip" $cmd $opt >/dev/null 2>"$work/err" || status=$?
  set -- $opt
  if [ "$status" -ne 124 ] || ! grep -q "unknown option '$1'" "$work/err"; then
    cat "$work/err" >&2
    fail "$cmd $opt was not refused as an unknown option (exit $status)"
  fi
  n=$((n + 1))
done <<ROWS
store compact $work/store.bin | --shards 8
analyze $program | --sens-safety-factor 2
protect $program | --sens-safety-factor 2
security $program | --samples 20
security $program | --no-prove
analyze $program | --resume
ROWS

"$fastflip" analyze "$program" --bits=0,63 --samples=0 --epsilon=0 >/dev/null \
  || fail "the range edges --bits=0,63 --samples=0 --epsilon=0 were refused"

quick="--bits 2,40 --samples 20"
"$fastflip" security "$program" --bits 2,40 --json "$work/security.json" >/dev/null
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
