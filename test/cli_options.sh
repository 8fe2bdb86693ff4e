#!/bin/sh
# Every analysis command refuses an invalid --bits, --epsilon or
# --samples before it does any work: a non-zero exit and exactly one
# stderr line "fastflip: --OPTION: ..." that names the option. The edges
# of each range are accepted. Runs under `dune runtest`; by hand:
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

n=0
# COMMAND | its invalid cases (bench takes no --epsilon)
while IFS='|' read -r cmd cases; do
  cmd=$(echo $cmd)
  for c in $cases; do
    opt=${c%:*} name=${c##*:}
    if "$fastflip" $cmd "$opt" >/dev/null 2>"$work/err"; then
      fail "$cmd $opt was accepted"
    fi
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

"$fastflip" analyze "$program" --bits=0,63 --samples=0 --epsilon=0 >/dev/null \
  || fail "the range edges --bits=0,63 --samples=0 --epsilon=0 were refused"

echo "cli options: OK ($n invalid cases refused)"
