#!/bin/sh
# `manifest_check bench` on the sectioned bench set: every fixture is
# BENCH.json with one edit, made here at test time.
#   usage: bench_compare.sh MANIFEST_CHECK BENCH.json
mc=$1
base=$2
status=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL $*"
  status=1
}

# expect CODE DESCRIPTION PATTERN CANDIDATE: exit CODE, and PATTERN in
# the output (stdout and stderr) when it is not empty.
expect() {
  want=$1
  what=$2
  pattern=$3
  "$mc" bench --max-slowdown 2.0 "$base" "$4" >"$tmp/out" 2>&1
  got=$?
  [ "$got" = "$want" ] || fail "$what: exit $got, want $want"
  [ -z "$pattern" ] || grep -q "$pattern" "$tmp/out" || fail "$what: output does not name $pattern"
}

expect 0 "self-compare" "" "$base"

sed 's/\("checksum.matrix_cells": \)[0-9]*/\17/' "$base" >"$tmp/checksum.json"
expect 1 "changed checksum" "FAIL counter checksum.matrix_cells" "$tmp/checksum.json"

sed '/^    "matrix": {$/,/^    },$/d' "$base" >"$tmp/part.json"
expect 1 "missing section" "FAIL part matrix missing" "$tmp/part.json"

awk '/"rate\/matrix_run":/ { v = $2; sub(/,$/, "", v); sub(/: [-0-9.e+]+/, ": " sprintf("%.17g", v / 3)) }
     { print }' "$base" >"$tmp/rate.json"
expect 1 "rate divided by 3" "FAIL metric rate/matrix_run" "$tmp/rate.json"

awk '/"kernel": "des.cascade"/ { row = 1 }
     row && /"ops":/ { ops = $2; sub(/,$/, "", ops) }
     row && /"minor_words":/ { sub(/: [-0-9.e+]+/, ": " sprintf("%.1f", ops * 10)); row = 0 }
     { print }' "$base" >"$tmp/alloc.json"
expect 1 "zero-alloc row allocating" "FAIL profile des.cascade: 10.00 minor words/op" "$tmp/alloc.json"

sed -n '/^    "matrix": {$/,/^    },$/p' "$base" | sed '1s/.*/{/; $s/.*/}/' >"$tmp/bare.json"
expect 2 "bare manifest" "bench_set" "$tmp/bare.json"

[ "$status" = 0 ] && echo "bench compare: 6 cases ok"
exit "$status"
