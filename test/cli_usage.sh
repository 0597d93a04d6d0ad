#!/bin/sh
# Argument handling of the command-line binaries given as arguments:
# --help prints the usage on stdout and exits 0; an unknown flag exits 2
# with an error on stderr that names the binary.  The file-reading
# binaries also exit 2 on an unreadable input file.
status=0

fail() {
  echo "FAIL $*"
  status=1
}

# expect CODE DESCRIPTION COMMAND...
expect() {
  want=$1
  what=$2
  shift 2
  "$@" >/dev/null 2>&1
  got=$?
  [ "$got" = "$want" ] || fail "$what: exit $got, want $want"
}

for exe in "$@"; do
  name=$(basename "$exe" .exe)
  expect 0 "$name --help" env TERM=dumb "$exe" --help
  [ -n "$(TERM=dumb "$exe" --help 2>/dev/null)" ] || fail "$name --help: no usage on stdout"
  expect 2 "$name --no-such-flag" "$exe" --no-such-flag
  "$exe" --no-such-flag 2>&1 >/dev/null | grep -q "$name" \
    || fail "$name --no-such-flag: error does not name the binary"
  missing=./no-such-dir/missing.json
  case "$name" in
    stratify_serve) expect 2 "$name --resume MISSING" "$exe" --resume "$missing" ;;
    stratify_plan) expect 2 "$name MISSING" "$exe" "$missing" ;;
    stratify_matrix) expect 2 "$name --merge OUT MISSING" "$exe" --merge ./no-such-dir/out.json "$missing" ;;
    manifest_check) expect 2 "$name golden MISSING MISSING" "$exe" golden "$missing" "$missing" ;;
  esac
done

[ "$status" = 0 ] && echo "cli usage: $# binaries ok"
exit "$status"
