#!/bin/sh
# Argument handling of the command-line binaries given as arguments:
# --help prints the usage on stdout and exits 0; an unknown flag exits 2
# with an error on stderr that names the binary.  The file-reading
# binaries also exit 2 on an unreadable input file, and stratify_plan
# on a plan whose network parameters are out of range.
status=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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
    stratify_plan)
      expect 2 "$name MISSING" "$exe" "$missing"
      for net in '"loss": { "kind": "iid", "p": 1.5 }' \
                 '"latency": { "kind": "constant", "value": -1.0 }'; do
        printf '{ "name": "bad-net", "workload": { "kind": "async", "n": 100, "d": 10.0, "horizon": 150.0 }, "net": { %s }, "assertions": [ { "kind": "drained" } ] }\n' \
          "$net" > "$tmp/bad.plan"
        err=$("$exe" --out "$tmp/out" "$tmp/bad.plan" 2>&1 >/dev/null)
        got=$?
        [ "$got" = 2 ] || fail "$name bad net ($net): exit $got, want 2"
        case "$err" in *"bad plan"*) ;; *) fail "$name bad net ($net): no bad plan error" ;; esac
        case "$err" in *"Fatal error"*) fail "$name bad net ($net): uncaught exception" ;; esac
      done ;;
    stratify_matrix) expect 2 "$name --merge OUT MISSING" "$exe" --merge ./no-such-dir/out.json "$missing" ;;
    manifest_check) expect 2 "$name golden MISSING MISSING" "$exe" golden "$missing" "$missing" ;;
  esac
done

[ "$status" = 0 ] && echo "cli usage: $# binaries ok"
exit "$status"
