# Out-of-range flags must be refused as usage errors: a non-zero exit, a
# message on stderr that names the flag, and no uncaught exception.
#
#   sh bin/cli_checks.sh DPS_BENCH_EXE DPS_MC_EXE
# a bare file name would be looked up on PATH
path() { case $1 in */*) echo "$1" ;; *) echo "./$1" ;; esac; }
bench=$(path "$1")
mc=$(path "$2")
err=$(mktemp)
trap 'rm -f "$err"' EXIT
status=0

refuse() {
  flag=$1
  shift
  if "$@" >/dev/null 2>"$err"; then
    echo "FAIL: '$*' exited 0"
    status=1
  elif ! grep -q -e "$flag" "$err" || grep -q "internal error" "$err"; then
    echo "FAIL: '$*' did not refuse $flag cleanly:"
    cat "$err"
    status=1
  fi
}

accept() {
  if ! "$@" >/dev/null 2>"$err"; then
    echo "FAIL: '$*' was refused:"
    cat "$err"
    status=1
  fi
}

refuse --threads "$bench" --threads 0
refuse --threads "$bench" --threads 81
refuse --threads "$bench" --harness dps --threads 81
refuse --size "$bench" --size 0
refuse --update "$bench" --update 150
refuse --update "$bench" --update=-1
refuse --servers "$bench" --harness ffwd --servers 0
refuse --servers "$bench" --harness ffwd --servers 9
refuse --seeds "$bench" --seeds 0
refuse --jobs "$bench" --jobs 0
refuse --duration "$bench" --duration 0
refuse --structure "$bench" --structure no-such-set
# ffwd's clients share the hardware threads its servers leave free
accept "$bench" --harness ffwd --threads 81 --size 64 --duration 2000

refuse --threads "$mc" --threads 0
refuse --threads "$mc" --threads 81
refuse --threads "$mc" --threads 200
refuse --items "$mc" --items 0
refuse --value-bytes "$mc" --value-bytes 0
refuse --set "$mc" --set 101
refuse --set "$mc" --set=-1
refuse --duration "$mc" --duration 0
accept "$mc" --variant ffwd --threads 81 --items 256 --duration 2000

exit $status
