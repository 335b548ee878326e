#!/usr/bin/env bash
# Run one arc-crash campaign with the given arguments, streaming its
# output.  Exit with arc-crash's status (1 = a failing run, 2 = a
# negative control went unconvicted); on 2, name each unconvicted
# control family (conviction-control, election-control,
# fabric-control) in a GitHub ::error:: annotation.
#
#   .github/scripts/kill9.sh --runs 25 --seed 2049 --candidates 3
set -o pipefail
log=$(mktemp)
opam exec -- dune exec bin/crash.exe -- "$@" | tee "$log"
rc=$?
if [ "$rc" -eq 2 ]; then
  grep -- '-control ' "$log" | grep -v '(expected)' | cut -d' ' -f1 \
    | sort -u | while read -r family; do
      echo "::error::$family NOT convicted (arc-crash $*)"
    done
fi
rm -f "$log"
exit "$rc"
