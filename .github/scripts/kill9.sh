#!/usr/bin/env bash
# Run one arc-crash campaign with the given arguments, streaming its
# output.  Exit with arc-crash's status (1 = a failing run, 2 = a
# negative control went unconvicted); on 2, name each unconvicted
# control family (conviction-control, election-control,
# fabric-control) in a GitHub ::error:: annotation.  The campaign's
# summary line (kills per planned step, pending outcomes, journal
# quarantines) goes to the job summary inside a code fence, failing or
# not, when $GITHUB_STEP_SUMMARY is set.
#
#   .github/scripts/kill9.sh --runs 25 --seed 2049 --candidates 3
set -o pipefail
log=$(mktemp)
opam exec -- dune exec bin/crash.exe -- "$@" | tee "$log"
rc=$?
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  { echo "### Kill-9 campaign (arc-crash $*)"
    echo '```'
    grep '^arc-crash: ' "$log" || echo "no summary line (exit $rc)"
    echo '```'; } >> "$GITHUB_STEP_SUMMARY"
fi
if [ "$rc" -eq 2 ]; then
  grep -- '-control ' "$log" | grep -v '(expected)' | cut -d' ' -f1 \
    | sort -u | while read -r family; do
      echo "::error::$family NOT convicted (arc-crash $*)"
    done
fi
rm -f "$log"
exit "$rc"
