#!/usr/bin/env bash
# Checks that src/ has one configuration surface (DESIGN.md §15):
#   * only the knob table's file, src/common/config.cc, calls getenv;
#   * each knob's "XNFDB_<NAME>" string literal appears only in that table.
# The one exception is the materialized-view registry file header
# ("XNFDB_MATVIEWS 1", src/matview/matview.cc), a format magic that shares
# a knob's spelling.
#
# Usage: scripts/check_config_surface.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

table=src/common/config.cc
fail=0

getenv_hits=$(grep -rn --include='*.cc' --include='*.h' 'getenv' src |
  grep -v "^$table:" || true)
if [ -n "$getenv_hits" ]; then
  echo "getenv outside $table:" >&2
  echo "$getenv_hits" >&2
  fail=1
fi

knobs=$(grep -o '"XNFDB_[A-Z0-9_]*"' "$table" | tr -d '"' | sort -u)
count=$(echo "$knobs" | wc -l)
if [ "$count" -ne 24 ]; then
  echo "expected 24 knobs in $table, found $count" >&2
  fail=1
fi
for knob in $knobs; do
  hits=$(grep -rn --include='*.cc' --include='*.h' "\"$knob\"" src |
    grep -v "^$table:" |
    grep -v '^src/matview/matview.cc:.*line.rfind("XNFDB_MATVIEWS", 0)' ||
    true)
  if [ -n "$hits" ]; then
    echo "knob name $knob spelled outside $table:" >&2
    echo "$hits" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "config surface ok: $count knobs, getenv only in $table"
