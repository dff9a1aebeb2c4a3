#!/usr/bin/env bash
# Prints the workspace's non-test line count: for each git-tracked .rs
# file outside any tests/ directory, perfbench/ and vendor/, the lines
# before the file's first `#[cfg(test)]`. Comments and blank lines
# count; test modules at the end of a file and integration tests do
# not.
#
# Usage: scripts/nontest_lines.sh

set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z '*.rs' \
  | grep -zv -e '^perfbench/' -e '^vendor/' -e '^tests/' -e '/tests/' \
  | xargs -0 awk '
      FNR == 1 { counting = 1 }
      /#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }'
