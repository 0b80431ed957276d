#!/usr/bin/env bash
# Plain-gcov fallback for the `coverage` target (used when gcovr is not
# installed). Walks every .gcda in the build tree, asks gcov for the
# per-file "Lines executed" figures, and aggregates them into one
# repo-wide line-coverage number for src/ + bench/ sources.
#
# Usage: tools/coverage_summary.sh <build-dir> <source-root>
set -u
BUILD=${1:?build dir}
# gcov reports absolute paths; resolve the root so a relative one matches.
ROOT=$(cd "${2:?source root}" && pwd) || exit 1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find "$BUILD" -name '*.gcda' | while read -r gcda; do
  # -n: report to stdout only, no .gcov files littering the tree.
  (cd "$tmp" && gcov -n -o "$(dirname "$gcda")" "$gcda" 2>/dev/null)
done > "$tmp/report"

awk -v root="$ROOT/" '
  # gcov -n emits pairs of lines:
  #   File "…/src/ecc/bch.cpp"
  #   Lines executed:97.53% of 243
  /^File / {
    file = $2
    gsub(/\x27|"/, "", file)
    keep = index(file, root "src/") == 1 || index(file, root "bench/") == 1
  }
  # A header shows up once per including TU with a per-TU count; keep the
  # best-covered sighting per file rather than double-counting (a true
  # cross-TU union needs gcovr, which this script is the fallback for).
  /^Lines executed:/ && keep {
    split($2, pct, ":")
    sub(/%$/, "", pct[2])
    n = $4
    cov = (pct[2] / 100.0) * n
    if (!(file in total) || cov > covered[file]) {
      covered[file] = cov
      total[file] = n
    }
    keep = 0
  }
  END {
    files = 0
    for (f in total) {
      ++files
      c += covered[f]
      t += total[f]
    }
    if (t == 0) {
      print "coverage: no .gcda data found — run the tests first"
      exit 1
    }
    printf "coverage: %.1f%% of %d lines (%d files under src/ + bench/)\n", \
           100.0 * c / t, t, files
  }
' "$tmp/report"
