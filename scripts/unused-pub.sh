#!/usr/bin/env bash
# Prints every `pub fn` under crates/*/src that nothing outside its own
# tests calls: its name appears in no other tracked .rs file and, in its
# own file, only on its definition line or below `#[cfg(test)]`. A
# `pub use` re-export (to its closing `;`) names a function without
# calling it, so it counts as no mention. Names listed in
# scripts/unused-pub.allow (`name  reason`, one a line) pass. A name
# that any other file mentions passes too, so the scan errs only toward
# silence. Exits 1 when it prints a name.
#
# Usage: scripts/unused-pub.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
mapfile -t sources < <(git ls-files '*.rs')
awk -v allow=scripts/unused-pub.allow '
  BEGIN { while ((getline l < allow) > 0) if (l !~ /^#/ && split(l, f) > 0) ok[f[1]] = 1 }
  FNR == 1 { test = 0; reexport = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
  /^[[:space:]]*pub(\([a-z]+\))? use / { reexport = 1 }
  reexport { if (index($0, ";")) reexport = 0; next }
  {
    line = $0; def = ""
    if (FILENAME ~ /^crates\/[^\/]+\/src\// && match(line, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
      def = substr(line, RSTART + 7, RLENGTH - 7); defs[def, FILENAME] = 1
    }
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      w = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
      if (w == def) { def = ""; continue }
      if (!((w, FILENAME) in seen)) { seen[w, FILENAME] = 1; files[w]++ }
      if (!test) live[w, FILENAME] = 1
    }
  }
  END {
    for (k in defs) {
      split(k, p, SUBSEP); name = p[1]; file = p[2]
      others = files[name] - (((name, file) in seen) ? 1 : 0)
      if (others == 0 && !((name, file) in live) && !(name in ok)) { print file ": " name; bad = 1 }
    }
    exit bad
  }' "${sources[@]}"
