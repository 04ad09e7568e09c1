#!/usr/bin/env bash
# Documentation guard, run by the CI docs job and locally:
#   1. every relative markdown link in README.md and docs/*.md resolves to
#      an existing file;
#   2. every public header under src/common/, src/engine/, src/core/,
#      src/balance/, src/scaling/ and src/ops/ — plus the shared test
#      harness headers under tests/engine/ and the exact MILP oracle's under
#      tests/lp/ and tests/milp/ — carries a file-level doxygen header
#      (\file + \brief), so the API docs cannot rot silently;
#   3. the journal analyzer parses the checked-in sample decision journal;
#   4. the tooling self-tests pass;
#   5. the documented vocabularies exist in the code: every span in
#      docs/OBSERVABILITY.md's span catalog is a string literal under src/,
#      every decision reason scripts/analyze_journal.py accepts is a
#      literal in src/core/controller_loop.cc, and every journal key it
#      requires (JOURNAL_KEYS) is a "key": literal in
#      src/core/round_journal.cc;
#   6. no header under src/ is dead: each one is included by some file
#      under src/, bench/, examples/, perfbench/ or tests/ other than its
#      own .cc, so a header nothing uses cannot keep documenting code that
#      does not exist;
#   7. every markdown file named in a file under src/, bench/, examples/,
#      tests/ or scripts/ exists at the repo root or in docs/, so a pointer
#      to the documentation cannot outlive the document.
#
# Usage: scripts/check_docs.sh   (from anywhere; operates on the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. markdown link check -------------------------------------------------
for md in README.md docs/*.md; do
  [[ -f "$md" ]] || continue
  dir=$(dirname "$md")
  # Extract the target of every inline link/image: [text](target).
  while IFS= read -r target; do
    target="${target%%#*}"          # drop anchors
    target="${target%% *}"          # drop optional titles: (file "title")
    [[ -z "$target" ]] && continue
    case "$target" in
      http://* | https://* | mailto:*) continue ;;
    esac
    if [[ ! -e "$dir/$target" ]]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. header-doc check ----------------------------------------------------
for h in src/common/*.h src/engine/*.h src/core/*.h src/balance/*.h \
         src/scaling/*.h src/ops/*.h tests/engine/*.h tests/lp/*.h \
         tests/milp/*.h; do
  [[ -f "$h" ]] || continue   # tests/engine may hold no headers
  if ! grep -q '\\file' "$h"; then
    echo "MISSING DOC: $h lacks a file-level \\file header"
    fail=1
  fi
  if ! grep -q '\\brief' "$h"; then
    echo "MISSING DOC: $h lacks a \\brief comment"
    fail=1
  fi
done

# --- 3. journal analyzer vs. the checked-in sample --------------------------
if ! python3 scripts/analyze_journal.py docs/sample_journal.jsonl >/dev/null; then
  echo "ANALYZER: scripts/analyze_journal.py rejected docs/sample_journal.jsonl"
  fail=1
fi

# --- 4. tooling self-tests (schema checks + bench gate policy) --------------
if ! python3 scripts/analyze_journal.py --self-test >/dev/null 2>&1; then
  echo "SELF-TEST: scripts/analyze_journal.py --self-test failed"
  fail=1
fi
if ! python3 scripts/bench_compare.py --self-test >/dev/null; then
  echo "SELF-TEST: scripts/bench_compare.py --self-test failed"
  fail=1
fi

# --- 5. documented vocabularies exist in the code ---------------------------
# Spans are emitted by literal name, so a catalog row with no literal under
# src/ documents a span nothing emits. The first backticked token of the
# catalog's Span column is the name.
spans=0
while IFS= read -r span; do
  spans=$((spans + 1))
  if ! grep -rqF "\"$span\"" src/; then
    echo "SPAN CATALOG: docs/OBSERVABILITY.md lists '$span', which no code under src/ emits"
    fail=1
  fi
done < <(sed -n '/^### Span catalog/,/^## /p' docs/OBSERVABILITY.md |
         awk -F'|' '/^\| `/ { if (match($3, /`[^`]+`/))
                               print substr($3, RSTART + 1, RLENGTH - 2) }')
if [[ $spans -eq 0 ]]; then
  echo "SPAN CATALOG: no spans found in docs/OBSERVABILITY.md"
  fail=1
fi
reasons=0
while IFS= read -r reason; do
  reasons=$((reasons + 1))
  if ! grep -qF "\"$reason\"" src/core/controller_loop.cc; then
    echo "REASONS: scripts/analyze_journal.py accepts '$reason', which src/core/controller_loop.cc never emits"
    fail=1
  fi
done < <(python3 -c 'import sys; sys.path.insert(0, "scripts")
import analyze_journal
print("\n".join(sorted(analyze_journal.VALID_REASONS)))')
if [[ $reasons -eq 0 ]]; then
  echo "REASONS: no decision reasons found in scripts/analyze_journal.py"
  fail=1
fi
# The serializer writes each key as an escaped C++ literal: \"key\":
keys=0
while IFS= read -r key; do
  keys=$((keys + 1))
  if ! grep -qF "\\\"$key\\\":" src/core/round_journal.cc; then
    echo "JOURNAL KEYS: scripts/analyze_journal.py requires '$key', which src/core/round_journal.cc never writes"
    fail=1
  fi
done < <(python3 -c 'import sys; sys.path.insert(0, "scripts")
import analyze_journal
print("\n".join(analyze_journal.JOURNAL_KEYS))')
if [[ $keys -eq 0 ]]; then
  echo "JOURNAL KEYS: no journal keys found in scripts/analyze_journal.py"
  fail=1
fi

# --- 6. every header under src/ is included somewhere ------------------------
headers=0
while IFS= read -r h; do
  headers=$((headers + 1))
  rel="${h#src/}"
  users=$(grep -rlE "^[[:space:]]*#[[:space:]]*include[[:space:]]+\"(src/)?${rel//./\\.}\"" \
            src bench examples perfbench tests | grep -vxF "${h%.h}.cc" || true)
  if [[ -z "$users" ]]; then
    echo "DEAD HEADER: $h is included by no file under src/, bench/, examples/, perfbench/ or tests/ other than its own .cc"
    fail=1
  fi
done < <(find src -name '*.h' | sort)

# --- 7. every markdown file named in the code exists -------------------------
docs=0
while IFS= read -r md; do
  docs=$((docs + 1))
  if [[ ! -f "$md" && ! -f "docs/$md" ]]; then
    echo "MISSING DOC FILE: $md is named under src/, bench/, examples/, tests/ or scripts/ but is neither at the repo root nor in docs/"
    fail=1
  fi
done < <(grep -rhoE '[A-Za-z0-9_-]+\.md\b' src bench examples tests scripts |
         sort -u)

if [[ $fail -ne 0 ]]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK (links resolve, common/engine/core/balance/scaling/ops + test harness and oracle headers documented, sample journal parses, tooling self-tests pass, $spans catalog spans, $reasons decision reasons and $keys journal keys found in the code, $headers src/ headers all included, $docs named markdown files exist)"
