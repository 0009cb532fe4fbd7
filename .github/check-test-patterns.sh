#!/usr/bin/env bash
# Checks that every `go test -run PATTERN PKG...` gate in the CI workflow
# still selects tests. Each |-separated alternative of a pattern must match
# at least one test, benchmark, fuzz target or example in the packages its
# step names; otherwise a deleted or renamed test would leave the gate
# passing while running nothing. Patterns built from shell variables are
# skipped. Run from the repository root:
#   bash .github/check-test-patterns.sh [workflow.yml]
set -euo pipefail
workflow=${1:-.github/workflows/ci.yml}
status=0
checked=0
while IFS= read -r line; do
  pattern=$(sed -nE "s/.*-run (['\"])([^'\"]*)\\1.*/\\2/p" <<<"$line")
  [[ -z $pattern || $pattern =~ \$[A-Za-z_{] ]] && continue
  read -ra pkgs <<<"$(grep -oE '(^| )\./[^ ]*' <<<"$line" | tr '\n' ' ')"
  [[ ${#pkgs[@]} -eq 0 ]] && continue
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    checked=$((checked + 1))
    listed=$(go test -list "$alt" "${pkgs[@]}")
    if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
      echo "$workflow: -run alternative '$alt' of '$pattern' matches no test in ${pkgs[*]}" >&2
      status=1
    fi
  done
done < <(grep -E 'go test .*-run ' "$workflow")
echo "checked $checked -run alternatives in $workflow"
exit $status
