#!/usr/bin/env bash
# One-coordinator lint.  The soak protocol (worker spawn, the sample loop
# and supervision) lives in lib/harness/soak.ml only;
# Runner, Serve and Overload are configurations of it and must not grow a
# coordinator of their own again.  Two rules:
#
#   A. None of [Unix.select], [Supervisor.check] or [Domain.spawn] appears
#      in lib/harness/runner.ml, lib/store/serve.ml or lib/store/overload.ml.
#   B. Code that measures or waits uses the monotonic Harness.Clock:
#      [Unix.gettimeofday] appears under lib/ only in the allow-list below
#      (the wall-clock [created_unix] stamp of a BENCH document), once per
#      file.
#
# Runs from the repository root (the dune rule chdirs there); exits
# non-zero listing every violation.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0

for f in lib/harness/runner.ml lib/store/serve.ml lib/store/overload.ml; do
  if hits=$(grep -nE 'Unix\.select|Supervisor\.check|Domain\.spawn' "$f"); then
    while IFS= read -r line; do
      echo "$f:$line: coordinator code outside Harness.Soak"
    done <<<"$hits"
    fail=1
  fi
done

allowed="lib/harness/report.ml"
while IFS=: read -r file count; do
  [ "$count" -eq 0 ] && continue
  case " $allowed " in
    *" $file "*) [ "$count" -le 1 ] && continue ;;
  esac
  grep -n 'Unix\.gettimeofday' "$file" | while IFS= read -r line; do
    echo "$file:$line: use Harness.Clock (monotonic), not Unix.gettimeofday"
  done
  fail=1
done < <(grep -rc --include='*.ml' --include='*.mli' 'Unix\.gettimeofday' lib)

if [ "$fail" -ne 0 ]; then
  echo "lint_soak: FAILED" >&2
  exit 1
fi
echo "lint_soak: ok"
