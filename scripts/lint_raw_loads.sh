#!/usr/bin/env bash
# Guard-discipline lint for the data-structure layer (lib/scot).
#
# The branded-guard API (Smr_intf.Guard) makes the Figure-2 bug class a
# type error, but only for loads that go through protect/deref.  A raw
# [Atomic.get] bypasses the brand entirely, so every remaining raw load
# must say why it is safe.  Three rules:
#
#   A. No legacy staged-reader calls ([read_field], [S.read]) — the
#      unbranded shims were deleted from the scheme signature; every
#      protected load goes through with_op/protect/Guard.deref.  The rule
#      stays as a tripwire against reintroducing an unbranded entry point.
#   B. Every [Atomic.get] carries a "raw-load: <reason>" marker on the
#      same line or within the 4 preceding lines (multi-line comment
#      annotations).  Accepted reasons are documented in DESIGN.md:
#      quiescent observer, validation witness (compared physically, never
#      dereferenced), own/protected node, pruned-and-private chain,
#      sentinel, CAS-failure diagnosis.
#   C. The implementor-side guard constructors ([Guard.mint],
#      [Guard.embed]) never appear: a structure forging a token or a
#      guard would reopen the hole the brand closes.  The Figure-2
#      baseline (HListUnsafe) is Harris_list with its validation off,
#      so it needs no escape hatch either.
#
# No file is exempt.
#
# Runs from the repository root (the dune rule chdirs there); exits
# non-zero listing every violation.
set -u
cd "$(dirname "$0")/.." || exit 1

fail=0
WINDOW=4

for f in lib/scot/*.ml; do
  base=$(basename "$f")

  # Rule A: legacy staged-reader calls.
  if hits=$(grep -nE '\bread_field\b|\b[A-Za-z_]+\.read\b' "$f"); then
    echo "lint_raw_loads: $base uses the legacy staged-reader API:" >&2
    echo "$hits" >&2
    fail=1
  fi

  # Rule C: no forged tokens or guards.
  if hits=$(grep -nE '\b(Guard|G)\.(mint|embed)\b' "$f"); then
    echo "lint_raw_loads: $base reaches for a guard escape hatch:" >&2
    echo "$hits" >&2
    fail=1
  fi

  # Rule B: raw loads must be annotated.
  if ! out=$(awk -v W="$WINDOW" '
    {
      hist[NR % (W + 1)] = $0
      if ($0 ~ /Atomic\.get/) {
        ok = 0
        for (i = 0; i <= W; i++)
          if (hist[(NR - i) % (W + 1)] ~ /raw-load/) ok = 1
        if (!ok) {
          printf "%s:%d: Atomic.get without a raw-load annotation\n", \
            FILENAME, NR
          bad = 1
        }
      }
    }
    END { exit bad }' "$f"); then
    echo "lint_raw_loads: unannotated raw loads:" >&2
    echo "$out" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "lint_raw_loads: lib/scot raw-load discipline holds"
fi
exit "$fail"
