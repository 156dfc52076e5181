#!/usr/bin/env bash
# Negative type-checking tests for the branded-guard API.
#
# Each cases/must_fail_*.ml encodes one way of dereferencing protection
# evidence after end_op released it; the build fails if any of them
# typechecks.  cases/ok_*.ml are positive controls: the intended
# usage must keep compiling, otherwise the must-fail results are noise
# (e.g. a broken include path makes everything fail with "Unbound").
#
# Run by dune from _build/default/test/compile_fail (sandbox disabled so
# the ../../lib include paths resolve); compilation happens in a temp dir
# to keep artifacts out of the build tree.
set -u

SMR_INC=$(cd ../../lib/smr/.smr.objs/byte && pwd) || exit 1
MEM_INC=$(cd ../../lib/memory/.memory.objs/byte && pwd) || exit 1
CASES=$(cd cases && pwd) || exit 1
OCAMLC=${OCAMLC:-ocamlc}

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT

status=0

compile() {
  # $1 = source file; compiles in $tmp, output in $out (global).
  cp "$1" "$tmp/" || return 2
  out=$(cd "$tmp" && "$OCAMLC" -c -I "$SMR_INC" -I "$MEM_INC" \
    "$(basename "$1")" 2>&1)
}

for f in "$CASES"/ok_*.ml; do
  if ! compile "$f"; then
    echo "compile_fail: positive control $(basename "$f") FAILED to compile:"
    echo "$out"
    status=1
  fi
done

for f in "$CASES"/must_fail_*.ml; do
  if compile "$f"; then
    echo "compile_fail: $(basename "$f") UNEXPECTEDLY TYPECHECKED —"
    echo "  the guard/token escape it encodes is representable again."
    status=1
  elif printf '%s' "$out" | grep -q "Unbound"; then
    echo "compile_fail: $(basename "$f") failed for the wrong reason:"
    echo "$out"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "compile_fail: all guard-escape cases rejected, controls compile"
fi
exit "$status"
