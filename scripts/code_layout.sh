#!/usr/bin/env bash
# Code-layout probe for the repository benchmark.  Builds the release
# perfbench/bench.exe of a source tree (the same build perfbench/run.py
# makes) and prints, for the SCOT list, the NM tree and the hash map, the
# address of the module's code_begin symbol modulo 0x40 (one cache line).
# Throughput of the list and tree workloads moves with this offset even
# when their code does not change, so compare it across two trees before
# reading an ops/s difference as a code effect.
#
# Usage: bash scripts/code_layout.sh [TREE]   (TREE defaults to this repo)
set -eu
tree="${1:-$(dirname "$0")/..}"
cd "$tree"
dune build --root . --profile release perfbench/bench.exe 2>&1 >&2
exe=_build/default/perfbench/bench.exe
for m in Harris_list Nm_tree Hashmap; do
  addr=$(nm "$exe" | awk -v s="camlScot__${m}.code_begin" '$3 == s { print $1 }')
  if [ -z "$addr" ]; then
    echo "code_layout: no code_begin symbol for $m in $exe" >&2
    exit 1
  fi
  printf '%-12s code_begin=0x%s  mod 0x40 = 0x%02x\n' "$m" "$addr" $((0x$addr % 0x40))
done
