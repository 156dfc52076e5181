#!/usr/bin/env bash
# Hop-call lint: a protected hop makes one call into the SMR scheme.
#
# Builds lib/smr and lib/scot with --profile release (the objects
# perfbench/bench.exe links) into a build directory of its own, then runs
# objdump -dr on every per-hop function: the SCOT structures' traversal
# steps and each scheme's protect and read loop.  Every call instruction
# is named by its relocation target (a direct call, with the compiler's
# _NNN stamp dropped) or as "*" (an indirect call through a register).
# The lint fails when a function
#   - calls a target that is neither in the cold set nor in its pinned
#     allowlist below, or
#   - has more call sites to a target than the allowlist pins, or
#   - is missing from its object (a renamed function must be re-pinned).
#
# Release objects, not the dev ones `dune runtest` builds: the dev profile
# compiles without cross-module inlining, so there every accessor of
# List_node/Hdr and every local helper is a call and the census says
# nothing about the benchmark's code.  The allowlist is pinned for the
# OCaml 5.1 amd64 backend (x86-64 call relocations, caml_applyN for
# multi-argument calls of unknown functions); another compiler version may
# need it re-pinned.
#
# Usage: bash scripts/lint_hop_calls.sh [TREE]
#   TREE defaults to this repository.  The build goes to TREE/_build_hoplint
#   (not _build: a dev build there would be replaced by a release one and
#   vice versa).
set -u
tree="${1:-$(dirname "$0")/..}"
cd "$tree" || exit 1
bdir=_build_hoplint

if ! dune build --root . --profile release --build-dir "$bdir" \
  ./lib/smr/smr.cmxa ./lib/scot/scot.cmxa >&2; then
  echo "lint_hop_calls: release build failed" >&2
  exit 1
fi

# Allowed everywhere, any number of times: the runtime's GC and stack
# entry points, bounds and exception raisers, and the poison check's cold
# fault path.  None of them runs on a hop that finds what it expects.
cold='caml_call_gc caml_call_realloc_stack caml_ml_array_bound_error
caml_raise_exn caml_reraise_exn Memory.Hdr.fail_reclaimed Memory.Fault.fail'

# Pinned allowlist: object, function, then target:count pairs (count
# defaults to 1).  In the structures caml_apply4 is S.protect,
# caml_apply3 S.dup and caml_apply2 S.retire; in the schemes caml_apply2
# is the Probe handler (installed only by the chaos engine), "*" a call
# through an Smr_intf.desc field and caml_atomic_exchange an Atomic.set
# of a boxed value (the publish).  Harris_list's "*" is the per-hop hook,
# called only when a find has one (the wait-free slow path, HListUnsafe).
allow='
scot__Harris_list          find_attempt    caml_apply4:2
scot__Harris_list          step            caml_apply4 caml_apply3 *
scot__Harris_list          phase2          caml_apply4:2 * caml_atomic_cas Scot.Harris_list.validate Scot.Harris_list.retire_chain
scot__Harris_list          validate        caml_apply4
scot__Harris_michael_list  find_attempt    caml_apply4
scot__Harris_michael_list  step            caml_apply4 caml_apply2 caml_atomic_cas
scot__Nm_tree              seek            Scot.Nm_tree.seek_attempt Memory.Tcounter.cell caml_atomic_fetch_add
scot__Nm_tree              seek_attempt    caml_apply4:2 Stdlib.invalid_arg:2
scot__Nm_tree              seek_loop       caml_apply4 caml_apply3:2 Stdlib.invalid_arg
scot__Nm_tree              seek_descend    caml_apply3:2 Stdlib.invalid_arg
scot__Nm_tree              seek_validate   Stdlib.invalid_arg
scot__Nm_tree              seek_found      caml_modify:6
scot__Skiplist             find_down       Scot.Skiplist.level_find
scot__Skiplist             level_find      caml_apply4
scot__Skiplist             lf_finish       caml_modify:4
scot__Skiplist             lf_unlink       caml_atomic_cas
scot__Skiplist             lf_step         caml_apply4 caml_apply3:2 caml_atomic_cas
scot__Skiplist             lf_advance      caml_apply3:2
scot__Skiplist             lf_zone         caml_apply4 caml_apply3 caml_atomic_cas
scot__Skiplist             lf_exit_zone    caml_atomic_cas
smr__Nr                    protect         caml_apply2
smr__Ebr                   protect         caml_apply2
smr__Debra                 protect         caml_apply2
smr__Hp_core               protect         caml_apply2 Smr.Hp_core.read_field_loop
smr__Hp_core               read_field_loop *:4 caml_atomic_exchange:2
smr__He                    protect         caml_apply2 Smr.He.stable_era_loop
smr__He                    stable_era_loop caml_atomic_exchange
smr__Ibr                   protect         caml_apply2 Smr.Ibr.read_field_loop
smr__Ibr                   read_field_loop *:2 caml_atomic_exchange Smr.Ibr.activate
smr__Hyaline               protect         caml_apply2 Smr.Hyaline.read_field_loop
smr__Hyaline               read_field_loop *:2 caml_atomic_exchange
'

objdir() {
  case "$1" in
    scot__*) echo "$bdir/default/lib/scot/.scot.objs/native" ;;
    smr__*) echo "$bdir/default/lib/smr/.smr.objs/native" ;;
  esac
}

# "function target" per call instruction of one object file.
census() {
  objdump -dr --no-show-raw-insn "$1" | awk '
    function strip(s) { sub(/_[0-9]+$/, "", s); return s }
    function pretty(s) {
      if (s ~ /^caml[A-Z]/) { s = substr(s, 5); gsub(/__/, ".", s) }
      return strip(s)
    }
    /^[0-9a-f]+ <.*>:$/ {
      fn = $2; gsub(/[<>:]/, "", fn); sub(/^[^.]*\./, "", fn); fn = strip(fn)
      print fn, "-"; pending = 0; next
    }
    /\tcall / {
      if ($0 ~ /\*/) print fn, "*"; else pending = 1
      next
    }
    pending && /R_X86_64_/ {
      t = $3; sub(/[-+]0x[0-9a-f]+$/, "", t); print fn, pretty(t); pending = 0
    }'
}

fail=0
for obj in $(echo "$allow" | awk 'NF { print $1 }' | sort -u); do
  o="$(objdir "$obj")/$obj.o"
  if [ ! -f "$o" ]; then
    echo "lint_hop_calls: missing object $o" >&2
    fail=1
    continue
  fi
  calls=$(census "$o")
  out=$(awk -v obj="$obj" -v cold="$cold" -v calls="$calls" '
    BEGIN {
      n = split(cold, c, /[ \n]+/)
      for (i = 1; i <= n; i++) if (c[i] != "") iscold[c[i]] = 1
      m = split(calls, lines, "\n")
      for (i = 1; i <= m; i++) {
        split(lines[i], f, " ")
        if (f[1] == "") continue
        seen[f[1]] = 1
        if (f[2] == "-") continue
        cnt[f[1] SUBSEP f[2]]++
        targets[f[1]] = targets[f[1]] " " f[2]
      }
    }
    $1 == obj {
      fn = $2
      if (!(fn in seen)) {
        printf "%s.%s: no such function\n", obj, fn
        bad = 1; next
      }
      delete lim
      for (i = 3; i <= NF; i++) {
        t = $i; k = 1
        if (match(t, /:[0-9]+$/)) { k = substr(t, RSTART + 1) + 0; t = substr(t, 1, RSTART - 1) }
        lim[t] = k
      }
      split(targets[fn], ts, " ")
      delete done
      for (i in ts) {
        t = ts[i]
        if (t in done || t in iscold) continue
        done[t] = 1
        have = cnt[fn SUBSEP t]
        if (!(t in lim)) {
          printf "%s.%s: %d call site(s) to %s, not in its allowlist\n", obj, fn, have, t
          bad = 1
        } else if (have > lim[t]) {
          printf "%s.%s: %d call sites to %s, allowlist pins %d\n", obj, fn, have, t, lim[t]
          bad = 1
        }
      }
    }
    END { exit bad }' <<<"$allow")
  if [ $? -ne 0 ]; then
    echo "$out" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "lint_hop_calls: every per-hop function calls only its allowlist"
else
  echo "lint_hop_calls: FAILED (see above)" >&2
fi
exit "$fail"
