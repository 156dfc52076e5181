#!/usr/bin/env python3
"""Validate a BENCH_*.json benchmark artifact against the schema
documented in EXPERIMENTS.md ("Machine-readable output").

Usage: scripts/validate_bench.py BENCH_file.json [...]

Validation exits non-zero with a message on the first violation.  Kept in
sync with Harness.Report.schema_version (currently 1).
"""

import json
import sys

SCHEMA_VERSION = 1

RUN_KEYS = {
    "structure": str,
    "scheme": str,
    "threads": int,
    "range": int,
    "mix": dict,
    "ops": int,
    "duration": (int, float),
    "wall_total": (int, float),
    "throughput": (int, float),
    "restarts": int,
    "avg_unreclaimed": (int, float),
    "max_unreclaimed": int,
    "faults": int,
    "final_size": int,
    "op_stats": list,
    "mem_series": list,
    "scheme_stats": dict,
}

OP_STAT_KEYS = {
    "op": str,
    "hits": int,
    "misses": int,
    "count": int,
    "sampled": int,
    "p50_ns": (int, float),
    "p90_ns": (int, float),
    "p99_ns": (int, float),
    "max_ns": (int, float),
    "hist": list,
}

# `scotbench chaos` emits runs with "kind": "chaos" (bounded-memory
# validation under injected stalls; "bound" is null for non-robust
# schemes) and "kind": "fuzz" (random-schedule use-after-free hunts;
# "uaf_seed" is null when no fault fired).
CHAOS_RUN_KEYS = {
    "kind": str,
    "structure": str,
    "scheme": str,
    "robust": bool,
    "threads": int,
    "workers": int,
    "stalled": int,
    "point": str,
    "range": int,
    "duration": (int, float),
    "ops": int,
    "throughput": (int, float),
    "max_unreclaimed": int,
    "first_third": (int, float),
    "last_third": (int, float),
    "ok": bool,
    "mem_series": list,
    "trace": list,
}

CHAOS_POINTS = ("start_op", "read", "retire", "reclaim")

# `scotbench tune` emits runs with "kind": "tune" (static reclamation
# thresholds vs the adaptive controller on a phase-shifting workload);
# only the adaptive run carries "speedup".
TUNE_RUN_KEYS = {
    "kind": str,
    "scheme": str,
    "structure": str,
    "threads": int,
    "mode": str,
    "threshold": int,
    "tuned_threshold": int,
    "ops": int,
    "duration": (int, float),
    "throughput": (int, float),
    "max_unreclaimed": int,
    "sweeps": int,
    "scanned": int,
}

TUNE_MODES = ("static", "oracle", "adaptive")

# `scotbench chaos --scheme debra` additionally emits one "kind":
# "floor" run: DBR's clean-run throughput against EBR (the >= 0.9x
# acceptance floor, scored as the median ratio of interleaved pairs).
FLOOR_RUN_KEYS = {
    "kind": str,
    "structure": str,
    "scheme": str,
    "threads": int,
    "range": int,
    "duration": (int, float),
    "throughput": (int, float),
    "ebr_throughput": (int, float),
    "ratio": (int, float),
    "ok": bool,
}

# `scotbench chaos --scheme debra` also emits one "kind": "stall_cmp"
# run: the same one-stalled-reader chaos configuration for a panel of
# schemes side by side (DBR neutralization vs era/interval tracking).
# Per-scheme entries carry "bound": null for non-robust schemes.
STALL_CMP_RUN_KEYS = {
    "kind": str,
    "structure": str,
    "threads": int,
    "stalled": int,
    "point": str,
    "range": int,
    "duration": (int, float),
    "runs": list,
}

STALL_CMP_ENTRY_KEYS = {
    "scheme": str,
    "robust": bool,
    "max_unreclaimed": int,
    "first_third": (int, float),
    "last_third": (int, float),
    "throughput": (int, float),
    "ok": bool,
}

FUZZ_RUN_KEYS = {
    "kind": str,
    "structure": str,
    "scheme": str,
    "seeds": int,
    "trace": list,
}

# `scotbench recover` emits runs with "kind": "recovery" (supervised
# crash-and-adopt validation; "peak_bound"/"post_bound" are null for
# non-robust schemes, "settle_s" is -1 when the gauge never returned
# under the post-adoption bound).
RECOVERY_RUN_KEYS = {
    "kind": str,
    "structure": str,
    "scheme": str,
    "robust": bool,
    "recoverable": bool,
    "threads": int,
    "crashed": int,
    "range": int,
    "duration": (int, float),
    "ops": int,
    "throughput": (int, float),
    "recoveries": int,
    "events": list,
    "max_unreclaimed": int,
    "post_max_unreclaimed": int,
    "post_quiesced": int,
    "recovery_s": (int, float),
    "settle_s": (int, float),
    "adopt_warnings": int,
    "ok": bool,
    "verdict": str,
    "mem_series": list,
    "trace": list,
}

RECOVERY_EVENT_KEYS = {
    "t": (int, float),
    "tid": int,
    "reason": str,
    "action": str,
    "restarts": int,
}

# `scotbench serve` emits runs with "kind": "serve" (the sharded store
# soak): per-shard throughput rows, the batch-occupancy histogram, TTL
# eviction counts, and the supervised-crash verdict.  "bound" is null
# for non-robust schemes; only the batched-mode run carries "speedup"
# (batched throughput / per-op throughput at the same cfg).
SERVE_RUN_KEYS = {
    "kind": str,
    "mode": str,
    "backend": str,
    "scheme": str,
    "shards": int,
    "threads": int,
    "range": int,
    "batch_capacity": int,
    "skew": str,
    "mix": dict,
    "duration": (int, float),
    "ops": int,
    "throughput": (int, float),
    "per_shard": list,
    "occupancy": list,
    "expired": int,
    "max_unreclaimed": int,
    "post_quiesced": int,
    "crashes": int,
    "recoveries": list,
    "final_size": int,
    "mem_series": list,
    "op_stats": list,
    "ok": bool,
    "verdict": str,
}

SERVE_SHARD_KEYS = {
    "shard": int,
    "ops": int,
    "hits": int,
    "misses": int,
    "throughput": (int, float),
}

SERVE_MODES = ("batched", "per-op")

# `scotbench pressure` emits runs with "kind": "pressure" (the overload
# soak): oversubscribed domains ramp a sharded store past its memory
# budget while parked readers pin reclamation, and the per-shard state
# machines degrade and recover.  Robust schemes run "enforce": true;
# the non-robust negative control (EBR) runs monitor-only and is
# expected to overflow the reference stall bound, so its "bound" is
# null and its acceptance is inverted inside scotbench.
PRESSURE_RUN_KEYS = {
    "kind": str,
    "backend": str,
    "scheme": str,
    "robust": bool,
    "enforce": bool,
    "shards": int,
    "workers": int,
    "domains": int,
    "parked": int,
    "readers": int,
    "range": int,
    "batch_capacity": int,
    "clean_s": (int, float),
    "ramp_s": (int, float),
    "drain_s": (int, float),
    "deadline_s": (int, float),
    "budget": int,
    "stall_bound": int,
    "nostall_bound": int,
    "duration": (int, float),
    "ops": int,
    "throughput": (int, float),
    "read_clean_tp": (int, float),
    "read_degraded_tp": (int, float),
    "read_live_ratio": (int, float),
    "accepted": int,
    "gave_up": int,
    "shed_ttl": int,
    "shed_all": int,
    "shed": int,
    "deadline_rejects": int,
    "retries": int,
    "expired": int,
    "max_unreclaimed": int,
    "post_quiesced": int,
    "max_level": str,
    "recovered": bool,
    "transitions": list,
    "mem_series": list,
    "faults": int,
    "final_size": int,
    "ok": bool,
    "verdict": str,
}

PRESSURE_LEVELS = ("healthy", "pressured", "degraded-ttl", "degraded-all")

PRESSURE_TRANSITION_KEYS = {
    "shard": int,
    "t": (int, float),
    "from": str,
    "to": str,
    "ratio": (int, float),
}


def fail(path, msg):
    sys.exit(f"{path}: INVALID: {msg}")


def require(path, obj, keys, where):
    for key, typ in keys.items():
        if key not in obj:
            fail(path, f"{where} missing key {key!r}")
        if not isinstance(obj[key], typ):
            fail(path, f"{where}.{key} has type {type(obj[key]).__name__}")


def validate(path):
    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(path, f"schema_version {doc.get('schema_version')!r}, "
                   f"expected {SCHEMA_VERSION}")
    for key in ("name", "created_unix", "git_rev", "host", "runs"):
        if key not in doc:
            fail(path, f"missing top-level key {key!r}")
    runs = doc["runs"]
    if not isinstance(runs, list) or not runs:
        fail(path, "runs must be a non-empty array")

    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if run.get("kind") == "chaos":
            require(path, run, CHAOS_RUN_KEYS, where)
            if run["point"] not in CHAOS_POINTS:
                fail(path, f"{where}.point = {run['point']!r}")
            if not 0 < run["workers"] < run["threads"] or \
                    run["workers"] + run["stalled"] != run["threads"]:
                fail(path, f"{where} workers+stalled != threads")
            bound = run.get("bound")
            if run["robust"]:
                if not isinstance(bound, int):
                    fail(path, f"{where} robust run needs an int bound")
                if run["ok"] and run["max_unreclaimed"] > bound:
                    fail(path, f"{where} ok but max_unreclaimed > bound")
            elif bound is not None:
                fail(path, f"{where} non-robust run must have bound null")
            last_t = -1.0
            for j, sample in enumerate(run["mem_series"]):
                if "t" not in sample or "unreclaimed" not in sample:
                    fail(path,
                         f"{where}.mem_series[{j}] missing t/unreclaimed")
                if sample["t"] < last_t:
                    fail(path,
                         f"{where}.mem_series[{j}] timestamps not ordered")
                last_t = sample["t"]
            continue
        if run.get("kind") == "recovery":
            require(path, run, RECOVERY_RUN_KEYS, where)
            if not 0 < run["crashed"] < run["threads"]:
                fail(path, f"{where} crashed must be in (0, threads)")
            for bound_key in ("peak_bound", "post_bound"):
                bound = run.get(bound_key)
                if run["robust"]:
                    if not isinstance(bound, int):
                        fail(path,
                             f"{where} robust run needs an int {bound_key}")
                elif bound is not None:
                    fail(path,
                         f"{where} non-robust run must have {bound_key} null")
            if run["ok"]:
                if run["recoveries"] < run["crashed"]:
                    fail(path, f"{where} ok but recoveries < crashed")
                if run["robust"]:
                    if run["max_unreclaimed"] > run["peak_bound"]:
                        fail(path,
                             f"{where} ok but max_unreclaimed > peak_bound")
                    if run["post_max_unreclaimed"] > run["post_bound"]:
                        fail(path, f"{where} ok but post-adoption gauge "
                                   f"over post_bound")
            if run["recovery_s"] < 0:
                fail(path, f"{where}.recovery_s negative")
            for j, ev in enumerate(run["events"]):
                require(path, ev, RECOVERY_EVENT_KEYS,
                        f"{where}.events[{j}]")
                if ev["action"] not in ("respawn", "abandon",
                                        "recover-at-stop"):
                    fail(path, f"{where}.events[{j}].action = "
                               f"{ev['action']!r}")
                if ev["reason"] not in ("crash", "heartbeat-timeout"):
                    fail(path, f"{where}.events[{j}].reason = "
                               f"{ev['reason']!r}")
            last_t = -1.0
            for j, sample in enumerate(run["mem_series"]):
                if "t" not in sample or "unreclaimed" not in sample:
                    fail(path,
                         f"{where}.mem_series[{j}] missing t/unreclaimed")
                if sample["t"] < last_t:
                    fail(path,
                         f"{where}.mem_series[{j}] timestamps not ordered")
                last_t = sample["t"]
            continue
        if run.get("kind") == "tune":
            require(path, run, TUNE_RUN_KEYS, where)
            if run["mode"] not in TUNE_MODES:
                fail(path, f"{where}.mode = {run['mode']!r}")
            if run["threshold"] < 1 or run["tuned_threshold"] < 1:
                fail(path, f"{where} thresholds must be positive")
            if run["mode"] in ("static", "oracle") and \
                    run["tuned_threshold"] != run["threshold"]:
                fail(path, f"{where} static run but tuned != threshold")
            speedup = run.get("speedup")
            if run["mode"] == "adaptive":
                if not isinstance(speedup, (int, float)) or speedup <= 0:
                    fail(path, f"{where} adaptive run needs a speedup")
            elif speedup is not None:
                fail(path, f"{where} non-adaptive run must not carry speedup")
            continue
        if run.get("kind") == "serve":
            require(path, run, SERVE_RUN_KEYS, where)
            if run["mode"] not in SERVE_MODES:
                fail(path, f"{where}.mode = {run['mode']!r}")
            if run["shards"] < 1 or run["batch_capacity"] < 1:
                fail(path, f"{where} shards/batch_capacity must be positive")
            if not 0 <= run["crashes"] < run["threads"]:
                fail(path, f"{where}.crashes must be in [0, threads)")
            if len(run["per_shard"]) != run["shards"]:
                fail(path, f"{where}.per_shard must have one row per shard")
            for j, row in enumerate(run["per_shard"]):
                require(path, row, SERVE_SHARD_KEYS, f"{where}.per_shard[{j}]")
                if row["shard"] != j:
                    fail(path, f"{where}.per_shard[{j}] out of order")
                if row["misses"] != row["ops"] - row["hits"]:
                    fail(path, f"{where}.per_shard[{j}] ops != hits+misses")
            if run["mode"] == "per-op":
                if run["occupancy"]:
                    fail(path, f"{where} per-op run with batch occupancy")
            for j, cell in enumerate(run["occupancy"]):
                if not isinstance(cell.get("size"), int) or \
                        not isinstance(cell.get("flushes"), int):
                    fail(path, f"{where}.occupancy[{j}] needs size/flushes")
                if not 1 <= cell["size"] <= run["batch_capacity"]:
                    fail(path, f"{where}.occupancy[{j}].size out of range")
            bound = run.get("bound")
            if bound is not None and not isinstance(bound, int):
                fail(path, f"{where}.bound must be int or null")
            if run["ok"]:
                if run["verdict"] != "ok":
                    fail(path, f"{where} ok but verdict {run['verdict']!r}")
                if len(run["recoveries"]) < run["crashes"]:
                    fail(path, f"{where} ok but recoveries < crashes")
                if bound is not None and run["post_quiesced"] > bound:
                    fail(path, f"{where} ok but post_quiesced > bound")
            for j, ev in enumerate(run["recoveries"]):
                require(path, ev, RECOVERY_EVENT_KEYS,
                        f"{where}.recoveries[{j}]")
            speedup = run.get("speedup")
            if speedup is not None and \
                    (not isinstance(speedup, (int, float)) or speedup <= 0):
                fail(path, f"{where}.speedup must be positive")
            last_t = -1.0
            for j, sample in enumerate(run["mem_series"]):
                if "t" not in sample or "unreclaimed" not in sample:
                    fail(path,
                         f"{where}.mem_series[{j}] missing t/unreclaimed")
                if sample["t"] < last_t:
                    fail(path,
                         f"{where}.mem_series[{j}] timestamps not ordered")
                last_t = sample["t"]
            continue
        if run.get("kind") == "pressure":
            require(path, run, PRESSURE_RUN_KEYS, where)
            if run["max_level"] not in PRESSURE_LEVELS:
                fail(path, f"{where}.max_level = {run['max_level']!r}")
            if run["shards"] < 1 or run["workers"] < 1 or run["domains"] < 1:
                fail(path, f"{where} shards/workers/domains must be positive")
            if run["shed"] != run["shed_ttl"] + run["shed_all"]:
                fail(path, f"{where} shed != shed_ttl + shed_all")
            if run["budget"] < 1:
                fail(path, f"{where}.budget must be positive")
            bound = run.get("bound")
            if run["robust"]:
                if not isinstance(bound, int):
                    fail(path, f"{where} robust run needs an int bound")
            elif bound is not None:
                fail(path, f"{where} non-robust run must have bound null")
            if run["ok"]:
                if run["verdict"] != "ok":
                    fail(path, f"{where} ok but verdict {run['verdict']!r}")
                if run["enforce"]:
                    # Graceful degradation means reads stayed live while
                    # writes were shed, and the post-run quiesce returned
                    # the gauge under the no-stall reference bound.
                    if run["shed"] > 0 and run["read_degraded_tp"] <= 0:
                        fail(path, f"{where} ok but reads died under shed")
                    if run["post_quiesced"] > run["nostall_bound"]:
                        fail(path, f"{where} ok but post_quiesced > "
                                   f"nostall_bound")
                    if not run["recovered"]:
                        fail(path, f"{where} ok enforcing run but not "
                                   f"recovered")
            for j, tr in enumerate(run["transitions"]):
                twhere = f"{where}.transitions[{j}]"
                require(path, tr, PRESSURE_TRANSITION_KEYS, twhere)
                if not 0 <= tr["shard"] < run["shards"]:
                    fail(path, f"{twhere}.shard out of range")
                for end in ("from", "to"):
                    if tr[end] not in PRESSURE_LEVELS:
                        fail(path, f"{twhere}.{end} = {tr[end]!r}")
            last_t = -1.0
            for j, sample in enumerate(run["mem_series"]):
                if "t" not in sample or "unreclaimed" not in sample:
                    fail(path,
                         f"{where}.mem_series[{j}] missing t/unreclaimed")
                if sample["t"] < last_t:
                    fail(path,
                         f"{where}.mem_series[{j}] timestamps not ordered")
                last_t = sample["t"]
            continue
        if run.get("kind") == "floor":
            require(path, run, FLOOR_RUN_KEYS, where)
            if run["throughput"] < 0 or run["ebr_throughput"] < 0:
                fail(path, f"{where} negative throughput")
            continue
        if run.get("kind") == "stall_cmp":
            require(path, run, STALL_CMP_RUN_KEYS, where)
            if run["point"] not in CHAOS_POINTS:
                fail(path, f"{where}.point = {run['point']!r}")
            if not run["runs"]:
                fail(path, f"{where}.runs must be non-empty")
            for j, entry in enumerate(run["runs"]):
                ewhere = f"{where}.runs[{j}]"
                require(path, entry, STALL_CMP_ENTRY_KEYS, ewhere)
                bound = entry.get("bound")
                if entry["robust"]:
                    if not isinstance(bound, int):
                        fail(path, f"{ewhere} robust entry needs an int bound")
                    if entry["ok"] and entry["max_unreclaimed"] > bound:
                        fail(path, f"{ewhere} ok but max_unreclaimed > bound")
                elif bound is not None:
                    fail(path, f"{ewhere} non-robust entry must have "
                               f"bound null")
            continue
        if run.get("kind") == "fuzz":
            require(path, run, FUZZ_RUN_KEYS, where)
            uaf_seed = run.get("uaf_seed")
            if uaf_seed is not None and not isinstance(uaf_seed, int):
                fail(path, f"{where}.uaf_seed must be int or null")
            if run["seeds"] < 0:
                fail(path, f"{where}.seeds negative")
            continue
        require(path, run, RUN_KEYS, where)
        mix = run["mix"]
        if sum(mix.get(k, -1) for k in
               ("read_pct", "insert_pct", "delete_pct")) != 100:
            fail(path, f"{where}.mix percentages do not sum to 100")
        if len(run["op_stats"]) != 3:
            fail(path, f"{where}.op_stats must have one entry per op kind")
        for j, stat in enumerate(run["op_stats"]):
            require(path, stat, OP_STAT_KEYS, f"{where}.op_stats[{j}]")
            if stat["op"] not in ("search", "insert", "delete"):
                fail(path, f"{where}.op_stats[{j}].op = {stat['op']!r}")
            if stat["count"] != stat["hits"] + stat["misses"]:
                fail(path, f"{where}.op_stats[{j}] hits+misses != count")
        if sum(s["count"] for s in run["op_stats"]) != run["ops"]:
            fail(path, f"{where} op_stats counts do not sum to ops")
        last_t = -1.0
        for j, sample in enumerate(run["mem_series"]):
            if "t" not in sample or "unreclaimed" not in sample:
                fail(path, f"{where}.mem_series[{j}] missing t/unreclaimed")
            if sample["t"] < last_t:
                fail(path, f"{where}.mem_series[{j}] timestamps not ordered")
            last_t = sample["t"]

    print(f"{path}: OK ({len(runs)} runs, schema v{SCHEMA_VERSION})")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for arg in sys.argv[1:]:
        validate(arg)
