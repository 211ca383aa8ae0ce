#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts written by bench/bench_report.hpp.

Usage: validate_bench_json.py FILE [FILE...]

Checks each artifact against the version-1 schema: required top-level
fields, a non-empty benchmarks array, and sane per-benchmark numbers.
The embedded "telemetry" report (QIRKIT_BENCH_TELEMETRY=1) carries its
own, independently versioned --stats schema. Exits non-zero with a
message on the first violation. Stdlib only, so it runs anywhere CI has
a python3.
"""
import json
import sys

SCHEMA_VERSION = 1

# telemetry::kStatsSchemaVersion: the --stats document embedded as
# "telemetry" (bench/bench_report.hpp versions the two separately).
TELEMETRY_SCHEMA_VERSION = 2

# Serve-mode benchmarks must report iteration-latency percentiles so the
# artifact carries the tail, not just the mean.
PERCENTILE_KEYS = ("p50_ns", "p95_ns", "p99_ns")

# Kernel-throughput benchmarks must report the amplitudes-touched-per-
# second rate (and the qubit count it was measured at), so CI diffs carry
# the bandwidth figure the cache blocking exists to raise.
KERNEL_KEYS = ("qubits", "amps_per_sec")

# Dispatch benchmarks must report bytecode instructions retired per
# second, so CI diffs carry the dispatch loop's throughput on each of
# BM_Dispatch's programs.
DISPATCH_KEYS = ("instr_per_sec",)


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"not readable as JSON: {e}")

    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(path, f"schema_version must be {SCHEMA_VERSION}, "
                   f"got {doc.get('schema_version')!r}")
    if doc.get("tool") != "qirkit-bench":
        fail(path, f"tool must be 'qirkit-bench', got {doc.get('tool')!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(path, "bench must be a non-empty string")

    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        fail(path, "benchmarks must be a non-empty array")
    for i, b in enumerate(benchmarks):
        where = f"benchmarks[{i}]"
        if not isinstance(b, dict):
            fail(path, f"{where} is not an object")
        if not isinstance(b.get("name"), str) or not b["name"]:
            fail(path, f"{where}.name must be a non-empty string")
        if not isinstance(b.get("iterations"), int) or b["iterations"] <= 0:
            fail(path, f"{where}.iterations must be a positive integer")
        for key in ("real_time_ns", "cpu_time_ns"):
            if not isinstance(b.get(key), (int, float)) or b[key] < 0:
                fail(path, f"{where}.{key} must be a non-negative number")
        if not isinstance(b.get("counters"), dict):
            fail(path, f"{where}.counters must be an object")
        if b["name"].startswith("BM_Serve"):
            counters = b["counters"]
            for key in PERCENTILE_KEYS:
                if not isinstance(counters.get(key), (int, float)) \
                        or counters[key] < 0:
                    fail(path, f"{where}.counters.{key} must be a "
                               f"non-negative number for serve benchmarks")
            if counters["p50_ns"] > counters["p95_ns"] \
                    or counters["p95_ns"] > counters["p99_ns"]:
                fail(path, f"{where}.counters percentiles must be "
                           f"non-decreasing (p50 <= p95 <= p99)")
        if b["name"].startswith("BM_Kernel/"):
            counters = b["counters"]
            for key in KERNEL_KEYS:
                if not isinstance(counters.get(key), (int, float)) \
                        or counters[key] <= 0:
                    fail(path, f"{where}.counters.{key} must be a "
                               f"positive number for kernel benchmarks")
        if b["name"].startswith("BM_Dispatch/"):
            counters = b["counters"]
            for key in DISPATCH_KEYS:
                if not isinstance(counters.get(key), (int, float)) \
                        or counters[key] <= 0:
                    fail(path, f"{where}.counters.{key} must be a "
                               f"positive number for dispatch benchmarks")

    telemetry = doc.get("telemetry")
    if telemetry is not None:
        if not isinstance(telemetry, dict):
            fail(path, "telemetry must be an object when present")
        if telemetry.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
            fail(path, f"telemetry.schema_version must be "
                       f"{TELEMETRY_SCHEMA_VERSION}, "
                       f"got {telemetry.get('schema_version')!r}")

    print(f"{path}: OK ({len(benchmarks)} benchmarks)")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        validate(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
