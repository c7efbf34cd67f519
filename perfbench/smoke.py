#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload on a tiny fleet, short window.

    python3 perfbench/smoke.py

For each workload (the ones BENCHMARK.json gates plus `tcp-walk`) it
runs the untraced and the traced
run with `--smoke` (96 agents in 4 daemons, 16 nodes per simulated site,
one set-up) and checks that

- the run exits 0 and its last line is the result object with
  `correct: true`;
- the result names exactly the benchmark's end-to-end metrics (untraced)
  or per-layer metrics (traced), each with its unit, and a row in the
  row schema was printed for each;
- the traced run wrote its spans and per-layer summary.

It also checks fleet hygiene: with a listener squatting on the first
daemon port, a TCP workload must refuse to start (exit 2, no result).
Exits 1 if any check fails.
"""

import json
import os
import socket
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASE_PORT = 24100
WORKLOADS = ["tcp-walk", "tcp-frontdoor-rw", "sim-geo8"]
ROW_KEYS = {"rev", "cores", "seed", "workload", "fleet", "clock", "reps", "median", "min", "max"}


def run(workload, trace, seconds="3"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", seconds, "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_run(bench, workload, trace):
    errors = []
    proc = run(workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}; stderr tail: {proc.stderr[-600:]}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["no result line"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')}")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got_units = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got_units != want_units:
        missing = sorted(set(want_units) - set(got_units))
        extra = sorted(set(got_units) - set(want_units))
        wrong = sorted(k for k in want_units if k in got_units and got_units[k] != want_units[k])
        errors.append(f"metrics differ: missing {missing}, extra {extra}, wrong unit {wrong}")
    rows = {}
    for line in lines[:-1]:
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if row.get("row") == "metric":
            rows[row["name"]] = row
    for name, unit in want_units.items():
        row = rows.get(name)
        if row is None:
            errors.append(f"no row for {name}")
        elif not ROW_KEYS <= set(row) or row.get("unit") != unit or row.get("workload") != workload:
            errors.append(f"row for {name} lacks the row schema: {row}")
    if trace:
        for f in [f"spans-{workload}-seed1.tsv", f"layers-{workload}-seed1.jsonl"]:
            path = os.path.join(ROOT, ".bench_out", f)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                errors.append(f"traced run wrote no {f}")
    return errors


def check_port_refusal():
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", BASE_PORT))
    sock.listen(8)
    try:
        proc = run("tcp-walk", 0, seconds="1")
    finally:
        sock.close()
    errors = []
    if proc.returncode != 2:
        errors.append(f"exit code {proc.returncode} with a squatted port (want 2)")
    if '"correct"' in proc.stdout:
        errors.append("printed a result despite the squatted port")
    if "refusing to start" not in proc.stderr:
        errors.append("no refusal message")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    for w in WORKLOADS:
        for trace in (0, 1):
            errors = check_run(bench, w, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{w} trace={trace}: {status}", flush=True)
            for e in errors:
                print(f"  {e}")
            failed |= bool(errors)
    errors = check_port_refusal()
    print(f"port hygiene: {'ok' if not errors else 'FAIL'}")
    for e in errors:
        print(f"  {e}")
    failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
