#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 haacbench/smoke_test.py

Runs every workload in BENCHMARK.json for one second, untraced and
traced, and checks that the last stdout line is the result object with
zero failures, correct outputs, and exactly the metrics BENCHMARK.json
names (end_to_end untraced, per_layer traced), each with its unit.
Exits non-zero on the first violation. Takes about two minutes.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} trace={trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{where}: correct={result['correct']} "
                         f"failed={result['failed']}")
    if result["attempted"] < 1:
        raise SystemExit(f"{where}: attempted={result['attempted']}")
    got = result["metrics"]
    if sorted(got) != sorted(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise SystemExit(f"{where}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            raise SystemExit(f"{where}: {name} unit {got[name]['unit']}, "
                             f"want {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SystemExit(f"{where}: {name} = {value!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run(w["name"], trace)
            check(w["name"], trace, result, sets[trace])
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if v["value"] <= 0]
                if zero:
                    raise SystemExit(f"{w['name']}: non-positive {zero}")
            print(f"ok  {w['name']:16s} trace={trace}  "
                  f"{result['attempted']} sessions", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
