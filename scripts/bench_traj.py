#!/usr/bin/env python3
"""Normalize a BENCH_*.json trajectory for regen-and-diff CI checks.

Bench binaries append one RunReport JSON object per line (see
bench/harness.h RunLog). Most fields are deterministic — byte counts,
gate counts, cache/pool counters, outputs — but anything derived from
host wall-clock time varies per run and per machine. This script
strips exactly those fields (recursively, so nested net/serve sections
are covered) and re-emits the records with sorted keys, one per line,
so a freshly regenerated trajectory can be diffed byte-for-byte
against the committed one under bench/trajectories/.

Usage:
    bench_traj.py BENCH_net_wire_traffic.json            # to stdout
    bench_traj.py BENCH_server_qps.json -o normalized.json
"""

import argparse
import json
import sys

# Host-timing-derived fields; everything else must be deterministic.
VOLATILE = {
    "host_seconds",
    "modeled_seconds",
    "seconds",
    "gates_per_sec",
    "wire_bytes_per_sec",
    "queries_per_second",
    # Transport description ("loopback:a", "tcp:127.0.0.1:40123");
    # carries an ephemeral port for TCP benches.
    "endpoint",
}


def normalize(obj):
    if isinstance(obj, dict):
        return {
            k: normalize(v) for k, v in obj.items() if k not in VOLATILE
        }
    if isinstance(obj, list):
        return [normalize(v) for v in obj]
    return obj


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trajectory", help="BENCH_*.json (JSON Lines)")
    ap.add_argument("-o", "--output", help="write here instead of stdout")
    args = ap.parse_args()

    lines = []
    with open(args.trajectory) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            lines.append(
                json.dumps(normalize(json.loads(line)), sort_keys=True)
            )

    out = sys.stdout if args.output is None else open(args.output, "w")
    for line in lines:
        print(line, file=out)
    if args.output is not None:
        out.close()


if __name__ == "__main__":
    main()
