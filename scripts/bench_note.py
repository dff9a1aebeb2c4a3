#!/usr/bin/env python3
"""Report-only throughput note: compares a freshly generated
BENCH_streaming.json against the previously committed one.

Usage: bench_note.py OLD.json NEW.json

Prints per-workload simulated-cycles-per-second for the streaming
pipeline shape against the old artifact's streaming row, plus the
ratio. Handles both the v1 schema (per-shape ops_per_sec only —
cycles/sec is derived) and v2/v3 (sim_cycles_per_sec recorded
directly). Always exits 0: this is a
trend note for reviewers, never a gate — the boxes running tier-1
differ too much for wall-clock to be a hard failure.
"""

import json
import sys


def rows(doc):
    out = {}
    for r in doc.get("results", []):
        ops = r.get("trace_ops", 0)
        cycles = r.get("sim_cycles", 0)
        s = r.get("streaming")
        if not isinstance(s, dict):
            continue
        cps = s.get("sim_cycles_per_sec")
        if cps is None and ops:
            # v1 artifact: derive cycles/sec from ops/sec.
            cps = cycles * s.get("ops_per_sec", 0) / ops
        if cps:
            out[r.get("workload", "?")] = cps
    return out


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} OLD.json NEW.json")
        return
    try:
        with open(sys.argv[1]) as f:
            old = rows(json.load(f))
        with open(sys.argv[2]) as f:
            new = rows(json.load(f))
    except (OSError, ValueError) as e:
        print(f"bench note skipped: {e}")
        return

    print(f"{'workload':<10} {'old cyc/s':>12} {'new cyc/s':>12} {'ratio':>7}")
    for workload, current in new.items():
        previous = old.get(workload)
        if previous:
            print(
                f"{workload:<10} {previous:>12.0f} {current:>12.0f} "
                f"{current / previous:>6.2f}x"
            )
        else:
            print(f"{workload:<10} {'-':>12} {current:>12.0f} {'new':>7}")
    print("(report-only throughput note; never a tier-1 gate)")


if __name__ == "__main__":
    main()
