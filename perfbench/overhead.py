"""Tracing overhead: one workload run untraced and traced on the same seed.

    python3 perfbench/overhead.py --workload sweep-warm --seed 1

Prints each end-to-end metric of both runs and the traced run's change, then
the traced run's own report (per-layer figures and how span self times
reconcile with wall time).
"""

from __future__ import annotations

import argparse
import json
import sys

from stability import run_lines

MARK = "end-to-end under tracing: "


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    plain = json.loads(run_lines(args.workload, args.seed, 0)[-1])["metrics"]
    traced_lines = run_lines(args.workload, args.seed, 1)
    traced = json.loads(next(l for l in traced_lines if l.startswith(MARK))[len(MARK):])
    print(f"{args.workload}, seed {args.seed}: untraced vs traced")
    for name, metric in plain.items():
        before, after = metric["value"], traced[name]
        print(f"  {name:<12} {before:>12.5g} {after:>12.5g}  {(after - before) / before:+.1%}")
    per_layer = json.loads(traced_lines[-1])["metrics"]
    for line in traced_lines[:-1]:
        if not line.startswith(MARK):
            print(line)
    for name, metric in per_layer.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
