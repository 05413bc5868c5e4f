"""Run one workload several times and report how steady each metric is.

    python3 perfbench/stability.py --workload sweep-cold --runs 10 --seed 1 \\
        --save set1.json
    python3 perfbench/stability.py --workload sweep-cold --runs 10 --seed 101 \\
        --against set1.json

Each run uses the next seed. Per end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, against the
metric's bound in ``BENCHMARK.json``; a spread under a third of the bound is
marked steady. ``--against`` also compares this set's medians with a saved
set's, against the same bounds, and the shares of failed operations.
Every run lasts ``run_seconds`` of ``BENCHMARK.json``, the length the bounds
were set at. Exits 1 when a spread exceeds its bound, a median moved by more
than its bound, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, child_env, load_benchmark, python_cmd


def run_lines(workload: str, seed: int, trace: int) -> list[str]:
    """The stdout lines of one ``run.py`` run of ``run_seconds``."""
    proc = subprocess.run(
        python_cmd("run.py", "--workload", workload, "--seed", seed,
                   "--seconds", load_benchmark()["run_seconds"], "--trace", trace),
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} --trace {trace} exited {proc.returncode}:\n"
            f"{proc.stderr[-3000:]}"
        )
    return proc.stdout.strip().splitlines()


def spread(values) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--save", default="", help="write the runs' results here")
    ap.add_argument("--against", default="", help="a --save file to compare with")
    args = ap.parse_args(argv)

    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.seed + i
        out = json.loads(run_lines(args.workload, seed, 0)[-1])
        if not out["correct"]:
            raise SystemExit(f"seed {seed}: output check failed")
        results.append(out)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in out["metrics"].items()
        ), flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(results, fh)

    bad = False
    print(f"\n{args.workload}: {len(results)} runs of {bench['run_seconds']}s")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for name, spec in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, sp = spread(values)
        verdict = "steady" if sp < spec["bound"] / 3 else "ok" if sp <= spec["bound"] else "TOO WIDE"
        bad |= sp > spec["bound"]
        print(f"{name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{sp:>9.3f}{spec['bound']:>7.2f}  {verdict}")
    share = [r["failed"] / r["attempted"] for r in results]
    print(f"failed share: {sorted(set(share))}")

    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)
        print(f"\nmedian change against {args.against} (positive = worse):")
        for name, spec in bounds.items():
            old = statistics.median(r["metrics"][name]["value"] for r in before)
            new = statistics.median(r["metrics"][name]["value"] for r in results)
            worse = (new - old) / old * (1 if spec["better"] == "lower" else -1)
            flag = "REGRESSED" if worse > spec["bound"] else "ok"
            bad |= worse > spec["bound"]
            print(f"{name:<14}{old:>12.5g} -> {new:<12.5g}{worse:>+8.3f}  {flag}")
        old_share = sorted({r["failed"] / r["attempted"] for r in before})
        if old_share != sorted(set(share)):
            print(f"failed shares differ: {old_share} vs {sorted(set(share))}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
