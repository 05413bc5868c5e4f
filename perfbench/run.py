"""Benchmark of the Table 1 sweep and the prediction service.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists and what it is made of):

* ``sweep-cold``  — a seeded Table 1 slice with every store and the resume
  journal empty, repeated in fresh interpreters for ``--seconds``;
* ``sweep-warm``  — the same slice replayed in fresh interpreters against
  stores an untimed preparation pass filled;
* ``serve-mixed`` — ``repro-paper serve`` answering an open-loop ladder of
  request rates from one generator process.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). A wrong output exits 1 with
``correct: false``; missing program sources exit 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import BenchFailure, require_program
from metrics import END_TO_END, PER_LAYER

WORKLOADS = ("sweep-cold", "sweep-warm", "serve-mixed")

def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a minutes-free input size for the benchmark's own tests")
    args = ap.parse_args(argv)
    require_program()

    if args.workload.startswith("sweep"):
        import sweeps

        outcome = sweeps.run(args)
    else:
        import serving

        outcome = serving.run(args)
    try:
        outcome.verify()
    except BenchFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        emit(False, outcome.attempted, outcome.failed,
             {k: 0.0 for k in (PER_LAYER if args.trace else END_TO_END)},
             PER_LAYER if args.trace else END_TO_END)
        return 1
    for line in outcome.report_lines():
        print(line)
    if args.trace:
        # Lets overhead.py set the traced figures against an untraced run.
        print("end-to-end under tracing: " + json.dumps(outcome.end_to_end()))
        emit(True, outcome.attempted, outcome.failed, outcome.per_layer(), PER_LAYER)
    else:
        emit(True, outcome.attempted, outcome.failed, outcome.end_to_end(), END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
