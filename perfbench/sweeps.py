"""The ``sweep-cold`` and ``sweep-warm`` workloads.

A run is whole rounds; each round is one ``sweep_child.py`` process, so set-up
is measured once per round and every figure is the median over the rounds.

* ``sweep-cold``: each round gets fresh, empty stores and journal.
* ``sweep-warm``: one untimed preparation round (a cold sweep of the same
  slice, same code) fills the stores; every timed round replays the slice
  against them without a journal, as a second ``repro-paper table1`` would.
"""

from __future__ import annotations

import time
from statistics import median

import checks
from metrics import layer_metrics
from common import (
    cpu_count, fresh_dir, python_cmd, remove_dir, run_ready_child,
    side_file, uncontended, use_program,
)

#: (RQ1 rooflines, RQ2/RQ3 samples, units re-answered per round).
SIZES = {"full": (20, 20, 24), "tiny": (2, 4, 4)}

#: A child is killed after this long; a healthy round takes seconds.
CHILD_TIMEOUT_S = 150.0


def _round(stores, args, *, journal: bool, trace: bool, chrome: str = ""):
    rooflines, samples, reanswer = SIZES[args.size]
    cmd = python_cmd(
        "sweep_child.py", "--stores", stores, "--seed", args.seed,
        "--rooflines", rooflines, "--samples", samples, "--jobs", cpu_count(),
        "--journal", int(journal), "--trace", int(trace), "--reanswer", reanswer,
        "--chrome", chrome,
    )
    return run_ready_child(cmd, timeout=CHILD_TIMEOUT_S, stderr_path=side_file(stores, ".stderr"))


class SweepOutcome:
    def __init__(self, workload: str, args):
        self.workload = workload
        self.args = args
        self.prepared: dict | None = None
        #: ((seconds to READY, host steal share meanwhile), child result)
        self.rounds: list[tuple[tuple[float, float], dict]] = []

    @property
    def attempted(self) -> int:
        return sum(r["units"] for _, r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for _, r in self.rounds)

    def verify(self) -> None:
        use_program()
        from repro.llm.registry import get_model
        from repro.prompts.rq1 import generate_rq1_questions
        from repro.roofline.hardware import GPU_DATABASE
        from repro.types import Boundedness

        questions = generate_rq1_questions(SIZES[self.args.size][0])
        results = [r for _, r in self.rounds]
        cold = [self.prepared] if self.prepared else results
        for result in results + ([self.prepared] if self.prepared else []):
            checks.check_sweep(result, questions=questions, gpus=GPU_DATABASE)
        for result in cold:
            checks.check_cold(result)
        for result in results:
            if self.prepared is not None:
                checks.check_warm(result, self.prepared)
            checks.check_reanswers(result["reanswer"], get_model, Boundedness)

    def end_to_end(self) -> dict[str, float]:
        per_round = [
            {
                "setup_s": uncontended(*setup),
                "units_per_s": r["units"] / uncontended(r["sweep_s"], r["sweep_steal"]),
                "disk_mb": r["disk_bytes"] / 2**20,
                "peak_rss_mb": r["peak_rss_mb"],
            }
            for setup, r in self.rounds
        ]
        return {k: median([m[k] for m in per_round]) for k in per_round[0]}

    def per_layer(self) -> dict[str, float]:
        per_round = []
        for _, r in self.rounds:
            m = layer_metrics(r["layers"], r["counters"])
            m["eval.units"] = float(r["units"])
            m["eval.hits"] = float(r["hits"])
            m["eval.completions"] = float(r["completions"])
            m["eval.hit_ratio"] = r["hits"] / r["units"]
            m["eval.retries"] = float(r["retries"])
            m["eval.failed"] = float(r["failed"])
            m["store.live_bytes"] = float(r["store_live_bytes"])
            m["store.write_amplification"] = (
                m["store.flush.write_bytes"] / r["store_live_bytes"]
            )
            m["proc.cpu_s"] = r["cpu_s"]
            per_round.append(m)
        return {k: median([m[k] for m in per_round]) for k in per_round[0]}

    def report_lines(self) -> list[str]:
        lines = []
        for i, ((setup_s, setup_steal), r) in enumerate(self.rounds):
            lines.append(
                f"round {i}: setup {setup_s:.3f}s (host steal {setup_steal:.1%}), "
                f"{r['units']} units in {r['sweep_s']:.3f}s (host steal "
                f"{r['sweep_steal']:.1%}; {r['hits']} hits, {r['completions']} "
                f"completions), disk {r['disk_bytes']} B, rss {r['peak_rss_mb']:.1f} MB"
            )
            rc = r.get("reconcile")
            if rc:
                lines.append(
                    f"  trace: sweep wall {rc['wall_s']:.3f}s; span self times sum "
                    f"to {rc['sum_self_s']:.3f}s = wall + {rc['concurrent_s']:.3f}s "
                    f"run concurrently on worker threads; "
                    f"{rc['unattributed_s']:.3f}s outside any layer span"
                )
        return lines


def run(args) -> SweepOutcome:
    outcome = SweepOutcome(args.workload, args)
    warm = args.workload == "sweep-warm"
    prep_dir = None
    try:
        if warm:
            prep_dir = fresh_dir("sweep-warm")
            _, outcome.prepared = _round(prep_dir, args, journal=True, trace=False)
        deadline = time.perf_counter() + args.seconds
        while not outcome.rounds or time.perf_counter() < deadline:
            stores = prep_dir if warm else fresh_dir("sweep-cold")
            chrome = ""
            if args.trace and not outcome.rounds:
                chrome = f"trace-{args.workload}-seed{args.seed}.json"
            try:
                outcome.rounds.append(
                    _round(stores, args, journal=not warm, trace=bool(args.trace),
                           chrome=chrome)
                )
            finally:
                if not warm:
                    remove_dir(stores)
    finally:
        if prep_dir is not None:
            remove_dir(prep_dir)
    return outcome
