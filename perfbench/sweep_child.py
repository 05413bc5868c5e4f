"""One Table 1 slice sweep in a fresh interpreter (run by ``run.py``).

Set-up attaches the three stores in ``--stores`` (the response store with
its resume journal when ``--journal``), then builds the paper dataset; the
line ``READY`` marks the end of set-up. The sweep is
``repro.eval.table1.build_table1`` over all nine models: RQ1 on
``--rooflines`` rooflines and RQ2/RQ3 on a ``--seed``-chosen subset of
``--samples`` balanced samples. The last stdout line is one JSON object with
the timings, the engine's counters, and everything the output checks need.

    python3 perfbench/sweep_child.py --stores DIR --seed 1 --rooflines 20 \\
        --samples 20 --jobs 2 --journal 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys

from common import OUT_DIR, HostMeter, dir_bytes, use_program
import spans


def seeded_subset(balanced, count: int, seed: int) -> list:
    """``count`` samples, one drawn by ``seed`` from each of ``count``
    equal strata of the balanced set ordered by token count: every seed
    sees the same spread of prompt lengths, which sets the model's cost."""
    ordered = sorted(balanced, key=lambda s: (s.token_count, s.uid))
    rng = random.Random(seed)
    edges = [len(ordered) * i // count for i in range(count + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--stores", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rooflines", type=int, required=True)
    ap.add_argument("--samples", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--journal", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reanswer", type=int, default=24,
                    help="units handed to the direct re-answer check")
    ap.add_argument("--chrome", default="",
                    help="file name for the Chrome trace (trace runs only)")
    args = ap.parse_args(argv)

    use_program()
    rec = spans.Recorder(trace=bool(args.trace))
    with rec.span("bench.setup"):
        spans.install(rec)
        import repro.dataset
        from repro.eval.engine import DiskResponseStore, EvalEngine, cache_key
        from repro.eval.journal import SweepJournal
        from repro.eval.table1 import build_table1
        from repro.gpusim.store import ProfileStore, set_active_profile_store
        from repro.llm.registry import get_model
        from repro.store.text import ArtifactCache, set_active_artifact_cache

        root = args.stores
        set_active_profile_store(ProfileStore(os.path.join(root, "profiles")))
        set_active_artifact_cache(ArtifactCache(os.path.join(root, "artifacts")))
        store = DiskResponseStore(os.path.join(root, "responses"))
        journal_path = os.path.join(root, "responses", "sweep-journal.jsonl")
        journal = SweepJournal(journal_path) if args.journal else None
        engine = EvalEngine(jobs=args.jobs, store=store, journal=journal)
        ds = repro.dataset.paper_dataset(jobs=args.jobs)
    print("READY", flush=True)

    samples = seeded_subset(ds.balanced, args.samples, args.seed)
    cpu_before = os.times()
    with rec.span("bench.sweep"):
        meter = HostMeter()
        table = build_table1(samples, num_rooflines=args.rooflines, engine=engine)
        sweep_s, sweep_steal = meter.stop()
    cpu_after = os.times()
    rec.trace = False  # the bookkeeping below is not part of the sweep

    runs = []
    keys: set[str] = set()
    for run in rec.runs:
        result = run["result"]
        records = [
            [r.item_id, r.truth.value, r.prediction.value if r.prediction else None]
            for r in result.records
        ]
        runs.append({
            "model": run["model"],
            "records": records,
            "accuracy": result.metrics().accuracy,
            "digest": result.digest(),
            "failures": len(result.failures),
        })
        config = get_model(run["model"]).config
        keys.update(cache_key(config, prompt) for _, prompt, _ in run["items"])

    # Re-open the store from disk: only what was really written counts.
    reopened = DiskResponseStore(os.path.join(root, "responses"))
    missing = sum(1 for k in keys if reopened.get(k) is None)
    journaled = 0
    if os.path.exists(journal_path):
        with open(journal_path, encoding="utf-8") as fh:
            journaled = sum(1 for line in fh if '"unit"' in line)

    rng = random.Random(args.seed * 7919 + 1)
    units = [
        (run["model"], item[1], rec_.response_text,
         rec_.prediction.value if rec_.prediction else None)
        for run in rec.runs
        for item, rec_ in zip(run["items"], run["result"].records)
    ]
    reanswer = rng.sample(units, min(args.reanswer, len(units)))

    rows = []
    for row in table.rows:
        rows.append({
            "model": row.model_name,
            "rq1": None if row.rq1 is None else {
                "plain": {str(k): v for k, v in row.rq1.accuracy_by_shots.items()},
                "cot": {str(k): v for k, v in row.rq1.accuracy_by_shots_cot.items()},
            },
            "rq2": row.rq2.metrics.accuracy,
            "rq3": row.rq3.metrics.accuracy,
        })

    balanced = [
        [s.uid, s.language.value, s.label.value, s.counters.to_dict(), s.gpu_name]
        for s in ds.balanced
    ]
    stats = engine.stats
    out = {
        "sweep_s": sweep_s,
        "sweep_steal": sweep_steal,
        "units": stats.total,
        "hits": stats.hits,
        "misses": stats.misses,
        "completions": stats.completions,
        "retries": stats.retries,
        "failed": stats.failed,
        "disk_bytes": dir_bytes(root),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": (cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system),
        "distinct_keys": len(keys),
        "store_entries": len(reopened),
        "store_missing": missing,
        "journaled": journaled,
        "runs": runs,
        "rows": rows,
        "balanced": balanced,
        "reanswer": reanswer,
    }
    if args.trace:
        out["layers"] = rec.layer_totals()
        out["counters"] = dict(rec.counters)
        out["reconcile"] = rec.reconcile("bench.sweep")
        out["store_live_bytes"] = dir_bytes(root) - (
            os.path.getsize(journal_path) if os.path.exists(journal_path) else 0
        )
        if args.chrome:
            rec.write_chrome_trace(OUT_DIR / args.chrome, process_name="sweep")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
