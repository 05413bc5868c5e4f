"""Untimed preparation for ``serve-mixed`` (run by ``run.py``).

Warms the profile and artifact stores in ``--stores`` for the default GPU
and ``--gpu``, makes the seeded request schedule, and pre-fills the response
store with the schedule's pre-filled keys through the batch engine (the same
prompt builder and cache key the server uses). The last stdout line is one
JSON object: the schedule, the prompts of the keys the checks re-ask, and
each GPU's balanced samples with their counters.

    python3 perfbench/serve_prep.py --stores DIR --seed 1 --gpu A100 \\
        --jobs 2 --seconds 20 --size full
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

import loadgen
from common import use_program

#: (rate req/s, share of --seconds, is the reference step). At 20 s the
#: reference step holds 1080 requests, and the top step 2000 requests
#: offered at 1000 req/s, several times what the server completes (about
#: 200-300 req/s on two CPUs), so that step measures the server's capacity.
LADDERS = {
    "full": ((30, 0.1, False), (60, 0.9, True), (1000, 0.1, False)),
    "tiny": ((10, 0.5, False), (20, 0.5, True), (1000, 0.1, False)),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--stores", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--gpu", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=tuple(LADDERS), required=True)
    args = ap.parse_args(argv)

    use_program()
    from repro.dataset import paper_dataset
    from repro.eval.engine import DiskResponseStore, EvalEngine
    from repro.eval.matrix import scenario_samples
    from repro.gpusim.store import ProfileStore, set_active_profile_store
    from repro.llm.registry import MODEL_NAMES, get_model
    from repro.prompts import build_classify_prompt, get_variant
    from repro.roofline.hardware import get_gpu
    from repro.store.text import ArtifactCache, set_active_artifact_cache

    root = args.stores
    set_active_profile_store(ProfileStore(os.path.join(root, "profiles")))
    set_active_artifact_cache(ArtifactCache(os.path.join(root, "artifacts")))
    spec = get_gpu(args.gpu)
    samples = {
        "": {s.uid: s for s in paper_dataset(jobs=args.jobs).balanced},
        spec.name: {s.uid: s for s in scenario_samples(spec, jobs=args.jobs)},
    }
    schedule = loadgen.make_schedule(
        sorted(samples[""]), MODEL_NAMES, ["", spec.name], LADDERS[args.size],
        seed=args.seed, seconds=args.seconds,
    )

    def prompt(index: int) -> str:
        uid, _model, variant, gpu = schedule["keys"][index]
        return build_classify_prompt(
            samples[gpu][uid], variant=get_variant(variant),
            gpu=spec if gpu else None,
        ).text

    by_model = defaultdict(list)
    for index in schedule["prefilled"]:
        by_model[schedule["keys"][index][1]].append((str(index), prompt(index), None))
    engine = EvalEngine(jobs=args.jobs, store=DiskResponseStore(os.path.join(root, "responses")))
    for model, items in sorted(by_model.items()):
        engine.run(get_model(model), items)

    out = {
        "schedule": schedule,
        "reanswer": [
            [schedule["keys"][i][1], prompt(i), i] for i in schedule["reanswer"]
        ],
        "samples": {
            gpu: [
                [s.uid, s.language.value, s.label.value, s.counters.to_dict(), s.gpu_name]
                for s in index.values()
            ]
            for gpu, index in samples.items()
        },
        "prefilled_entries": engine.stats.misses,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
