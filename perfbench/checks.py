"""Output checks: the program's answers against the benchmark's own
computations and against properties the method must have.

Each check raises :class:`~common.BenchFailure` naming the first wrong
output. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

from collections import Counter

from common import BenchFailure

COMPUTE, BANDWIDTH = "CB", "BB"


def fail(message: str) -> None:
    raise BenchFailure(message)


def kernel_label(counters: dict, gpu) -> str:
    """Compute-bound iff some op class's ops over DRAM bytes reaches that
    GPU's peak over its bandwidth (the paper's labelling rule, §2.1)."""
    dram = counters["dram_read_bytes"] + counters["dram_write_bytes"]
    for ops, peak in (
        (counters["sp_flops"], gpu.sp_peak_gflops),
        (counters["dp_flops"], gpu.dp_peak_gflops),
        (counters["int_ops"], gpu.int_peak_giops),
    ):
        if ops / dram >= peak / gpu.bandwidth_gbs:
            return COMPUTE
    return BANDWIDTH


def rq1_truth(question) -> str:
    """A question's answer from its own numbers: below the balance point
    is bandwidth-bound."""
    balance = question.peak_gflops / question.bandwidth_gbs
    return BANDWIDTH if question.ai < balance else COMPUTE


def accuracy_from(records) -> float:
    """Accuracy ×100 counted from ``[item_id, truth, prediction]`` records."""
    if not records:
        fail("an experiment cell has no records")
    right = sum(1 for _, truth, pred in records if pred == truth)
    return 100.0 * right / len(records)


def same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_labels(samples, gpus) -> dict[str, str]:
    """Every ``[uid, language, label, counters, gpu name]`` sample's label
    equals the recomputation on its GPU. Returns uid → label."""
    labels = {}
    for uid, _language, label, counters, gpu_name in samples:
        mine = kernel_label(counters, gpus[gpu_name])
        if label != mine:
            fail(f"sample {uid} on {gpu_name}: label {label}, recomputed {mine}")
        labels[uid] = label
    return labels


def check_balanced(balanced, gpus) -> dict[str, str]:
    """The balanced set: 340 samples, four equal (language, label) cells,
    every label equal to the recomputation. Returns uid → label."""
    if len(balanced) != 340:
        fail(f"balanced set holds {len(balanced)} samples, not 340")
    labels = check_labels(balanced, gpus)
    cells = Counter((language, label) for _, language, label, _, _ in balanced)
    if len(cells) != 4 or len(set(cells.values())) != 1:
        fail(f"balanced cells are not four equal cells: {dict(cells)}")
    return labels


def split_runs(runs):
    """Tag each captured engine run with its Table 1 cell: ``("rq1",
    shots, cot)``, ``("rq2",)`` or ``("rq3",)``. ``build_table1`` runs
    RQ1's cells, then RQ2, then RQ3, model by model."""
    tagged = []
    classification_seen: Counter = Counter()
    for run in runs:
        first = run["records"][0][0]
        if first.startswith("rq1-"):
            _, _, shots, mode = first.split("-")
            tagged.append((("rq1", shots, mode == "cot"), run))
        else:
            n = classification_seen[run["model"]]
            classification_seen[run["model"]] += 1
            tagged.append(((("rq2",), ("rq3",))[n], run))
    return tagged


def check_sweep(result: dict, *, questions, gpus) -> None:
    """Labels, RQ1 truths, accuracies and the store/engine properties of
    one sweep child's result."""
    labels = check_balanced(result["balanced"], gpus)
    tagged = split_runs(result["runs"])
    reported = {}
    for row in result["rows"]:
        if row["rq1"] is not None:
            for mode, by_shots in row["rq1"].items():
                for shots, acc in by_shots.items():
                    reported[(row["model"], ("rq1", shots, mode == "cot"))] = acc
        reported[(row["model"], ("rq2",))] = row["rq2"]
        reported[(row["model"], ("rq3",))] = row["rq3"]
    if len(reported) != len(tagged):
        fail(f"{len(reported)} reported Table 1 cells, {len(tagged)} engine runs")

    total = 0
    for cell, run in tagged:
        records = run["records"]
        total += len(records)
        if run["failures"]:
            fail(f"{run['model']} {cell}: {run['failures']} failed units")
        for item_id, truth, _pred in records:
            if cell[0] == "rq1":
                mine = rq1_truth(questions[int(item_id.split("-")[1])])
                if truth != mine:
                    fail(f"{run['model']} {item_id}: truth {truth}, recomputed {mine}")
            elif truth != labels.get(item_id):
                fail(f"{run['model']} {item_id}: truth {truth}, label {labels.get(item_id)}")
        counted = accuracy_from(records)
        if not same(run["accuracy"], counted):
            fail(f"{run['model']} {cell}: accuracy {run['accuracy']}, records give {counted}")
        key = (run["model"], cell)
        if key not in reported or not same(reported[key], counted):
            fail(f"{run['model']} {cell}: Table 1 reports {reported.get(key)}, records give {counted}")

    if result["units"] != total or result["hits"] + result["misses"] != total:
        fail(f"{total} records but engine counted {result['units']} units "
             f"({result['hits']} hits + {result['misses']} misses)")
    if result["failed"]:
        fail(f"{result['failed']} units failed")
    if result["store_missing"]:
        fail(f"{result['store_missing']} swept keys are missing from the store")


def check_cold(result: dict) -> None:
    """Every unit resolved once; one store entry and one journal line per
    distinct key, so lost writes show."""
    keys = result["distinct_keys"]
    if result["misses"] != keys:
        fail(f"cold sweep computed {result['misses']} completions for {keys} distinct keys")
    if result["store_entries"] != keys:
        fail(f"store holds {result['store_entries']} entries for {keys} distinct keys")
    if result["journaled"] != keys:
        fail(f"journal holds {result['journaled']} units for {keys} distinct keys")


def check_warm(result: dict, prepared: dict) -> None:
    """A warm replay computes nothing and reproduces the preparation
    pass's results exactly."""
    if result["completions"]:
        fail(f"warm replay made {result['completions']} completions")
    if result["hits"] != result["units"]:
        fail(f"warm replay: {result['hits']} hits of {result['units']} units")
    ours = [r["digest"] for r in result["runs"]]
    theirs = [r["digest"] for r in prepared["runs"]]
    if ours != theirs:
        differing = sum(a != b for a, b in zip(ours, theirs)) + abs(len(ours) - len(theirs))
        fail(f"warm replay: {differing} engine runs' digests differ from the preparation pass")
    if result["store_entries"] != prepared["store_entries"]:
        fail(f"warm replay changed the store: {prepared['store_entries']} → "
             f"{result['store_entries']} entries")


def prediction_of(text: str, boundedness) -> str | None:
    """The label a response text states, or None when it states none."""
    try:
        return boundedness.from_word(text).value
    except ValueError:
        return None


def check_reanswers(units, get_model, boundedness) -> None:
    """Each ``(model, prompt, response text, prediction)`` equals a direct
    call of the model (no store, engine or server in between), and the
    record's prediction is the label that direct answer states."""
    for model_name, prompt, text, prediction in units:
        direct = get_model(model_name).complete(prompt).text
        if direct != text:
            fail(f"{model_name}: served {text!r}, the model answers {direct!r}")
        mine = prediction_of(direct, boundedness)
        if prediction != mine:
            fail(f"{model_name}: recorded prediction {prediction}, the model's "
                 f"answer {direct!r} states {mine}")


def check_serve_responses(responses, labels_by_gpu) -> None:
    """Every served classification: its truth equals the recomputed label
    of that uid on that GPU, and ``correct`` agrees with the prediction."""
    for body in responses:
        gpu = body["gpu"] or ""
        truth = labels_by_gpu[gpu].get(body["uid"])
        word = {COMPUTE: "Compute", BANDWIDTH: "Bandwidth"}.get(truth)
        if body["truth"] != word:
            fail(f"{body['uid']} on {gpu or 'default GPU'}: truth {body['truth']}, recomputed {word}")
        if body["correct"] != (body["prediction"] == body["truth"]):
            fail(f"{body['uid']}: correct={body['correct']} for prediction {body['prediction']}")


def check_serve_counters(delta: dict, *, ok: int, fresh_keys: int) -> None:
    """Hits + misses + coalesced account for every successful request, and
    every key that was not pre-filled is computed exactly once."""
    served = delta["hits"] + delta["misses"] + delta["coalesced"]
    if served != ok:
        fail(f"{ok} successful requests but {delta['hits']} hits + "
             f"{delta['misses']} misses + {delta['coalesced']} coalesced = {served}")
    if delta["misses"] != fresh_keys:
        fail(f"{delta['misses']} misses for {fresh_keys} keys that were not pre-filled")
