"""The benchmark's own tests: every workload runs to its end at a tiny size,
and every output check fails on a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
from common import ROOT, BenchFailure, child_env, fresh_dir, python_cmd, remove_dir, use_program  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

use_program()
from repro.llm.registry import get_model  # noqa: E402
from repro.prompts.rq1 import generate_rq1_questions  # noqa: E402
from repro.roofline.hardware import GPU_DATABASE  # noqa: E402
from repro.types import Boundedness  # noqa: E402


def bench(workload: str, trace: int = 0, seconds: float = 1) -> tuple[dict, str]:
    proc = subprocess.run(
        python_cmd("run.py", "--workload", workload, "--seed", 3,
                   "--seconds", seconds, "--trace", trace, "--size", "tiny"),
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", ["sweep-cold", "sweep-warm", "serve-mixed"])
def test_workload_runs_to_its_end(workload):
    out, _ = bench(workload)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(END_TO_END)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["sweep-cold", "serve-mixed"])
def test_traced_run_reports_every_layer(workload):
    out, stdout = bench(workload, trace=1)
    assert out["correct"] is True
    assert set(out["metrics"]) == set(PER_LAYER)
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["dataset.build.busy_s"] > 0 and m["prompts.build.calls"] > 0
    assert m["llm.complete.calls"] > 0 and m["store.get.calls"] > 0
    if workload == "serve-mixed":
        assert m["serve.classify.busy_s"] > 0 and m["serve.provider.calls"] > 0
        assert m["serve.misses"] > 0
    else:
        assert m["eval.units"] > 0 and m["eval.journal.checkpoints"] > 0
        assert m["store.flush.write_bytes"] > 0
    assert "trace:" in stdout
    assert (ROOT / ".perfbench-out" / f"trace-{workload}-seed3.json").is_file()


def test_refuses_to_run_without_the_program():
    bare = fresh_dir("test")
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=child_env(), capture_output=True, text=True, timeout=60,
        )
    finally:
        remove_dir(bare)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


# -- the checks against corrupted outputs ------------------------------------


@pytest.fixture(scope="module")
def sweep_result():
    stores = fresh_dir("test")
    try:
        proc = subprocess.run(
            python_cmd("sweep_child.py", "--stores", stores, "--seed", 5,
                       "--rooflines", 2, "--samples", 4, "--jobs", 2,
                       "--journal", 1, "--reanswer", 4),
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        remove_dir(stores)


def sweep_ok(result):
    checks.check_sweep(result, questions=generate_rq1_questions(2), gpus=GPU_DATABASE)


def test_untouched_sweep_passes_every_check(sweep_result):
    sweep_ok(sweep_result)
    checks.check_cold(sweep_result)
    checks.check_warm(sweep_result | {"completions": 0, "hits": sweep_result["units"]}, sweep_result)
    checks.check_reanswers(sweep_result["reanswer"], get_model, Boundedness)


def test_flipped_prediction_fails(sweep_result):
    bad = copy.deepcopy(sweep_result)
    record = bad["runs"][-1]["records"][0]
    record[2] = "CB" if record[2] != "CB" else "BB"
    with pytest.raises(BenchFailure, match="accuracy"):
        sweep_ok(bad)


def test_flipped_rq1_truth_fails(sweep_result):
    bad = copy.deepcopy(sweep_result)
    record = bad["runs"][0]["records"][0]
    record[1] = "CB" if record[1] == "BB" else "BB"
    with pytest.raises(BenchFailure, match="truth"):
        sweep_ok(bad)


def test_wrong_label_fails(sweep_result):
    bad = copy.deepcopy(sweep_result)
    sample = bad["balanced"][0]
    sample[2] = "CB" if sample[2] == "BB" else "BB"
    with pytest.raises(BenchFailure, match="recomputed"):
        sweep_ok(bad)


def test_unbalanced_set_fails(sweep_result):
    bad = copy.deepcopy(sweep_result)
    del bad["balanced"][0]
    with pytest.raises(BenchFailure, match="340"):
        sweep_ok(bad)


def test_dropped_store_entry_fails(sweep_result):
    bad = copy.deepcopy(sweep_result)
    bad["store_entries"] -= 1
    with pytest.raises(BenchFailure, match="entries"):
        checks.check_cold(bad)
    bad["store_missing"] = 1
    with pytest.raises(BenchFailure, match="missing"):
        sweep_ok(bad)


def test_lost_journal_line_fails(sweep_result):
    bad = copy.deepcopy(sweep_result)
    bad["journaled"] -= 1
    with pytest.raises(BenchFailure, match="journal"):
        checks.check_cold(bad)


def test_warm_replay_that_computes_or_differs_fails(sweep_result):
    warm = sweep_result | {"completions": 0, "hits": sweep_result["units"]}
    with pytest.raises(BenchFailure, match="completions"):
        checks.check_warm(warm | {"completions": 1}, sweep_result)
    changed = copy.deepcopy(warm)
    changed["runs"][0]["digest"] = "0" * 64
    with pytest.raises(BenchFailure, match="digests"):
        checks.check_warm(changed, sweep_result)


def test_wrong_served_answer_fails(sweep_result):
    model, prompt, text, prediction = sweep_result["reanswer"][0]
    with pytest.raises(BenchFailure, match="the model answers"):
        checks.check_reanswers([(model, prompt, text + "!", prediction)], get_model, Boundedness)


def test_flipped_prediction_with_its_text_kept_fails(sweep_result):
    model, prompt, text, prediction = next(
        u for u in sweep_result["reanswer"] if u[3] is not None
    )
    flipped = "CB" if prediction == "BB" else "BB"
    with pytest.raises(BenchFailure, match="recorded prediction"):
        checks.check_reanswers([(model, prompt, text, flipped)], get_model, Boundedness)


def test_serve_checks_fail_on_corruption():
    gpu = GPU_DATABASE["NVIDIA GeForce RTX 3080"]
    counters = {"sp_flops": 1e9, "dp_flops": 0.0, "int_ops": 0.0,
                "dram_read_bytes": 1e9, "dram_write_bytes": 0.0, "time_s": 1.0}
    label = checks.kernel_label(counters, gpu)
    assert label == "BB"  # AI 1 < 29770 / 760.3
    labels = {"": {"u1": label}}
    body = {"uid": "u1", "gpu": None, "truth": "Bandwidth",
            "prediction": "Bandwidth", "correct": True}
    checks.check_serve_responses([body], labels)
    with pytest.raises(BenchFailure, match="recomputed"):
        checks.check_serve_responses([body | {"truth": "Compute"}], labels)
    with pytest.raises(BenchFailure, match="correct"):
        checks.check_serve_responses([body | {"correct": False}], labels)
    delta = {"hits": 5, "misses": 3, "coalesced": 2}
    checks.check_serve_counters(delta, ok=10, fresh_keys=3)
    with pytest.raises(BenchFailure, match="successful"):
        checks.check_serve_counters(delta, ok=11, fresh_keys=3)
    with pytest.raises(BenchFailure, match="pre-filled"):
        checks.check_serve_counters(delta, ok=10, fresh_keys=4)


def test_capacity_is_the_median_window_rate():
    import serving

    done = [i / 100 for i in range(601)]  # 100 completions per second
    done[250:] = [t + 0.5 for t in done[250:]]  # one half-second stall
    rates = serving.window_rates(done, 6)
    assert len(rates) == 6 and sorted(rates)[3] == pytest.approx(100.0)
    assert min(rates) == pytest.approx(100 / 1.5)


def test_kernel_label_uses_the_best_op_class():
    gpu = GPU_DATABASE["NVIDIA GeForce RTX 3080"]
    # DP balance point is 465.1 / 760.3 ≈ 0.61 op/byte: 1 DP op per byte
    # reaches it although SP (AI 1 < 39) does not.
    counters = {"sp_flops": 1e9, "dp_flops": 1e9, "int_ops": 0.0,
                "dram_read_bytes": 5e8, "dram_write_bytes": 5e8, "time_s": 1.0}
    assert checks.kernel_label(counters, gpu) == "CB"


# -- the span recorder --------------------------------------------------------


def test_self_times_reconcile_with_wall_time():
    rec = spans.Recorder(trace=True)
    ms = 1_000_000
    rec.spans = [
        (1, 0, "root", 1, 0, 100 * ms),
        (2, 1, "a", 1, 10 * ms, 40 * ms),
        (3, 1, "b", 2, 30 * ms, 60 * ms),  # overlaps a on another thread
        (4, 2, "c", 1, 15 * ms, 20 * ms),
    ]
    selfs = rec.self_times()
    assert selfs[1] == pytest.approx(0.050)  # 100 - union(10..60)
    assert selfs[2] == pytest.approx(0.025)
    rc = rec.reconcile("root")
    assert rc["wall_s"] == pytest.approx(0.1)
    assert rc["sum_self_s"] == pytest.approx(0.11)
    assert rc["concurrent_s"] == pytest.approx(0.01)  # a and b overlap 10 ms


def test_wrapped_calls_nest_and_unwrap():
    import types

    rec = spans.Recorder(trace=True)
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    rec.wrap_attr(mod, "inner", "inner")
    outer = rec.wrap("outer", lambda x: mod.inner(x) * 2)
    assert outer(1) == 4
    names = {s[2]: s for s in rec.spans}
    assert names["inner"][1] == names["outer"][0]
