"""The benchmark's metric names and units, as ``BENCHMARK.json`` lists them."""

from __future__ import annotations

from common import load_benchmark

_BENCH = load_benchmark()
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


def layer_metrics(layers: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics from span totals (``name → calls/busy_s/self_s``)
    and counters; a layer a workload never enters reads 0."""
    out = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        field = {"checkpoints": "calls"}.get(field, field)
        if layer in layers and field in ("calls", "busy_s", "self_s"):
            out[name] = float(layers[layer][field])
    out.update({k: float(v) for k, v in counters.items() if k in out})
    return out
