"""In-memory span recorder that times the program's layers from outside.

The benchmark never edits the program: it replaces public functions and
methods of the ``repro`` package with thin wrappers that record a span
(name, thread, start, end, parent) around each call and bump a few counters.
Spans stay in memory and are written as Chrome trace-event JSON when the run
ends (load the file in ``chrome://tracing`` or Perfetto).

A span's *busy* time is its duration; its *self* time is its duration minus
the part of that interval its child spans cover. Parents are tracked with a
context variable, so spans inside ``asyncio`` tasks and ``asyncio.to_thread``
calls nest correctly; ``repro.util.parallel.parallel_map`` is wrapped so
spans in its worker threads hang under the span that fanned them out.

With tracing off, :func:`install` wraps one call only,
``EvalEngine.run``, to keep the records the output checks read.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


def read_io_write_bytes() -> int:
    """Bytes this process has caused to be written to storage so far."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("write_bytes:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Recorder:
    """Collects spans and counters for one process."""

    def __init__(self, *, trace: bool):
        self.trace = trace
        # (id, parent id, name, thread id, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: Counter = Counter()
        self.runs: list[dict] = []
        self._ids = itertools.count(1)

    # -- span primitives -----------------------------------------------------
    def _open(self, name: str):
        if not self.trace:
            return None
        parent = _CURRENT.get()
        if parent is not None and parent[1] == name:
            return None  # re-entrant call into the same layer: fold it in
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, name))
        return span_id, 0 if parent is None else parent[0], token

    def _close(self, opened, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        span_id, parent_id, token = opened
        _CURRENT.reset(token)
        self.spans.append(
            (span_id, parent_id, name, threading.get_ident(), start, end)
        )

    def span(self, name: str):
        """Context manager recording one span (used for the benchmark's
        own root spans)."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn, *, on_result=None):
        """A wrapper recording ``name`` around ``fn`` (sync or async)."""
        rec = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                opened = rec._open(name)
                start = time.perf_counter_ns()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    if opened is not None:
                        rec._close(opened, name, start)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = rec._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                if opened is not None:
                    rec._close(opened, name, start)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Install ``replacement`` as ``owner.attr``. For a module-level
        function, every ``repro`` module that imported it by name is
        patched too, so ``from x import f`` call sites see the wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                mod
                for name, mod in list(sys.modules.items())
                if name.startswith("repro") and mod is not None and mod is not owner
                and mod.__dict__.get(attr) is original
            ]
        for target in targets:
            setattr(target, attr, replacement)

    def wrap_attr(self, owner, attr: str, name: str, *, on_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patch(owner, attr, self.wrap(name, original, on_result=on_result))

    # -- reporting -------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """span id → self time in seconds (duration minus the union of its
        children's intervals, clipped to the span)."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _sid, parent, _name, _tid, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        out: dict[int, float] = {}
        for sid, _parent, _name, _tid, start, end in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start - covered) / 1e9
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name → {calls, busy_s, self_s}."""
        selfs = self.self_times()
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for sid, _parent, name, _tid, start, end in self.spans:
            t = totals[name]
            t["calls"] += 1
            t["busy_s"] += (end - start) / 1e9
            t["self_s"] += selfs[sid]
        return dict(totals)

    def reconcile(self, root: str) -> dict[str, float]:
        """How the self times of the ``root`` span's tree add up to its
        wall time: their sum equals the wall time plus the time child spans
        ran concurrently with each other (worker threads, hedged calls)."""
        roots = [s for s in self.spans if s[2] == root]
        if not roots:
            return {}
        selfs = self.self_times()
        by_parent: dict[int, list[int]] = defaultdict(list)
        for sid, parent, *_ in self.spans:
            by_parent[parent].append(sid)
        wall = 0.0
        total_self = 0.0
        for sid, _p, _n, _t, start, end in roots:
            wall += (end - start) / 1e9
            stack = [sid]
            while stack:
                cur = stack.pop()
                total_self += selfs[cur]
                stack.extend(by_parent.get(cur, ()))
        root_self = sum(selfs[s[0]] for s in roots)
        return {
            "wall_s": wall,
            "sum_self_s": total_self,
            "concurrent_s": total_self - wall,
            "unattributed_s": root_self,
        }

    def write_chrome_trace(self, path: Path, *, process_name: str) -> None:
        pid = os.getpid()
        events = [
            {
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": process_name},
            }
        ]
        for sid, parent, name, tid, start, end in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "args": {"id": sid, "parent": parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


class _SpanContext:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.opened = self.rec._open(self.name)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        if self.opened is not None:
            self.rec._close(self.opened, self.name, self.start)
        return False


def _propagating_parallel_map(original):
    """``parallel_map`` whose thread workers inherit the caller's span."""

    @functools.wraps(original)
    def parallel_map(fn, items, *args, **kwargs):
        parent = _CURRENT.get()
        if parent is None or kwargs.get("backend") == "process":
            return original(fn, items, *args, **kwargs)

        def under_parent(item):
            token = _CURRENT.set(parent)
            try:
                return fn(item)
            finally:
                _CURRENT.reset(token)

        return original(under_parent, items, *args, **kwargs)

    return parallel_map


_LAYER_MODULES = (
    "repro.dataset", "repro.dataset.text", "repro.eval.engine",
    "repro.eval.journal", "repro.eval.matrix", "repro.eval.rq1",
    "repro.eval.rq23", "repro.eval.table1", "repro.gpusim.profiler",
    "repro.gpusim.store", "repro.kernels.corpus", "repro.llm.base",
    "repro.prompts.classify", "repro.prompts.rq1", "repro.store.base",
    "repro.store.text", "repro.tokenizer.pretrained", "repro.util.parallel",
)
_SERVE_MODULES = ("repro.serve.engine", "repro.serve.http", "repro.serve.providers")


def install(rec: Recorder, *, serve: bool = False) -> None:
    """Wrap the program's layer boundaries in this process.

    Every module that imports a wrapped function by name is loaded first,
    so the wrapper replaces each binding.
    """
    import importlib

    mods = {
        name: importlib.import_module(name)
        for name in _LAYER_MODULES + (_SERVE_MODULES if serve else ())
    }
    engine_cls = mods["repro.eval.engine"].EvalEngine

    def on_run(args, kwargs, result):
        rec.runs.append({"model": args[1].name, "items": args[2], "result": result})

    rec.wrap_attr(engine_cls, "run", "eval.run", on_result=on_run)
    if not rec.trace:
        return

    rec.wrap_attr(engine_cls, "complete", "eval.unit")
    parallel = mods["repro.util.parallel"]
    rec.patch(parallel, "parallel_map", _propagating_parallel_map(parallel.parallel_map))
    for module, attr, name in (
        ("repro.kernels.corpus", "build_corpus", "kernels.corpus"),
        ("repro.gpusim.profiler", "profile_programs", "gpusim.profile"),
        ("repro.tokenizer.pretrained", "train_corpus_tokenizer", "tokenizer.train"),
        ("repro.dataset", "paper_dataset", "dataset.build"),
        ("repro.eval.matrix", "scenario_samples", "dataset.build"),
        ("repro.dataset.text", "program_texts", "dataset.texts"),
        ("repro.prompts.classify", "build_classify_prompt", "prompts.build"),
        ("repro.prompts.rq1", "build_rq1_prompt", "prompts.build"),
        ("repro.eval.engine", "cache_key", "eval.cache_key"),
    ):
        rec.wrap_attr(mods[module], attr, name)
    rec.wrap_attr(mods["repro.eval.journal"].SweepJournal, "checkpoint", "eval.journal")

    def on_complete(args, kwargs, result):
        rec.counters["llm.complete.output_tokens"] += result.usage.output_tokens

    rec.wrap_attr(mods["repro.llm.base"].LlmModel, "complete", "llm.complete",
                  on_result=on_complete)
    base = mods["repro.store.base"].ArtifactStore
    rec.wrap_attr(base, "__init__", "store.attach")
    responses = mods["repro.eval.engine"].DiskResponseStore
    profiles = mods["repro.gpusim.store"].ProfileStore
    tokenizers = mods["repro.store.text"].TokenizerStore
    renders = mods["repro.store.text"].RenderStore
    for owner, attr in (
        (responses, "get"), (profiles, "get_profiles"), (profiles, "get_traces"),
        (tokenizers, "get_merges"), (renders, "get_sources"),
        (renders, "get_token_counts"),
    ):
        rec.wrap_attr(owner, attr, "store.get")
    for owner, attr in (
        (responses, "put"), (profiles, "put_profiles"), (profiles, "put_traces"),
        (tokenizers, "put_merges"), (renders, "put_sources"),
        (renders, "put_token_counts"),
    ):
        rec.wrap_attr(owner, attr, "store.put")

    flush = base.__dict__["flush"]

    @functools.wraps(flush)
    def counted_flush(self):
        if not rec.trace:
            return flush(self)
        before = read_io_write_bytes()
        try:
            return flush(self)
        finally:
            rec.counters["store.flush.write_bytes"] += read_io_write_bytes() - before

    rec.patch(base, "flush", rec.wrap("store.flush", counted_flush))

    if serve:
        http = mods["repro.serve.http"]
        providers = mods["repro.serve.providers"]
        rec.wrap_attr(http.PredictionService, "classify", "serve.classify")
        rec.wrap_attr(mods["repro.serve.engine"].AsyncEvalEngine, "complete", "serve.engine")
        rec.wrap_attr(providers.EmulatedProvider, "complete", "serve.provider")
        rec.wrap_attr(providers.WireProvider, "complete", "serve.provider")
