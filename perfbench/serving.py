"""The ``serve-mixed`` workload.

1. ``serve_prep.py`` (untimed) warms the profile and artifact stores for two
   GPUs, makes the seeded schedule and pre-fills half of each step's keys.
2. ``repro-paper serve`` is started ``SETUPS`` times through
   ``serve_launcher.py``; each set-up is timed from spawn until one warm-up
   query per GPU has been answered, and all but the last server are drained.
3. The last server answers the ladder, one step after another, from this
   process with ``cpu_count()`` connections. The top step offers far more
   than the server can take, so the rate at which its requests complete is
   the server's capacity: the figure reported as ``units_per_s``.

The server runs the failover chain ``emulated,wire`` under a fixed hedge
delay and a seeded ``slow_tail`` plan on each model's primary member, so
hedged calls are real work.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import threading
import time
from statistics import median

import checks
import loadgen
from common import (
    ROOT, child_env, cpu_count, dir_bytes, fresh_dir, python_cmd,
    quantile, remove_dir, run_json_child, side_file, uncontended, use_program,
    HostMeter,
)
from metrics import layer_metrics

SETUPS = 5
#: The top step's completions are cut into this many windows of equal count;
#: the capacity is the median of the windows' completion rates, so a short
#: stall of the host moves one window, not the figure.
CAPACITY_WINDOWS = 6
#: The p99 a ladder step must meet, from each request's due instant.
LATENCY_LIMIT_MS = 250.0
#: A step whose requests complete below this share of the offered rate has a
#: growing backlog. The top step must have one, or its completion rate would
#: be the schedule's figure rather than the server's.
BACKLOG_SHARE = 0.95
SECOND_GPU = "A100"
HEDGE_DELAY_S = 0.015
SLOW_TAIL = "rate=0.2,ms=40"
PREP_TIMEOUT_S = 240.0

#: Layers whose work happens while the server sets up; every other layer is
#: counted over the ladder only.
SETUP_LAYERS = ("kernels.corpus", "gpusim.profile", "tokenizer.train",
                "dataset.build", "dataset.texts", "store.attach")


def fault_plan(seed: int, models) -> str:
    parts = [f"seed={seed}"]
    parts += [f"slow_tail:{SLOW_TAIL},provider=emulated:{m}" for m in models]
    return ";".join(parts)


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """One ``repro-paper serve`` process started by the launcher."""

    def __init__(self, stores, plan: str, *, trace: bool, report: str = "", chrome: str = ""):
        cmd = python_cmd(
            "serve_launcher.py", "--trace", int(trace), "--report", report,
            "--chrome", chrome, "--",
            "--host", "127.0.0.1", "--port", "0",
            "--provider-family", "emulated,wire",
            "--cache-dir", stores / "responses",
            "--profile-cache", stores / "profiles",
            "--artifact-cache", stores / "artifacts",
            "--jobs", cpu_count(), "--warm",
            "--hedge-delay", HEDGE_DELAY_S, "--inject-faults", plan,
        )
        self.meter = HostMeter()
        self.stderr = open(side_file(stores, ".stderr"), "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        self.port = None
        self.lines: list[str] = []
        for line in self.proc.stdout:
            self.lines.append(line)
            if line.startswith("serving on "):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                break
        # Keep reading so the server never blocks on a full pipe.
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()
        if self.port is None:
            self.stop()
            raise RuntimeError("server exited before serving:\n" + "".join(self.lines))

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def warm_up(self, keys) -> list[dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            bodies = []
            for key in keys:
                status, data = loadgen.post(conn, loadgen.request_body(key))
                if status != 200:
                    raise RuntimeError(f"warm-up query got HTTP {status}: {data[:300]!r}")
                bodies.append(json.loads(data))
            return bodies
        finally:
            conn.close()

    def stop(self) -> None:
        """Drain (SIGTERM) and wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.stderr.close()


def window_rates(done: list[float], windows: int) -> list[float]:
    """Completion rates over ``windows`` runs of consecutive completions of
    equal count (``done``: completion instants)."""
    done = sorted(done)
    edges = [(len(done) - 1) * i // windows for i in range(windows + 1)]
    return [(hi - lo) / (done[hi] - done[lo]) for lo, hi in zip(edges, edges[1:])]


def summarize_step(step: dict, records: list[dict], steal: float) -> dict:
    ok = sum(1 for r in records if r["status"] == 200)
    latencies = [
        (r["done"] - r["due"]) * 1e3 if r["status"] == 200 else float("inf")
        for r in records
    ]
    rate = ok / (max(r["done"] for r in records) - min(r["due"] for r in records))
    p99 = quantile(latencies, 0.99)
    backlog = rate < BACKLOG_SHARE * step["rate"]
    return {
        "rate": step["rate"],
        "reference": step["reference"],
        "requests": len(records),
        "ok": ok,
        "p50_ms": quantile(latencies, 0.50),
        "p99_ms": p99,
        "completion_rate": rate,
        "backlog": backlog,
        "passes": ok == len(records) and p99 <= LATENCY_LIMIT_MS and not backlog,
        "steal": steal,
        "done": [r["done"] for r in records if r["status"] == 200],
    }


class ServeOutcome:
    def __init__(self, args):
        self.args = args
        #: (seconds from spawn to answered warm-up, host steal share)
        self.setups: list[tuple[float, float]] = []
        self.steps: list[dict] = []
        self.records: list[dict] = []
        self.prep: dict = {}
        self.delta: dict = {}
        self.report: dict | None = None
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.disk_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["status"] != 200)

    def verify(self) -> None:
        use_program()
        from repro.llm.registry import get_model
        from repro.roofline.hardware import GPU_DATABASE
        from repro.types import Boundedness

        samples = self.prep["samples"]
        checks.check_balanced(samples[""], GPU_DATABASE)
        labels = {gpu: checks.check_labels(rows, GPU_DATABASE) for gpu, rows in samples.items()}
        ok = [r for r in self.records if r["status"] == 200]
        bodies = [json.loads(r["body"]) for r in ok]
        checks.check_serve_responses(bodies, labels)
        keys = self.prep["schedule"]["keys"]
        for body, r in zip(bodies, ok):
            uid, model, variant, gpu = keys[r["key"]]
            if (body["uid"], body["model"], body["variant"], body["gpu"] or "") != (
                uid, model, variant, gpu
            ):
                checks.fail(f"request {keys[r['key']]} answered as {body}")
        served = {r["key"]: body["prediction"] for body, r in zip(bodies, ok)}
        for model, prompt, index in self.prep["reanswer"]:
            direct = get_model(model).complete(prompt).text
            try:
                word = Boundedness.from_word(direct).word
            except ValueError:
                word = None
            if served.get(index, word) != word:
                checks.fail(f"{keys[index]}: served {served[index]}, the model answers {word}")
        prefilled = set(self.prep["schedule"]["prefilled"])
        fresh = {r["key"] for r in self.records} - prefilled
        checks.check_serve_counters(self.delta, ok=len(ok), fresh_keys=len(fresh))

    def capacity(self) -> tuple[float, list[float]]:
        """The top step's median window completion rate, with the time the
        host took removed, and the raw window rates."""
        top = max(self.steps, key=lambda s: s["rate"])
        if not top["backlog"]:
            raise RuntimeError(
                f"the top step ({top['rate']} req/s) completed at "
                f"{top['completion_rate']:.1f} req/s without a backlog: its rate "
                "is the schedule's, not the server's capacity"
            )
        rates = window_rates(top["done"], CAPACITY_WINDOWS)
        return 1.0 / uncontended(1.0 / median(rates), top["steal"]), rates

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": median(uncontended(*s) for s in self.setups),
            "units_per_s": self.capacity()[0],
            "disk_mb": self.disk_bytes / 2**20,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def _window(self):
        """The server's spans: set-up layers whole, the rest inside the
        ladder (between the two marks), and the counter delta."""
        import spans

        (t0, c0), (t1, c1) = self.report["marks"][:2]
        rec = spans.Recorder(trace=True)
        rec.spans = [
            tuple(s) for s in self.report["spans"]
            if s[2] in SETUP_LAYERS or (s[4] >= t0 and s[5] <= t1)
        ]
        counters = {k: c1.get(k, 0) - c0.get(k, 0) for k in c1}
        return rec, counters

    def per_layer(self) -> dict[str, float]:
        rec, counters = self._window()
        layers = rec.layer_totals()
        m = layer_metrics(layers, counters)
        for name in ("hits", "misses", "coalesced", "hedged", "failed_over", "retries"):
            m[f"serve.{name}"] = float(self.delta[name])
        ok = [r for r in self.records if r["status"] == 200]
        client_ms = sum((r["done"] - r["sent"]) for r in ok) * 1e3 / len(ok)
        classify = layers.get("serve.classify", {"calls": 0, "busy_s": 0.0})
        server_ms = classify["busy_s"] * 1e3 / max(1, classify["calls"])
        m["serve.wait_ms"] = client_ms - server_ms
        lateness = [(r["sent"] - r["due"]) * 1e3 for r in self.records]
        m["loadgen.lateness_p50_ms"] = quantile(lateness, 0.5)
        m["loadgen.lateness_max_ms"] = max(lateness)
        live = self.disk_bytes
        m["store.live_bytes"] = float(live)
        m["store.write_amplification"] = m["store.flush.write_bytes"] / live
        m["proc.cpu_s"] = self.cpu_s
        reference = next(s for s in self.steps if s["reference"])
        m["serve.p50_ms"] = reference["p50_ms"]
        m["serve.p99_ms"] = reference["p99_ms"]
        return m

    def report_lines(self) -> list[str]:
        lines = ["setups: " + ", ".join(
            f"{wall:.3f}s (host steal {steal:.1%})" for wall, steal in self.setups
        )]
        for s in self.steps:
            lines.append(
                f"step {s['rate']:>4} req/s{' (reference)' if s['reference'] else ''}: "
                f"{s['ok']}/{s['requests']} ok, p50 {s['p50_ms']:.2f}ms "
                f"p99 {s['p99_ms']:.2f}ms, completed {s['completion_rate']:.1f} req/s, "
                f"{'meets' if s['passes'] else 'misses'} p99 <= {LATENCY_LIMIT_MS:g}ms, "
                f"host steal {s['steal']:.1%}"
            )
        capacity, rates = self.capacity()
        lines.append(
            f"capacity {capacity:.1f} req/s: median of the top step's window rates "
            + ", ".join(f"{r:.1f}" for r in rates)
        )
        lines.append("server counters over the ladder: " + ", ".join(
            f"{k} {self.delta[k]}" for k in
            ("hits", "misses", "coalesced", "hedged", "failed_over", "retries", "shed")
        ))
        if self.report:
            rec, _ = self._window()
            rc = rec.reconcile("serve.classify")
            lines.append(
                f"trace: classify spans cover {rc['wall_s']:.3f}s; their trees' self "
                f"times sum to {rc['sum_self_s']:.3f}s = that + {rc['concurrent_s']:.3f}s "
                f"of concurrent child spans; {rc['unattributed_s']:.3f}s is classify's "
                f"own (event loop) time"
            )
        return lines


def run(args) -> ServeOutcome:
    outcome = ServeOutcome(args)
    stores = fresh_dir("serve-mixed")
    server = None
    try:
        outcome.prep = run_json_child(
            python_cmd("serve_prep.py", "--stores", stores, "--seed", args.seed,
                       "--gpu", SECOND_GPU, "--jobs", cpu_count(),
                       "--seconds", args.seconds, "--size", args.size),
            timeout=PREP_TIMEOUT_S,
        )
        schedule = outcome.prep["schedule"]
        keys = schedule["keys"]
        warmup = [keys[i] for i in schedule["warmup"]]
        models = sorted({k[1] for k in keys})
        plan = fault_plan(args.seed, models)
        report = side_file(stores, ".report.json")
        for i in range(SETUPS):
            last = i == SETUPS - 1
            keep = bool(args.trace) and last
            server = Server(
                stores, plan, trace=bool(args.trace), report=str(report) if keep else "",
                chrome=f"trace-serve-mixed-seed{args.seed}.json" if keep else "",
            )
            server.warm_up(warmup)
            outcome.setups.append(server.meter.stop())
            if not last:
                server.stop()
                server = None

        pid = server.proc.pid
        before = loadgen.get_json("127.0.0.1", server.port, "/v1/stats")
        cpu0 = proc_cpu_s(pid)
        if args.trace:
            server.proc.send_signal(signal.SIGUSR1)  # mark: ladder starts
            time.sleep(0.2)
        for step in schedule["steps"]:
            meter = HostMeter()
            records = loadgen.drive(
                "127.0.0.1", server.port, step["requests"], keys,
                connections=cpu_count(),
            )
            outcome.records.extend(records)
            outcome.steps.append(summarize_step(step, records, meter.stop()[1]))
        if args.trace:
            server.proc.send_signal(signal.SIGUSR1)  # mark: ladder ends
            time.sleep(0.2)
        outcome.cpu_s = proc_cpu_s(pid) - cpu0
        outcome.peak_rss_mb = proc_peak_rss_mb(pid)
        after = loadgen.get_json("127.0.0.1", server.port, "/v1/stats")
        outcome.delta = {k: after[k] - before[k] for k in before if isinstance(before[k], int)}
        server.stop()
        server = None
        outcome.disk_bytes = dir_bytes(stores)
        if args.trace:
            with open(report, encoding="utf-8") as fh:
                outcome.report = json.load(fh)
    finally:
        if server is not None:
            server.proc.kill()
            server.stop()
        remove_dir(stores)
    return outcome
