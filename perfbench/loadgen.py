"""Open-loop request schedule and generator for ``serve-mixed``.

The schedule is a ladder of steps at fixed rates. Requests arrive at evenly
spaced instants; a burst puts several requests for the same key on one
instant. Every key is used by one burst only, and exactly half of each
step's keys are pre-filled into the response store, so a step's hit share is
fixed by construction, not by the requests that came before.

The generator keeps at most ``connections`` requests in flight and opens
one connection per request, as the project's own clients (``urllib``) do. A
request is timed from the instant it
was due, so a stall also charges the requests queued behind it, and the
generator reports how late it sent each request.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

#: The prompt forms a request may ask for: the paper's zero-shot form and
#: K real code examples.
VARIANTS = ("zero-shot", "few-shot-2", "few-shot-4")

#: Burst sizes (requests for one key arriving together) and their weights.
BURSTS = ((1, 6), (2, 2), (3, 1), (4, 1))


def make_schedule(uids, models, gpus, ladder, *, seed: int, seconds: float) -> dict:
    """The whole run's requests.

    ``ladder`` holds ``(rate, share of seconds, is reference)`` steps;
    ``gpus`` the GPU names a request may target (``""`` = the default).
    Returns JSON-ready data: the distinct ``keys`` ([uid, model, variant,
    gpu]), the ``steps`` with their requests ([due offset s, key index]),
    the ``prefilled`` key indices, one pre-filled ``warmup`` key per GPU
    (outside the ladder) and the ``reanswer`` keys the checks re-ask.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    keys: list[list] = []
    used: set[tuple] = set()

    def new_key(gpu: str) -> int:
        while True:
            key = (rng.choice(uids), rng.choice(models), rng.choice(VARIANTS), gpu)
            if key not in used:
                used.add(key)
                keys.append(list(key))
                return len(keys) - 1

    sizes, weights = zip(*BURSTS)
    prefilled: list[int] = []
    steps = []
    for rate, share, reference in ladder:
        count = max(1, round(rate * seconds * share))
        requests = []
        step_keys = []
        slot = 0
        while slot < count:
            burst = min(rng.choices(sizes, weights)[0], count - slot)
            key = new_key(gpus[len(step_keys) % len(gpus)])
            step_keys.append(key)
            requests.extend([slot / rate, key] for _ in range(burst))
            slot += burst
        prefilled.extend(sorted(rng.sample(step_keys, len(step_keys) // 2)))
        steps.append({"rate": rate, "reference": reference, "requests": requests})
    warmup = [new_key(gpu) for gpu in gpus]
    prefilled.extend(warmup)
    ladder_keys = sorted({k for step in steps for _, k in step["requests"]})
    reanswer = rng.sample(ladder_keys, min(24, len(ladder_keys)))
    return {
        "keys": keys,
        "steps": steps,
        "prefilled": prefilled,
        "warmup": warmup,
        "reanswer": reanswer,
    }


def request_body(key) -> bytes:
    uid, model, variant, gpu = key
    body = {"uid": uid, "model": model, "variant": variant}
    if gpu:
        body["gpu"] = gpu
    return json.dumps(body).encode("utf-8")


def post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/v1/classify", body, {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def get_json(host: str, port: int, path: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def drive(host: str, port: int, requests, keys, *, connections: int) -> list[dict]:
    """Send one step's ``requests`` open-loop; one record per request:
    due/sent/done instants (perf_counter seconds), HTTP status, body."""
    bodies = [request_body(keys[k]) for _, k in requests]
    out: list[dict | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + requests[i][0]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=120)
            try:
                status, data = post(conn, bodies[i])
            except (OSError, http.client.HTTPException) as exc:
                status, data = 0, str(exc).encode()
            finally:
                conn.close()
            out[i] = {
                "due": due, "sent": sent, "done": time.perf_counter(),
                "status": status, "body": data, "key": requests[i][1],
            }

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out  # type: ignore[return-value]
