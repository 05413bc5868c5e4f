"""Start ``repro-paper serve`` with the benchmark's span recorder.

    python3 perfbench/serve_launcher.py --trace 1 --report OUT.json -- \\
        --port 0 --cache-dir DIR/responses ...

Everything after ``--`` goes to ``repro-paper serve`` unchanged. With
``--trace 1`` the layer boundaries are wrapped before the server is built,
each ``SIGUSR1`` records a mark (monotonic instant plus a copy of the
counters), and when the server has drained the spans and marks are written
to ``--report`` as JSON. ``--chrome`` also writes them as a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import spans
from common import OUT_DIR, use_program


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", default="")
    ap.add_argument("--chrome", default="")
    args = ap.parse_args(argv[:split])

    use_program()
    rec = spans.Recorder(trace=bool(args.trace))
    marks: list[list] = []
    if args.trace:
        spans.install(rec, serve=True)
        signal.signal(
            signal.SIGUSR1,
            lambda *_: marks.append([time.perf_counter_ns(), dict(rec.counters)]),
        )
    import repro.cli

    code = repro.cli.main(["serve", *argv[split + 1:]])
    if args.trace and args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "marks": marks}, fh)
        if args.chrome:
            rec.write_chrome_trace(OUT_DIR / args.chrome, process_name="serve")
    return code


if __name__ == "__main__":
    sys.exit(main())
