"""One benchmark execution, in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec names the repository root, the ``cli_main`` arguments, whether to
trace, the parent's ``time.monotonic()`` just before it started this process
and the file to write the result to. The worker imports ``secmimo`` from
``<root>/src`` only, times the ``cli_main`` call with its output captured,
and writes wall, CPU, set-up time, peak RSS, the exit code, the captured
output, the worker threads seen and, when tracing, the tracer's summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import threading
import time
from pathlib import Path


def _import_secmimo(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import secmimo.cli

    if Path(secmimo.__file__).resolve().parent != src / "secmimo":
        raise ImportError(f"secmimo was imported from {secmimo.__file__}, not from {src}")
    return secmimo.cli


class _ThreadPeak:
    """Most threads alive at once, beyond those alive on entry, while installed."""

    def __init__(self):
        self.baseline = self.peak = threading.active_count()
        self._start = threading.Thread.start

    def __enter__(self):
        original = self._start

        def start(thread):
            original(thread)
            self.peak = max(self.peak, threading.active_count())

        threading.Thread.start = start
        return self

    def __exit__(self, *exc):
        threading.Thread.start = self._start


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    cli = _import_secmimo(root)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
    setup_s = time.monotonic() - spec["t0"]
    captured = io.StringIO()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    with _ThreadPeak() as threads, contextlib.redirect_stdout(captured):
        w0 = time.perf_counter()
        code = cli.cli_main(spec["argv"])
        wall_s = time.perf_counter() - w0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    result = {
        "exit_code": code,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        # pool workers, or the main thread alone when no thread was started
        "threads_used": max(1, threads.peak - threads.baseline),
        "stdout": captured.getvalue(),
    }
    if tracer is not None:
        result["trace"] = dict(tracer.summary(cpu_s), **installed)
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["result"]).write_text(json.dumps(result))
