"""Outside-in tracer for the secmimo modules.

``install`` wraps every public function of the traced modules and rebinds
each binding of it in every loaded ``secmimo`` module: the defining module's
own global (so intra-module calls such as ``perturb_to_distance`` ->
``chordal_distance`` are seen, because a module looks its globals up at call
time), each ``from .x import f`` binding in another module, and the package
re-exports. The program's source is not changed.

Spans are kept in memory, one log per thread, each with its wall-clock and
its thread-CPU interval, and summarised once the traced call has returned:

* self and busy times are thread CPU time. On the harness pool's threads a
  call's wall time also holds the wait for the interpreter lock, which
  lands on whichever span happens to be open; CPU time does not;
* a span's self time is its CPU time minus that of its children on the
  same thread; ``busy_s`` of a function sums the CPU time of its calls that
  are not nested in another call of the same function;
* ``wall_s`` of a function is the wall-clock counterpart of ``busy_s``;
  the per-call percentiles ``p50_us`` and ``p99_us`` are of CPU time;
* the harness thread pool is traced by rebinding ``ThreadPoolExecutor`` in
  the harness: the main thread's wait in ``map`` is the span
  ``harness.pool_wait`` and each task on a pool thread runs inside a
  ``harness.pool_task`` span; with ``run_experiment`` they make up the trial
  loop, the pool and aggregation. A pool task's wall minus CPU time is time
  it was ready but off the CPU, mostly waiting for the interpreter lock;
* the CPU time of the whole call that no root span covers is unattributed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

from metrics import percentile

TRACED_MODULES = ("linalg", "grassmann", "transceiver", "rates", "harness", "cli")

POOL_WAIT = "harness.pool_wait"
POOL_TASK = "harness.pool_task"


class ThreadLog:
    """Spans opened on one thread, in the order they were opened."""

    def __init__(self):
        self.key = array("i")
        self.via = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")
        self._stack: list[int] = []

    def open(self, key: int, via: int, t: float, cpu: float) -> int:
        idx = len(self.start)
        self.key.append(key)
        self.via.append(via)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(t)
        self.end.append(t)
        self.cpu_start.append(cpu)
        self.cpu_end.append(cpu)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, t: float, cpu: float) -> None:
        self.end[idx] = t
        self.cpu_end[idx] = cpu
        self._stack.pop()


class Tracer:
    """Collects spans from every thread; ``summary`` turns them into layer figures."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: list[ThreadLog] = []
        self.pool_workers = 0
        # (point, target, result) of each quantizer call, and the unwrapped
        # distance used to check them once the traced call has returned
        self.quantize_cases: list[tuple] = []
        self.distance = None

    def key_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog()
            self._local.log = log
            with self._lock:
                self.logs.append(log)
        return log

    def wrap(self, fn, name: str, via: str, observe=None):
        """Return ``fn`` wrapped in a span named ``name``, counted as called via ``via``.

        ``observe(args, kwargs, result)``, if given, runs after the span closes.
        """
        key, via_id, log_for = self.key_id(name), self.key_id(via), self.log
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = log_for()
            idx = log.open(key, via_id, clock(), cpu_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx, clock(), cpu_clock())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def summary(self, call_cpu_s: float) -> dict:
        """Per-function, per-module and whole-call figures of everything recorded.

        ``call_cpu_s`` is the process CPU time of the traced call, all threads.
        """
        n_keys = len(self.names)
        calls = [0] * n_keys
        busy = [0.0] * n_keys
        self_s = [0.0] * n_keys
        wall_busy = [0.0] * n_keys
        durations: list[list[float]] = [[] for _ in range(n_keys)]
        via_calls: dict[tuple[int, int], int] = {}
        nested_in: dict[tuple[int, int], int] = {}
        roots_cpu = 0.0
        for log in self.logs:
            n = len(log.start)
            child = [0.0] * n
            ancestors = [0] * n  # bit set of the keys open above each span
            for i in range(n):
                p = log.parent[i]
                cpu = log.cpu_end[i] - log.cpu_start[i]
                if p >= 0:
                    child[p] += cpu
                    ancestors[i] = ancestors[p] | (1 << log.key[p])
                else:
                    roots_cpu += cpu
            for i in range(n):
                k = log.key[i]
                wall = log.end[i] - log.start[i]
                cpu = log.cpu_end[i] - log.cpu_start[i]
                calls[k] += 1
                self_s[k] += cpu - child[i]
                if not (ancestors[i] >> k) & 1:
                    busy[k] += cpu
                    wall_busy[k] += wall
                durations[k].append(cpu)
                pair = (k, log.via[i])
                via_calls[pair] = via_calls.get(pair, 0) + 1
                bits = ancestors[i]
                while bits:
                    low = bits & -bits
                    pair = (k, low.bit_length() - 1)
                    nested_in[pair] = nested_in.get(pair, 0) + 1
                    bits ^= low

        functions = {}
        modules: dict[str, float] = {}
        for k, name in enumerate(self.names):
            if not calls[k]:
                continue
            functions[name] = {
                "calls": calls[k],
                "busy_s": busy[k],
                "self_s": self_s[k],
                "wall_s": wall_busy[k],
                "p50_us": 1e6 * percentile(durations[k], 50.0),
                "p99_us": 1e6 * percentile(durations[k], 99.0),
            }
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + self_s[k]
        via: dict[str, dict[str, int]] = {}
        for (k, v), count in via_calls.items():
            via.setdefault(self.names[k], {})[self.names[v]] = count
        nested: dict[str, dict[str, int]] = {}
        for (k, a), count in nested_in.items():
            nested.setdefault(self.names[k], {})[self.names[a]] = count
        return {
            "functions": functions,
            "modules": modules,
            "via": via,
            "nested": nested,
            "cpu_s": call_cpu_s,
            "unattributed_s": max(0.0, call_cpu_s - roots_cpu),
            "pool_workers": self.pool_workers,
            "spans": sum(len(log.start) for log in self.logs),
            "distance_err_max": max(
                (abs(self.distance(p, r) - d) for p, d, r in self.quantize_cases), default=0.0
            ),
        }


def _traced_executor(tracer: Tracer, base):
    class TracedExecutor(base):
        """The harness's executor with the main-thread wait and each task spanned."""

        def map(self, fn, *iterables, **kwargs):
            tracer.pool_workers = max(tracer.pool_workers, self._max_workers)
            task = tracer.wrap(fn, POOL_TASK, "harness")
            return iter(tracer.wrap(self._map_all, POOL_WAIT, "harness")(task, *iterables, **kwargs))

        def _map_all(self, fn, *iterables, **kwargs):
            # results are collected here so the wait falls inside the span
            return list(super().map(fn, *iterables, **kwargs))

    return TracedExecutor


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with an underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def install(tracer: Tracer, package: str = "secmimo", modules=TRACED_MODULES) -> dict:
    """Wrap the public functions of ``package.<modules>`` wherever they are bound.

    Returns ``{"bound_in": {function: [module, ...]}, "unbound": [...]}``:
    the modules in which each function was rebound, and every attribute of a
    loaded package module that still holds an original function afterwards
    (which should be none).
    """
    originals: dict[int, tuple[object, str]] = {}
    for short in modules:
        module = sys.modules[f"{package}.{short}"]
        for name, fn in public_functions(module).items():
            originals[id(fn)] = (fn, f"{short}.{name}")
    loaded = [
        m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")
    ]

    def original(value):
        hit = originals.get(id(value))
        return hit if hit is not None and hit[0] is value else None

    grassmann = sys.modules.get(f"{package}.grassmann")
    if grassmann is not None and hasattr(grassmann, "chordal_distance"):
        tracer.distance = grassmann.chordal_distance

    def record_quantize(args, kwargs, result):
        target = args[1] if len(args) > 1 else kwargs["distance"]
        tracer.quantize_cases.append((args[0] if args else kwargs["point"], target, result))

    observers = {"grassmann.perturb_to_distance": record_quantize}
    bound_in: dict[str, list[str]] = {}
    for module in loaded:
        via = module.__name__.rpartition(".")[2]
        for attr, value in list(vars(module).items()):
            hit = original(value)
            if hit is not None:
                setattr(module, attr, tracer.wrap(value, hit[1], via, observers.get(hit[1])))
                bound_in.setdefault(hit[1], []).append(via)
    harness = sys.modules.get(f"{package}.harness")
    executor = getattr(harness, "ThreadPoolExecutor", None)
    if executor is not None:
        harness.ThreadPoolExecutor = _traced_executor(tracer, executor)
    unbound = [
        f"{module.__name__}.{attr}"
        for module in loaded
        for attr, value in vars(module).items()
        if original(value) is not None
    ]
    return {"bound_in": bound_in, "unbound": unbound}
