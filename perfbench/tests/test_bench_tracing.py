"""Tests of the benchmark's tracer: self-time arithmetic and rebinding.

    python3 -m pytest perfbench/tests
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402


# The summaries below are fed span times directly through ThreadLog.open and
# ThreadLog.close, so every expected figure is exact arithmetic. Each span
# gets a wall interval and a CPU interval; where the test does not need them
# to differ they are equal.


def _span(log, key, start, end=None):
    idx = log.open(key, 0, start, start)
    if end is not None:
        log.close(idx, end, end)
    return idx


def test_self_time_subtracts_children_on_the_same_thread():
    tracer = tracing.Tracer()
    log = tracer.log()
    a, b, c = (tracer.key_id(n) for n in ("m.outer", "m.inner", "n.leaf"))
    outer = _span(log, a, 0.0)
    inner = _span(log, b, 1.0)
    _span(log, c, 2.0, 2.5)
    log.close(inner, 4.0, 4.0)
    _span(log, c, 5.0, 6.0)
    log.close(outer, 10.0, 10.0)

    s = tracer.summary(call_cpu_s=10.0)
    f = s["functions"]
    assert f["m.outer"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert f["m.inner"]["self_s"] == pytest.approx(3.0 - 0.5)
    assert f["n.leaf"]["calls"] == 2
    assert f["n.leaf"]["busy_s"] == f["n.leaf"]["self_s"] == pytest.approx(1.5)
    assert f["n.leaf"]["p50_us"] == pytest.approx(0.5e6)
    assert s["modules"] == {"m": pytest.approx(8.5), "n": pytest.approx(1.5)}
    assert s["nested"]["n.leaf"] == {"m.outer": 2, "m.inner": 1}
    assert s["unattributed_s"] == pytest.approx(0.0)


def test_busy_time_counts_a_recursive_call_once():
    tracer = tracing.Tracer()
    log = tracer.log()
    k = tracer.key_id("m.f")
    outer = _span(log, k, 0.0)
    _span(log, k, 1.0, 2.0)
    log.close(outer, 4.0, 4.0)
    f = tracer.summary(call_cpu_s=4.0)["functions"]["m.f"]
    assert f["calls"] == 2
    assert f["busy_s"] == f["wall_s"] == pytest.approx(4.0)
    assert f["self_s"] == pytest.approx(4.0)


def test_spans_on_two_threads_keep_separate_stacks():
    tracer = tracing.Tracer()
    main_log = tracer.log()
    root = _span(main_log, tracer.key_id("m.root"), 0.0)
    ready = threading.Barrier(2)

    def worker(start):
        log = tracer.log()
        idx = _span(log, tracer.key_id("w.task"), start)
        ready.wait()  # both threads have a span open at once
        _span(log, tracer.key_id("w.leaf"), start + 1.0, start + 2.0)
        log.close(idx, start + 3.0, start + 3.0)

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1.0, 1.5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    main_log.close(root, 5.0, 5.0)

    s = tracer.summary(call_cpu_s=12.0)
    f = s["functions"]
    # worker spans are roots on their own threads: the main span keeps all 5 s
    assert f["m.root"]["self_s"] == pytest.approx(5.0)
    assert f["w.task"]["calls"] == 2
    assert f["w.task"]["busy_s"] == pytest.approx(6.0)
    assert f["w.task"]["self_s"] == pytest.approx(4.0)
    assert f["w.leaf"]["self_s"] == pytest.approx(2.0)
    assert s["nested"]["w.leaf"] == {"w.task": 2}
    # 12 s of process CPU, 5 + 3 + 3 of it inside root spans
    assert s["unattributed_s"] == pytest.approx(1.0)


def test_self_and_busy_times_are_cpu_time_and_wall_time_is_kept_apart():
    tracer = tracing.Tracer()
    log = tracer.log()
    task, leaf = tracer.key_id("w.task"), tracer.key_id("w.leaf")
    # a task of 4 s wall that ran 2.5 s on the CPU; its child waited 1 s
    idx = log.open(task, 0, 0.0, 0.0)
    child = log.open(leaf, 0, 1.0, 1.0)
    log.close(child, 3.0, 2.0)
    log.close(idx, 4.0, 2.5)

    f = tracer.summary(call_cpu_s=2.5)["functions"]
    assert f["w.task"]["busy_s"] == pytest.approx(2.5)
    assert f["w.task"]["wall_s"] == pytest.approx(4.0)
    assert f["w.task"]["self_s"] == pytest.approx(2.5 - 1.0)
    assert f["w.leaf"]["self_s"] == pytest.approx(1.0)
    assert f["w.leaf"]["p50_us"] == pytest.approx(1.0e6)


def _fake_package(monkeypatch):
    """pkg.low defines f; pkg.high imports it; pkg re-exports both."""
    pkg = types.ModuleType("pkg")
    low = types.ModuleType("pkg.low")
    high = types.ModuleType("pkg.high")
    exec(
        "def f(x):\n    return helper(x) + 1\n"
        "def helper(x):\n    return 2 * x\n"
        "def _private(x):\n    return x\n",
        low.__dict__,
    )
    high.f = low.f
    exec("def g(x):\n    return f(x) * 10\n", high.__dict__)
    pkg.f, pkg.g = low.f, high.g
    for name, module in (("pkg", pkg), ("pkg.low", low), ("pkg.high", high)):
        monkeypatch.setitem(sys.modules, name, module)
    return pkg, low, high


def test_install_rebinds_every_binding_including_intra_module(monkeypatch):
    pkg, low, high = _fake_package(monkeypatch)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, package="pkg", modules=("low", "high"))

    assert installed["unbound"] == []
    assert sorted(installed["bound_in"]["low.f"]) == ["high", "low", "pkg"]
    assert "low._private" not in installed["bound_in"]
    assert high.g(3) == 70
    assert pkg.f(1) == 3
    s = tracer.summary(call_cpu_s=1.0)
    assert s["via"]["low.f"] == {"high": 1, "pkg": 1}
    # f -> helper is looked up in low's globals at call time, so it is seen
    assert s["via"]["low.helper"] == {"low": 2}
    assert s["nested"]["low.helper"] == {"low.f": 2, "high.g": 1}


def test_traced_executor_spans_tasks_and_main_thread_wait(monkeypatch):
    pkg, low, high = _fake_package(monkeypatch)
    harness = types.ModuleType("pkg.harness")
    harness.ThreadPoolExecutor = ThreadPoolExecutor
    exec(
        "def run(n):\n"
        "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
        "        return list(pool.map(lambda i: f(i), range(n)))\n",
        harness.__dict__,
    )
    harness.f = low.f
    monkeypatch.setitem(sys.modules, "pkg.harness", harness)
    tracer = tracing.Tracer()
    tracing.install(tracer, package="pkg", modules=("low", "harness"))

    assert harness.run(6) == [2 * i + 1 for i in range(6)]
    s = tracer.summary(call_cpu_s=1.0)
    assert s["functions"][tracing.POOL_TASK]["calls"] == 6
    assert s["functions"][tracing.POOL_WAIT]["calls"] == 1
    assert s["via"]["low.f"] == {"harness": 6}
    assert s["nested"]["low.f"] == {tracing.POOL_TASK: 6}
    assert s["pool_workers"] == 2
