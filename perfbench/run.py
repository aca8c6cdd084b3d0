"""secmimo benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload slope --seed 3 --seconds 30 --trace 0

Run it from the root of a secmimo checkout; the program is imported from
``src/`` there. The load is a closed loop with one client: each execution is
a fresh interpreter (``worker.py``) that runs the workload once through
``secmimo.cli.cli_main``, and executions follow each other back to back
until ``--seconds`` have been measured (at least three). Every execution
uses the same seed, so their outputs must be byte-identical.

With ``--trace 0`` the result holds the medians of the end-to-end metrics
over the executions. With ``--trace 1`` the executions alternate between
untraced and traced (at least two traced), and the result holds the
per-layer metrics: counts, which must repeat exactly, and the medians of
times over the traced executions.

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one execution; a crash, a nonzero exit or a failed output check fails it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
from workloads import BINDINGS, REFERENCE_SEEDS, WORKLOADS, cli_argv, reference_csv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_EXECUTIONS = 3
# Stop starting executions past this point, so a run ends within 180 s.
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 160.0
WARM_UP_TIMEOUT_S = 60.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def child_env() -> dict:
    """The caller's environment with the worker-count override removed."""
    env = dict(os.environ)
    env.pop("SIMSEC_THREADS", None)
    return env


def warm_up() -> None:
    """Compile the package's bytecode once, a cost users do not pay per run."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import secmimo.cli"
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                   check=True, timeout=WARM_UP_TIMEOUT_S, capture_output=True)


def execute(workload: str, seed: int, traced: bool, work: Path, index: int,
            timeout: float) -> dict:
    """Run one execution in a fresh interpreter and return what it reported."""
    out_csv = work / f"out-{index}.csv"
    result_path = work / f"result-{index}.json"
    spec = {
        "root": str(ROOT),
        "argv": cli_argv(workload, seed, str(out_csv)),
        "trace": traced,
        "result": str(result_path),
        "t0": time.monotonic(),
    }
    record = {"traced": traced, "result": None, "csv": None}
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        record["error"] = f"worker timed out after {timeout:.0f} s"
        return record
    finally:
        record["duration_s"] = time.monotonic() - spec["t0"]
    if proc.returncode != 0 or not result_path.is_file():
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        record["error"] = f"worker exit {proc.returncode}: {tail}"
        return record
    record["result"] = json.loads(result_path.read_text())
    if out_csv.is_file():
        record["csv"] = out_csv.read_text()
    return record


def check_execution(workload: str, seed: int, record: dict) -> dict:
    """Output checks of one execution: operations attempted and failed, problems."""
    spec = WORKLOADS[workload]
    result = record["result"]
    if result is None:
        return {"attempted": 1, "failed": 1, "problems": [record["error"]], "points": 0}
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}")
    text = record["csv"]
    points = 0
    if text is None:
        problems.append("no CSV written")
    else:
        problems += checks.check_shape(text, spec["rows"], spec["trials"])
        points = sum(int(r["trials"]) for r in checks.parse_csv(text)[1])
        if seed in REFERENCE_SEEDS:
            ref = reference_csv(workload, seed).read_text()
            problems += checks.compare_csv(text, ref)
        if workload == "slope":
            problems += checks.check_slopes(result["stdout"], spec["n_r"])
        if workload == "gap_vs_bits":
            problems += checks.check_gap_decays(text)
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems,
            "points": points}


def check_determinism(records: list[dict]) -> None:
    """Every execution of the run must produce the same output bytes as the first."""
    done = [r for r in records if r["result"] is not None]
    outputs = [r["csv"] for r in done]
    for record, out in zip(done, outputs):
        if out != outputs[0]:
            _fail(record, "output differs from the first execution's")


def check_trace(traced: list[dict], layer_values: list[dict]) -> None:
    """Counts repeat exactly, and no binding of a traced function was left unwrapped."""
    first = layer_values[0]
    for record, values in zip(traced, layer_values):
        for name, unit in metrics.PER_LAYER.items():
            if unit in metrics.EXACT_UNITS and values[name] != first[name]:
                _fail(record, f"{name} = {values[name]}, first traced run had {first[name]}")
        unbound = record["result"]["trace"]["unbound"]
        if unbound:
            _fail(record, f"bindings left unwrapped: {unbound}")


def _fail(record: dict, problem: str) -> None:
    check = record["check"]
    check["problems"].append(problem)
    check["failed"] = max(check["failed"], 1)


def machine_record(threads_used: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_used": sorted(set(threads_used)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k)
                for k in ("SIMSEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "child_env_unset": ["SIMSEC_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _fmt(stats: dict) -> str:
    tail = (f"p{stats['tail_level']:g}={stats['tail']:.6g}" if "tail_level" in stats
            else "tail: too few samples")
    return (f"median={stats['median']:.6g} q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
            f"{tail} n={stats['n']}")


def measure(args, work: Path) -> list[dict]:
    """Executions back to back until ``--seconds`` are measured; each one checked."""
    started = time.monotonic()
    warm_up()
    records: list[dict] = []
    while True:
        i = len(records)
        elapsed = time.monotonic() - started
        estimate = statistics.median(r["duration_s"] for r in records) if records else 0.0
        if i >= MIN_EXECUTIONS and elapsed + estimate > args.seconds:
            break
        if elapsed + estimate > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and (i in (1, 2) or (i > 2 and i % 2 == 0))
        record = execute(args.workload, args.seed, traced, work, i,
                         timeout=min(CHILD_TIMEOUT_S, 175.0 - elapsed))
        record["check"] = check_execution(args.workload, args.seed, record)
        records.append(record)
        if record["result"] is None:
            break
    check_determinism(records)
    return records


def report_bindings(traced: list[dict]) -> None:
    trace = traced[0]["result"]["trace"]
    n_bound = sum(len(v) for v in trace["bound_in"].values())
    print(f"bindings: {n_bound} rebound in {len(trace['bound_in'])} functions, "
          f"{len(trace['unbound'])} left unwrapped")
    for fn, via in BINDINGS:
        calls = trace["via"].get(fn, {}).get(via, 0)
        print(f"bindings: {fn} called through {via}: {calls}")


def run(args, work: Path) -> int:
    records = measure(args, work)
    untraced = [r for r in records if r["result"] and not r["traced"]]
    traced = [r for r in records if r["result"] and r["traced"]]
    layer_values = [
        metrics.layer_metrics(r["result"]["trace"], points=r["check"]["points"],
                              csv_bytes=len((r["csv"] or "").encode()))
        for r in traced
    ]
    if traced:
        check_trace(traced, layer_values)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} trials={WORKLOADS[args.workload]['trials']} "
          f"load=closed loop, 1 client")
    threads_used = [r["result"]["threads_used"] for r in records if r["result"]]
    print("machine " + json.dumps(machine_record(threads_used)))
    for i, r in enumerate(records, start=1):
        res = r["result"]
        status = "; ".join(r["check"]["problems"][:5]) or "ok"
        kind = "traced" if r["traced"] else "untraced"
        if res is None:
            print(f"execution {i} ({kind}): {status}")
            continue
        print(f"execution {i} ({kind}): wall {res['wall_s']:.4f} s, cpu {res['cpu_s']:.4f} s, "
              f"setup {res['setup_s']:.4f} s, rss {res['peak_rss_mb']:.1f} MB, "
              f"threads {res['threads_used']}, checks: {status}")
    attempted = sum(r["check"]["attempted"] for r in records)
    failed = sum(r["check"]["failed"] for r in records)
    if args.seed in REFERENCE_SEEDS:
        reference = (f"CSV compared to {reference_csv(args.workload, args.seed).relative_to(ROOT)}"
                     f" within abs {checks.ABS_TOL:g} + rel {checks.REL_TOL:g}")
    else:
        reference = "no reference CSV for this seed"
    print(f"output checks: {reference}; outputs of all executions must be identical")
    print(f"error_rate [frac]: {failed}/{attempted} = {failed / attempted:.4g} "
          f"(operations: executions)")

    if not untraced or (args.trace and not traced):
        print("error: no execution completed", file=sys.stderr)
        return 1
    values: dict[str, dict] = {}
    if not args.trace:
        for name, unit in metrics.END_TO_END.items():
            stats = metrics.describe(r["result"][name] for r in untraced)
            print(f"{name} [{unit}]: {_fmt(stats)}")
            values[name] = {"value": stats["median"], "unit": unit}
    else:
        report_bindings(traced)
        overhead = (statistics.median(r["result"]["wall_s"] for r in traced)
                    / statistics.median(r["result"]["wall_s"] for r in untraced) - 1.0)
        for name, unit in metrics.PER_LAYER.items():
            if name == "trace.overhead_frac":
                value = overhead
            elif unit in metrics.EXACT_UNITS:
                value = layer_values[0][name]
            else:
                value = statistics.median(v[name] for v in layer_values)
            print(f"{name} [{unit}]: {value:.6g}")
            values[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "secmimo" / "__init__.py").is_file():
        print(f"error: no secmimo sources under {ROOT / 'src'}; run from a secmimo checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
