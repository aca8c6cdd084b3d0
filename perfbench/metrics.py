"""Summary statistics and the benchmark's metric definitions.

End-to-end metrics come from untraced executions; per-layer metrics come
from the traced ones (see ``tracing``). A module's ``share`` is its self CPU
time over the CPU time of the traced call, all threads, so the shares of the
modules plus ``trace.unattributed_frac`` add up to 1.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MODULES = ("grassmann", "linalg", "rates", "transceiver", "harness", "cli")

_CALLS_AND_BUSY = {
    "grassmann": ("perturb_quantize", "perturb_to_distance"),
    "linalg": ("logdet_pd", "as_matrix", "qr_tall", "nullspace_basis"),
    "rates": ("secrecy_rate_perfect_G", "secrecy_rate_quantized_G", "fit_slope"),
    "transceiver": (
        "sample_channels",
        "rx_postfilter",
        "tx_precoders_perfect",
        "tx_precoders_quantized",
        "leakage_power",
    ),
}


def _layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.share"] = "frac"
        for fn in _CALLS_AND_BUSY.get(module, ()):
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.busy_s"] = "s"
    units.update(
        {
            "grassmann.perturb_quantize.p50_us": "us",
            "grassmann.perturb_quantize.p99_us": "us",
            "grassmann.chordal_distance.calls": "count",
            "grassmann.evals_per_quantize": "ratio",
            "grassmann.attempts_per_quantize": "ratio",
            "grassmann.distance_err_max": "chordal",
            "linalg.as_matrix.calls_per_point": "ratio",
            "harness.run_experiment.busy_s": "s",
            "harness.run_experiment.self_s": "s",
            "harness.write_csv.busy_s": "s",
            "harness.write_csv.bytes": "B",
            "harness.pool_wait_s": "s",
            "harness.pool_offcpu_s": "s",
            "harness.pool_threads": "count",
        }
    )
    units.update(
        {
            "trace.overhead_frac": "frac",
            "trace.unattributed_frac": "frac",
            "trace.points": "count",
            "trace.spans": "count",
        }
    )
    return units


PER_LAYER = _layer_units()

# Per-layer metrics that must repeat exactly between traced runs of one seed.
EXACT_UNITS = ("count", "ratio", "B")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    # rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_level(n: int) -> float | None:
    """Highest percentile with at least ``MIN_BEYOND`` of n samples beyond it."""
    for p in TAIL_LEVELS:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def describe(values) -> dict:
    """Median, quartiles, the tail percentile the sample count allows, and n."""
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    out.update(q1=q1, q3=q3)
    level = tail_level(len(values))
    if level is not None:
        out.update(tail_level=level, tail=percentile(values, level))
    return out


def layer_metrics(summary: dict, *, points: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer metric values of one traced execution (see ``PER_LAYER``)."""
    functions = summary["functions"]

    def fn(name: str, field: str) -> float:
        return functions.get(name, {}).get(field, 0)

    def nested(name: str, inside: str) -> int:
        return summary["nested"].get(name, {}).get(inside, 0)

    cpu = summary["cpu_s"]
    out: dict[str, float] = {}
    for module in MODULES:
        self_s = summary["modules"].get(module, 0.0)
        out[f"{module}.self_s"] = self_s
        out[f"{module}.share"] = self_s / cpu
        for name in _CALLS_AND_BUSY.get(module, ()):
            out[f"{module}.{name}.calls"] = fn(f"{module}.{name}", "calls")
            out[f"{module}.{name}.busy_s"] = fn(f"{module}.{name}", "busy_s")
    ptd_calls = fn("grassmann.perturb_to_distance", "calls")
    out.update(
        {
            "grassmann.perturb_quantize.p50_us": fn("grassmann.perturb_quantize", "p50_us"),
            "grassmann.perturb_quantize.p99_us": fn("grassmann.perturb_quantize", "p99_us"),
            "grassmann.chordal_distance.calls": fn("grassmann.chordal_distance", "calls"),
            "grassmann.evals_per_quantize": (
                nested("grassmann.chordal_distance", "grassmann.perturb_to_distance") / ptd_calls
                if ptd_calls
                else 0.0
            ),
            "grassmann.attempts_per_quantize": (
                nested("linalg.random_gaussian_matrix", "grassmann.perturb_to_distance") / ptd_calls
                if ptd_calls
                else 0.0
            ),
            "grassmann.distance_err_max": summary["distance_err_max"],
            "linalg.as_matrix.calls_per_point": (
                fn("linalg.as_matrix", "calls") / points if points else 0.0
            ),
            # the trial engine's CPU on every thread: its tasks run on the pool's
            "harness.run_experiment.busy_s": (
                fn("harness.run_experiment", "busy_s") + fn("harness.pool_task", "busy_s")
            ),
            "harness.run_experiment.self_s": sum(
                fn(name, "self_s")
                for name in ("harness.run_experiment", "harness.pool_wait", "harness.pool_task")
            ),
            "harness.write_csv.busy_s": fn("harness.write_csv", "busy_s"),
            "harness.write_csv.bytes": csv_bytes,
            "harness.pool_wait_s": fn("harness.pool_wait", "wall_s"),
            "harness.pool_offcpu_s": (
                fn("harness.pool_task", "wall_s") - fn("harness.pool_task", "busy_s")
            ),
            "harness.pool_threads": summary["pool_workers"],
        }
    )
    out.update(
        {
            "trace.unattributed_frac": summary["unattributed_s"] / cpu,
            "trace.points": points,
            "trace.spans": summary["spans"],
        }
    )
    return out
