"""BENCHMARK.json names exactly the metrics and workloads the benchmark prints.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        metrics.PER_LAYER.items()
    )


def test_workloads_are_listed_and_setup_has_the_largest_bound():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_command_line_takes_workload_seed_seconds_and_trace():
    args = run.parse_args(["--workload", "slope", "--seed", "7", "--seconds", "50", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("slope", 7, 50.0, 1)
