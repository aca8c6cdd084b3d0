"""Tests of the benchmark's output checks and its percentile rule.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import metrics  # noqa: E402
from workloads import reference_csv  # noqa: E402


def _perturb(text: str, line: int, field: str, scale: float) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[line - 1].rstrip("\n").split(",")
    col = header.index(field)
    cells[col] = format(float(cells[col]) * scale, ".9g")
    lines[line - 1] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("workload", ["slope", "gap_vs_bits"])
def test_reference_matches_itself(workload):
    ref = reference_csv(workload, 0).read_text()
    assert checks.compare_csv(ref, ref) == []


@pytest.mark.parametrize("workload", ["slope", "gap_vs_bits"])
def test_perturbed_csv_is_rejected(workload):
    ref = reference_csv(workload, 0).read_text()
    bad = _perturb(ref, line=20, field="r_quantized_mean", scale=1.001)
    problems = checks.compare_csv(bad, ref)
    assert len(problems) == 1 and "line 20 r_quantized_mean" in problems[0]


def test_round_off_shift_is_admitted():
    ref = reference_csv("slope", 0).read_text()
    shifted = _perturb(ref, line=30, field="gap_mean", scale=1.0 + 2e-5)
    assert checks.compare_csv(shifted, ref) == []


def test_changed_integer_field_and_row_count_are_rejected():
    ref = reference_csv("slope", 0).read_text()
    lines = ref.splitlines(keepends=True)
    assert checks.compare_csv("".join(lines[:-1]), ref) == [
        f"{len(lines) - 2} rows, reference has {len(lines) - 1}"
    ]
    bad = ref.replace(",60\n", ",61\n", 1)
    assert any("trials" in p for p in checks.compare_csv(bad, ref))


def test_slope_check():
    good = (
        "n_t=4 n_r=2 n_j=1 n_e=2 perfect_slope=1.000 quantized_slope=1.012\n"
        "n_t=6 n_r=3 n_j=1 n_e=3 perfect_slope=1.999 quantized_slope=2.140\n"
    )
    assert checks.check_slopes(good, (2, 3)) == []
    bad = good.replace("2.140", "2.160")
    assert checks.check_slopes(bad, (2, 3)) == ["n_r=3 quantized slope 2.160, target 2 +- 0.15"]
    assert checks.check_slopes(good, (2, 3, 4)) == ["no slope line for n_r=4"]


@pytest.mark.parametrize(
    "n, level",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_level_leaves_ten_samples_beyond(n, level):
    assert metrics.tail_level(n) == level
    if level is not None:
        assert metrics.samples_beyond(n, level) >= metrics.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert metrics.percentile(values, 99.0) == 990
    assert sum(v > metrics.percentile(values, 99.0) for v in values) == 10
    assert metrics.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_describe_reports_tail_with_sample_count():
    stats = metrics.describe(range(1, 101))
    assert stats["n"] == 100
    assert stats["median"] == 50.5
    assert stats["tail_level"] == 90.0 and stats["tail"] == 90
    assert "tail_level" not in metrics.describe([1.0, 2.0, 3.0])
