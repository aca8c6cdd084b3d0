"""Output checks of the benchmark's executions.

Each check returns a list of problems; an empty list means it passed.

Reference CSVs (``references/<workload>/seed_<n>.csv``) were produced with the
same arguments by the first commit that carried this benchmark. A CSV
matches its reference when the header, the row count and every text and
integer field are equal, and every float field is within
``ABS_TOL + REL_TOL * |reference|``. Tightening the quantizer's bisection
tolerance from 1e-6 to 1e-13 at that commit (seeds 0-5, both workloads)
moved every float by less than 1e-6 + 1e-5 * |reference|, a tenth of this
tolerance, so it admits the round-off shifts of a more exact quantizer (a
closed-form root, a batched engine) and still rejects a change of Monte
Carlo size, which is of order 1e-2.
"""

from __future__ import annotations

import csv
import io
import math
import re

REL_TOL = 1e-4
ABS_TOL = 1e-5
SLOPE_TOL = 0.15

_TEXT_FIELDS = {"scenario"}
_INT_FIELDS = {"n_t", "n_r", "n_j", "n_e", "nf_bits", "trials"}

_SLOPE_LINE = re.compile(
    r"n_t=(\d+) n_r=(\d+) n_j=(\d+) n_e=(\d+) "
    r"perfect_slope=(-?[\d.]+|nan) quantized_slope=(-?[\d.]+|nan)"
)


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def compare_csv(text: str, reference: str) -> list[str]:
    """Problems found comparing a results CSV with its reference."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        for field in header:
            got, want = row[field], ref[field]
            if field in _TEXT_FIELDS or field in _INT_FIELDS:
                ok = got == want
            else:
                try:
                    g, w = float(got), float(want)
                except ValueError:
                    ok = False
                else:
                    ok = math.isfinite(g) and abs(g - w) <= ABS_TOL + REL_TOL * abs(w)
            if not ok:
                problems.append(f"line {i} {field}: {got} vs reference {want}")
    return problems


def check_shape(text: str, rows: int, trials: int) -> list[str]:
    """Row count, per-row trial count and finite values of a results CSV."""
    header, records = parse_csv(text)
    problems = []
    if len(records) != rows:
        problems.append(f"{len(records)} rows, expected {rows}")
    for i, rec in enumerate(records, start=2):
        if rec.get("trials") != str(trials):
            problems.append(f"line {i}: trials {rec.get('trials')}, expected {trials}")
        for field in header:
            if field in _TEXT_FIELDS or field in _INT_FIELDS:
                continue
            try:
                finite = math.isfinite(float(rec[field]))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                problems.append(f"line {i} {field}: {rec[field]!r} is not a finite number")
    return problems


def check_slopes(stdout: str, n_r_list) -> list[str]:
    """Both fitted slopes of every curve within ``SLOPE_TOL`` of n_r - n_j."""
    fits = {int(m[1]): m for m in _SLOPE_LINE.findall(stdout)}
    problems = []
    for n_r in n_r_list:
        m = fits.get(n_r)
        if m is None:
            problems.append(f"no slope line for n_r={n_r}")
            continue
        target = n_r - int(m[2])
        for label, value in (("perfect", m[4]), ("quantized", m[5])):
            if not abs(float(value) - target) <= SLOPE_TOL:
                problems.append(f"n_r={n_r} {label} slope {value}, target {target} +- {SLOPE_TOL}")
    return problems


def check_gap_decays(text: str) -> list[str]:
    """At every SNR the gap at the largest bit budget is below the smallest's."""
    _, records = parse_csv(text)
    by_snr: dict[str, dict[int, float]] = {}
    for rec in records:
        by_snr.setdefault(rec["snr_db"], {})[int(rec["nf_bits"])] = float(rec["gap_mean"])
    problems = []
    for snr, gaps in by_snr.items():
        lo, hi = gaps[min(gaps)], gaps[max(gaps)]
        if not hi < lo:
            problems.append(f"snr {snr}: gap {hi} at {max(gaps)} bits not below {lo}")
    return problems
