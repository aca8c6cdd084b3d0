"""The benchmark's workloads: which `secmimo` command each one runs.

Every workload goes through the public CLI entry point
``secmimo.cli.cli_main`` with the benchmark seed passed as ``--seed``. The
trial counts are fixed here, because the reference CSVs under
``references/`` were produced with exactly these arguments.
"""

from __future__ import annotations

from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Seeds for which references/<workload>/seed_<n>.csv exists.
REFERENCE_SEEDS = range(32)

# (function, module) pairs whose call counts through that module's binding
# the traced run prints, to show that the rebinding reached it. The
# defining module's own name stands for calls from inside that module.
BINDINGS = (
    ("linalg.logdet_pd", "rates"),
    ("grassmann.chordal_distance", "grassmann"),
    ("grassmann.perturb_quantize", "harness"),
    ("transceiver.rx_postfilter", "harness"),
    ("harness.run_experiment", "cli"),
)

WORKLOADS = {
    "slope": {"trials": 60, "rows": 39, "n_r": (2, 3, 4)},
    "gap_vs_bits": {"trials": 60, "rows": 30},
}


def cli_argv(workload: str, seed: int, out_csv: str) -> list[str]:
    """Arguments passed to ``cli_main`` for one execution of a workload."""
    trials = str(WORKLOADS[workload]["trials"])
    if workload == "slope":
        return ["run", "--scenario", "slope", "--nr", "2", "--nr", "3", "--nr", "4",
                "--seed", str(seed), "--trials", trials, "--out", out_csv]
    if workload == "gap_vs_bits":
        return ["run", "--scenario", "gap_vs_bits",
                "--seed", str(seed), "--trials", trials, "--out", out_csv]
    raise KeyError(workload)


def reference_csv(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed_{seed:02d}.csv"
