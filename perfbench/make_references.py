"""Regenerate the reference CSVs that the benchmark's output check compares to.

    python3 perfbench/make_references.py

Run it from the repository root at the commit whose outputs are the
reference; it rewrites every reference seed of every workload. The stored
references were produced by the first commit that carried this benchmark;
regenerate them only when a change is meant to alter the numbers beyond the
tolerance that ``checks.compare_csv`` states.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE_SEEDS, WORKLOADS, cli_argv, reference_csv

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SIMSEC_THREADS", None)
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            out = reference_csv(workload, seed)
            out.parent.mkdir(parents=True, exist_ok=True)
            argv = cli_argv(workload, seed, str(out))
            subprocess.run([sys.executable, "-m", "secmimo.cli", *argv],
                           env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            print(f"wrote {out.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
