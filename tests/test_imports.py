"""Every name a source module imports is referenced in that module, no public name is dead,
and importing the package starts OpenBLAS with one thread."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "secmimo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


# Public names that no source module calls, each kept as a test oracle or test helper.
TEST_ONLY = {
    "codebook_generate": "draws the random codebooks that the exhaustive quantize searches",
    "quantize": "the exhaustive nearest-codeword oracle of the perturbation quantizer",
    "random_truncated_unitary": "Haar-random orthonormal columns for test inputs",
    "sample_channels": "one trial's channels drawn call by call, the oracle of sample_trials",
    "secrecy_rate_perfect_basic": "the perfect-CSI rate without the G filter, a second route",
    "secrecy_rate_G": "the explicit-precoder oracle of the engine's Gram route",
}


def _public_definitions() -> dict:
    """Each public top-level function or class of a source module, and each public method
    or property of a public class, with its qualified name."""
    defined = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = f"{path.name}:{node.name}"
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[item.name] = f"{path.name}:{node.name}.{item.name}"
    return defined


def _referenced_names() -> set:
    """Every name a source module other than __init__ reads, bare or as an attribute."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_dead_public_code():
    """Every public function, class, method or property has a source caller or is listed
    test-only, and every listed name is defined and has no source caller, so the list
    cannot go stale."""
    defined, used = _public_definitions(), _referenced_names()
    dead = sorted(set(defined) - used - set(TEST_ONLY))
    assert not dead, f"no source module uses {[defined[n] for n in dead]}"
    assert set(TEST_ONLY) <= set(defined), f"not defined: {sorted(set(TEST_ONLY) - set(defined))}"
    assert not set(TEST_ONLY) & used, f"have a source caller: {sorted(set(TEST_ONLY) & used)}"


# What OpenBLAS reads for its thread count, in its order.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PROBE = """
import os, secmimo, numpy
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ.get("OPENBLAS_NUM_THREADS"), tasks)
"""


@pytest.mark.parametrize(
    "preset, expected",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"), ({"OMP_NUM_THREADS": "2"}, "None")],
    ids=["unset", "openblas-preset", "omp-preset"],
)
def test_openblas_starts_with_one_thread(preset, expected):
    """`import secmimo` sets OPENBLAS_NUM_THREADS=1 before numpy loads, unless the caller set
    a variable OpenBLAS reads; run in a fresh interpreter, as this one has loaded numpy."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(SRC.parent))
    argv = [sys.executable, "-c", PROBE]
    probe = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    value, tasks = probe.stdout.split()
    assert value == expected
    if not preset and tasks != "None":
        assert tasks == "1", f"{tasks} threads after numpy loaded"


LAZY_PROBE = """
import contextlib, io, os, sys, tempfile
from secmimo.cli import cli_main
loaded = ["secmimo.verification" in sys.modules]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    out = os.path.join(tmp, "run.csv")
    codes = [cli_main(["run", "--scenario", "slope", "--trials", "1", "--out", out])]
    loaded.append("secmimo.verification" in sys.modules)
    codes.append(cli_main(["verify", "--trials", "1"]))
    loaded.append("secmimo.verification" in sys.modules)
print(*codes, *loaded)
"""


def test_run_never_imports_the_verification_suites():
    """`run` leaves `secmimo.verification` unloaded, and only `verify` loads it; run in a
    fresh interpreter, as this one may have loaded the suites."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    argv = [sys.executable, "-c", LAZY_PROBE]
    probe = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
    assert probe.stdout.split() == ["0", "0", "False", "False", "True"]
