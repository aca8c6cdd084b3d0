"""Every name a source module imports is referenced in that module, no public name is dead,
every input of an exported function can be built from exported names, no rate or bound takes
the antenna counts beside a power policy, no function but the shape-generic bounds takes the
pair (n_t, n_r), `verification` builds no trial or bit schedule of its own, and importing the
package starts OpenBLAS with one thread."""

import ast
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import secmimo
from secmimo import grassmann, harness, rates, transceiver, verification
from secmimo.transceiver import AntennaConfig, PowerPolicy

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
    "secrecy_rate_perfect_basic": "the perfect-CSI rate from the SVD of Hd and the nuller V, "
    "without rx_postfilter's QR factors, a second route",
    "precoder_grams": "the Gram set of explicit precoders, the oracle of the engine's Gram route",
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


def _secmimo_classes(hint) -> set:
    """The secmimo classes a type hint names, inside containers and unions too."""
    if inspect.isclass(hint) and hint.__module__.startswith("secmimo."):
        return {hint}
    return set().union(*map(_secmimo_classes, typing.get_args(hint)))


def test_every_exported_input_can_be_built():
    """Each secmimo class that an exported function takes, by its type hints, is exported
    or is the return hint of an exported function, so a caller can build every input."""
    exported = {getattr(secmimo, name) for name in dir(secmimo) if not name.startswith("_")}
    hints = {fn: typing.get_type_hints(fn) for fn in exported if inspect.isfunction(fn)}
    built = exported | set().union(*(_secmimo_classes(h.get("return")) for h in hints.values()))
    unbuildable = sorted(
        f"{fn.__name__} takes {cls.__name__}"
        for fn, fn_hints in hints.items()
        for name, hint in fn_hints.items()
        if name != "return"
        for cls in _secmimo_classes(hint) - built
    )
    assert not unbuildable, f"no exported name builds the input: {unbuildable}"
    assert _secmimo_classes(list[rates.RateGrams] | None) == {rates.RateGrams}


def _public_callables(module):
    """Each public function of `module`, and each public method or property of its public
    classes, by qualified name."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
            member = member.fget if isinstance(member, property) else member
            if not attr.startswith("_") and inspect.isfunction(member):
                yield f"{name}.{attr}", member


def _takes_policy_and_config(fn) -> bool:
    return {PowerPolicy, AntennaConfig} <= set(typing.get_type_hints(fn).values())


@pytest.mark.parametrize("module", [rates, transceiver], ids=lambda m: m.__name__)
def test_no_config_beside_a_policy(module):
    """A PowerPolicy carries the AntennaConfig it splits power over, so no public function or
    method of the module takes both, by their type hints; some take the policy alone."""
    hinted = dict(_public_callables(module))
    both = sorted(name for name, fn in hinted.items() if _takes_policy_and_config(fn))
    assert not both, f"{both} take an AntennaConfig beside a PowerPolicy"
    takers = [fn for fn in hinted.values() if PowerPolicy in typing.get_type_hints(fn).values()]
    assert takers, f"{module.__name__} has no function that takes a PowerPolicy"

    def both_counts(grams, policy: PowerPolicy, config: AntennaConfig):
        pass

    assert _takes_policy_and_config(both_counts)


# Public functions that take (n_t, n_r) as the shape of any G(n_t, n_r), not of one config's.
SHAPE_GENERIC = {"quant_error_bound", "codebook_generate"}


@pytest.mark.parametrize(
    "module", [grassmann, transceiver, harness, verification], ids=lambda m: m.__name__
)
def test_no_antenna_count_pair(module):
    """The fed-back G(n_t, k) is read from an AntennaConfig, so no public function or method
    of the module takes parameters named both n_t and n_r, but the shape-generic bounds."""
    pairs = sorted(
        name
        for name, fn in _public_callables(module)
        if {"n_t", "n_r"} <= set(inspect.signature(fn).parameters) and name not in SHAPE_GENERIC
    )
    assert not pairs, f"{pairs} take the pair (n_t, n_r); pass the AntennaConfig"


# What builds a trial or its bit schedule; `verification` takes both from `harness`.
TRIAL_MODEL = {"sample_trials", "rx_postfilter", "trial_couplings", "feedback_bits"}


def test_verification_takes_the_trial_model_from_harness():
    """`verification` neither imports nor calls the functions that build a trial or its bit
    schedule: its suites get their trials from `harness._trial_stage` and their matched
    schedules from `ExperimentConfig.validate`, as `run` does."""
    tree = ast.parse((SRC / "verification.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        names.add(getattr(node, "id", None) or getattr(node, "attr", None))
    assert not names & TRIAL_MODEL, f"verification uses {sorted(names & TRIAL_MODEL)}"
    assert "_trial_stage" in names and "validate" in names


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
