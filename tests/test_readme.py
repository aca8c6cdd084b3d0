"""The README's library example runs against the current API, and the names it cites exist."""

import importlib
import math
import re
from pathlib import Path

import secmimo
from secmimo.harness import CSV_HEADER, SCENARIOS

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {
    path.stem: importlib.import_module(f"secmimo.{path.stem}")
    for path in (Path(secmimo.__file__).parent).glob("*.py")
    if path.stem != "__init__"
}


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(math.isfinite(float(v)) for v in printed)


def _resolves(name: str) -> bool:
    """Whether `name`, dotted and maybe prefixed with secmimo., is an attribute of the package."""
    parts = name.removeprefix("secmimo.").split(".")
    if parts[0] in MODULES:
        owners, parts = [MODULES[parts[0]]], parts[1:]
    else:
        owners = [secmimo, *MODULES.values()]
    for obj in owners:
        for part in parts:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_cited_names_resolve():
    """Every backticked identifier with an underscore, or led by a module name, exists.

    CSV columns and scenario names are data, not attributes, and are skipped.
    """
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", README.read_text()))
    skipped = set(CSV_HEADER.split(",")) | set(SCENARIOS)
    cited = {
        n
        for n in names - skipped
        if "_" in n or n.split(".")[0] in ("secmimo", *MODULES)
    }
    assert cited, "the README cites no names"
    assert not {n for n in cited if not _resolves(n)}
