"""The README's library example runs against the current API, and the names it cites exist."""

import importlib
import math
import re
from pathlib import Path

import secmimo
from secmimo.cli import build_parser
from secmimo.harness import BIT_SOURCES, CSV_HEADER, SCENARIO_TABLE, SCENARIOS, scenario_config

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {
    path.stem: importlib.import_module(f"secmimo.{path.stem}")
    for path in (Path(secmimo.__file__).parent).glob("*.py")
    if path.stem != "__init__"
}
_MISSING = object()


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
            obj = getattr(obj, part, _MISSING)
        if obj is not _MISSING:
            return True
    return False


def test_resolves_fields_that_default_to_none():
    """A field whose default is None exists; a made-up attribute does not."""
    assert _resolves("ExperimentConfig.nf_grid")
    assert _resolves("harness.ExperimentConfig.epsilon")
    assert not _resolves("ExperimentConfig.bogus_field")
    assert not _resolves("harness.bogus_name")


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


def _scenario_rows() -> dict:
    """README's scenario table: scenario -> (n_r list, SNR grid, bits cell)."""
    pattern = r"^\| `(\w+)` +\| ([\d, ]+?) +\| (\S+) to (\S+), step (\S+) +\| (.+?) +\|$"
    return {
        name: (tuple(int(n) for n in n_rs.split(", ")), tuple(map(float, grid)), bits)
        for name, n_rs, *grid, bits in re.findall(pattern, README.read_text(), re.MULTILINE)
    }


# The ExperimentConfig field each bit flag sets.
_BIT_FIELDS = {"epsilon": "epsilon", "nf": "nf_grid"}


def _budgets(text: str) -> tuple:
    """Bit budgets written as one number, "30", or as a range, "10 to 100 by 10"."""
    lo, hi, step = re.fullmatch(r"(\d+)(?: to (\d+) by (\d+))?", text).groups()
    return tuple(range(int(lo), int(hi or lo) + 1, int(step or 1)))


def test_scenario_table_matches_code():
    """Each README row gives its scenario's default curves, SNR grid and bit flags, each
    flag with the default of the field it sets."""
    rows = _scenario_rows()
    assert list(rows) == list(SCENARIO_TABLE)
    assert set(_BIT_FIELDS) <= set(build_parser().parse_args(["run"]).config_keys)
    assert sorted(_BIT_FIELDS.values()) == sorted(BIT_SOURCES)
    for name, (n_rs, grid, bits) in rows.items():
        row, cfg = SCENARIO_TABLE[name], scenario_config(name)
        assert n_rs == row.n_rs, name
        assert grid == (cfg.snr_min, cfg.snr_max, cfg.snr_step), name
        flags = re.findall(r"`--(\w+)`(?: \(([^)]+)\))?", bits)
        defaults = {_BIT_FIELDS[flag]: default for flag, default in flags}
        assert set(defaults) == set(row.sources), name
        for field, default in defaults.items():
            parse = float if field == "epsilon" else _budgets
            assert (parse(default) if default else None) == row.defaults.get(field), (name, field)
