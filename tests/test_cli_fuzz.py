"""Property tests of the CLI's exit-code contract over random arguments and files.

Whatever the input, `cli_main` returns 0, 1 or 2, raises nothing, emits no
warning, and writes at most one line to stderr: exactly one for exit 1 and
for a numerical failure of `run` or `slopes`. Runs are kept small: every
`run` passes --trials at most 2 and an SNR grid of at most 29 points.
"""

import contextlib
import io
import json
import os
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from secmimo.cli import cli_main
from secmimo.harness import CSV_HEADER

_SETTINGS = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

_GARBAGE = st.sampled_from(["", "x", "1e", "--", "-1", "0x10", "nan", "inf", "2.5", "é"])

# Values each run flag (and config key) may take: mostly in range, some not.
_FLAG_VALUES = {
    "scenario": st.sampled_from(["slope", "saturation", "gap_vs_bits", "custom", "bogus"]),
    "nr": st.integers(-1, 4),
    "snr_min": st.sampled_from([-10.0, 0.0, 10.0, float("nan")]),
    "snr_max": st.sampled_from([0.0, 20.0, 40.0, float("inf")]),
    "snr_step": st.sampled_from([-5.0, 0.0, 5.0, 10.0, float("nan")]),
    "seed": st.integers(-2, 2**64),
    "rho": st.sampled_from([0.0, 0.3, 0.5, 1.0, -0.5, float("nan")]),
    "epsilon": st.sampled_from([0.0, 0.25, -1.0, 1e308, float("inf")]),
    "nf": st.integers(-1, 200),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _mostly(values):
    """Strings of `values` about seven times in eight, garbage otherwise."""
    return _ODDS.flatmap(lambda garbage: _GARBAGE if garbage else values.map(str))


_ODDS = st.sampled_from([False] * 7 + [True])

# Config values of every JSON kind a key may be given by mistake: a list, an
# object, a float (none of which makes an SNR grid finer than 2.5 dB) and a bool.
_ANY_KIND = [
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.sampled_from(["nr", "x"]), st.integers(-1, 4), max_size=2),
    st.sampled_from([-2.5, 2.5, 7.5]),
    st.booleans(),
]


def _call(argv, cwd):
    """Exit code, stdout and stderr of one CLI call in `cwd`; fails on a warning or exception."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.chdir(cwd)  # contextlib.chdir needs Python 3.11
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        finally:
            os.chdir(home)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _check(code, err, quiet_failure=False):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == (0 if code == 0 or (code == 2 and quiet_failure) else 1), err
    assert err == "" or err.endswith("\n")


@st.composite
def _config_text(draw):
    """A config file: a JSON object of known and unknown keys, other JSON, or raw bytes."""
    kind = draw(st.sampled_from(["object", "object", "object", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "json":
        value = st.one_of(
            st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3)
        )
        return json.dumps(draw(value)).encode()
    known = sorted(_FLAG_VALUES) + ["trials", "out", "bogus"]
    keys = draw(st.lists(st.sampled_from(known), max_size=4))
    obj = {}
    for key in keys:
        if key == "trials":
            strategies = [st.integers(-1, 2)]
        elif key in _FLAG_VALUES:
            strategies = [_FLAG_VALUES[key], _GARBAGE, st.none()]
        else:
            strategies = [st.integers(-1, 3), _GARBAGE]
        obj[key] = draw(st.one_of(*strategies, *_ANY_KIND))
    return json.dumps(obj).encode()


@st.composite
def _run_argv(draw):
    """`run` flags in random order; --trials is always there (last one wins) and at most 2."""
    argv = ["run", "--trials", draw(st.sampled_from(["1", "2"]))]
    for key in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=6)):
        argv += [_flag(key), draw(_mostly(_FLAG_VALUES[key]))]
    extra = _mostly_nothing(["--trials", "0"], ["--trials", "two"], ["--nr"], ["--config"])
    return argv + draw(extra)


def _mostly_nothing(*extras):
    """No extra arguments about seven times in eight, else one of `extras` or a stray one."""
    extra = st.sampled_from([*extras, ["--bogus"], ["stray"]])
    return _ODDS.flatmap(lambda garbage: extra if garbage else st.just([]))


_RATES = st.lists(st.floats(-5.0, 50.0), min_size=4, max_size=4)


def _row(n_r, snr, nf, rates) -> str:
    """A results row of curve (2n, n, 1, n) with the given SNR, budget and four rate cells."""
    return ",".join(map(str, ["slope", 2 * n_r, n_r, 1, n_r, snr, nf, *rates, 5]))


@st.composite
def _csv_row(draw):
    """A results row of curve (2n, n, 1, n), n 2 or 3, with random SNR and rates."""
    n_r = draw(st.sampled_from([2, 3]))
    return _row(n_r, draw(st.sampled_from([0.0, 10.0, 20.0, 30.0])), 30, draw(_RATES))


@st.composite
def _sweep_rows(draw, clash=False, short=False):
    """Rows of one curve at three to five distinct SNRs with one bit budget per SNR, some
    points repeated, in any order; with `clash`, one more row puts a second budget at one
    of the SNRs; with `short`, rows of a second curve at one or two SNRs, too few for a
    slope, are mixed in."""
    n_r = draw(st.sampled_from([2, 3]))
    snr_grid = st.sampled_from([0.0, 10.0, 20.0, 30.0, 40.0])
    snrs = draw(st.lists(snr_grid, min_size=3, max_size=5, unique=True))
    budgets = {snr: draw(st.integers(1, 200)) for snr in snrs}
    points = snrs + draw(st.lists(st.sampled_from(snrs), max_size=3))
    rows = [_row(n_r, snr, budgets[snr], draw(_RATES)) for snr in points]
    if clash:
        snr = draw(st.sampled_from(snrs))
        rows.append(_row(n_r, snr, budgets[snr] + draw(st.integers(1, 50)), draw(_RATES)))
    if short:
        few = draw(st.lists(snr_grid, min_size=1, max_size=2, unique=True))
        nf = draw(st.integers(1, 200))
        points = few + draw(st.lists(st.sampled_from(few), max_size=2))
        rows += [_row(5 - n_r, snr, nf, draw(_RATES)) for snr in points]
    return draw(st.permutations(rows))


def _garbage_row():
    return st.lists(_GARBAGE, min_size=10, max_size=13).map(",".join)


def _results_file(rows) -> bytes:
    return "\n".join([CSV_HEADER, *rows]).encode()


class TestFuzz:
    @_SETTINGS
    @given(argv=_run_argv(), config=st.one_of(st.none(), _config_text()), to_file=st.booleans())
    def test_run_arguments(self, tmp_path_factory, argv, config, to_file):
        work = tmp_path_factory.mktemp("run")
        if config is not None:
            path = work / "cfg.json"
            path.write_bytes(config)
            argv = argv + ["--config", str(path)]
        if to_file:
            argv = argv + ["--out", str(work / "out.csv")]
        code, out, err = _call(argv, work)
        _check(code, err)
        if code == 0 and not to_file:
            assert out.startswith(CSV_HEADER + "\n")

    @_SETTINGS
    @given(config=_config_text())
    @example(config=b"\xff\xfe{")
    @example(config=b'{"nr": [2, 2]}')
    def test_config_files(self, tmp_path_factory, config):
        work = tmp_path_factory.mktemp("config")
        (work / "cfg.json").write_bytes(config)
        code, _, err = _call(["run", "--config", "cfg.json", "--trials", "1"], work)
        _check(code, err)

    @settings(_SETTINGS, max_examples=12)
    @given(
        trials=_mostly(st.sampled_from([1, 2, 1, 2, 0, -1])),
        seed=_mostly(st.integers(-2, 2**64)),
        extra=_mostly_nothing(),
    )
    def test_verify_arguments(self, tmp_path_factory, trials, seed, extra):
        work = tmp_path_factory.mktemp("verify")
        code, _, err = _call(["verify", "--trials", trials, "--seed", seed, *extra], work)
        # failing suites are reported on stdout, with exit 2 and nothing on stderr
        _check(code, err, quiet_failure=True)

    @_SETTINGS
    @given(
        # (file content, the exit code it must give, or None for any)
        content=st.one_of(
            st.tuples(st.binary(max_size=60), st.none()),
            st.tuples(
                st.lists(
                    _ODDS.flatmap(lambda bad: _garbage_row() if bad else _csv_row()), max_size=10
                ).map(_results_file),
                st.none(),
            ),
            st.tuples(_sweep_rows().map(_results_file), st.just(0)),
            st.tuples(_sweep_rows(short=True).map(_results_file), st.just(0)),
            st.tuples(_sweep_rows(clash=True).map(_results_file), st.just(1)),
        ),
        where=st.sampled_from(["file", "file", "missing", "directory"]),
    )
    def test_slopes_files(self, tmp_path_factory, content, where):
        """Any file exits 0, 1 or 2 with at most one stderr line. A clean sweep of one curve,
        alone or beside a curve of one or two SNRs, prints its one fit with nothing on
        stderr; two budgets at one SNR exit 1."""
        (content, expected), work = content, tmp_path_factory.mktemp("slopes")
        path = work / "rows.csv"
        if where == "file":
            path.write_bytes(content)
        elif where == "directory":
            path.mkdir()
        code, out, err = _call(["slopes", str(path)], work)
        _check(code, err)
        if where == "file" and expected is not None:
            assert code == expected, err
            assert len(out.splitlines()) == 1 - code
