"""Monte Carlo experiment runner with deterministic seeding and CSV output.

Each trial draws one channel realization plus the receiver design matrix,
then sweeps the operating points (SNR grid, or SNR x bit-budget grid) with
those matrices held fixed. Every (curve, trial) pair gets its own child RNG
stream derived injectively from the experiment seed. A curve's trials are
evaluated about BLOCK_POINTS operating points at a time as stacked arrays;
each trial's numbers are computed element by element, so results are
bit-identical for any block size. What differs between scenarios is one row
of SCENARIO_TABLE.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import numbers
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError, SecMimoError
from .grassmann import ZERO_DISTANCE, feedback_bits, perturb_gram, quantization_target
from .rates import RateGrams, TrialCouplings, fit_slope, grams_rate, step_grams, trial_couplings
from .transceiver import (
    AntennaConfig,
    ChannelSet,
    PowerPolicy,
    ReceiverFilters,
    rx_postfilter,
    sample_directions,
    sample_trials,
)

# Operating points (trials x points per trial) evaluated together as one
# stack; a block holds max(1, BLOCK_POINTS // points per trial) trials.
# Larger blocks spread the fixed cost of each numpy call over more trials
# but hold more memory at once, and the memory grows with trials x points.
BLOCK_POINTS = 240

# Most SNR points a curve may hold, checked before its list is built.
MAX_SNR_POINTS = 100_000

# The ExperimentConfig fields a run's bits may come from, one per run: the
# scaled law's margin, or fixed budgets swept at every SNR (one or more).
BIT_SOURCES = ("epsilon", "nf_grid")


class Scenario(typing.NamedTuple):
    """What one scenario fixes: default curves and settings, and its bit sources."""

    n_rs: tuple  # default receiver sizes, each curve (2 n_r, n_r, 1, n_r)
    defaults: dict  # ExperimentConfig fields: a bit source, and maybe an SNR grid
    sources: tuple  # the BIT_SOURCES it accepts


# Every scenario; the first is the default.
SCENARIO_TABLE = {
    # secrecy rate vs SNR for several receiver sizes, power-scaled feedback
    # bits; the high-SNR slopes estimate the secure degrees of freedom
    "slope": Scenario((2, 3, 4), {"epsilon": 0.0}, ("epsilon",)),
    # fixed feedback bits; the quantized-CSI curve flattens while the
    # perfect-CSI curve keeps its slope
    "saturation": Scenario((3,), {"nf_grid": (30,)}, ("nf_grid",)),
    # rate loss due to quantization vs the bit budget at a few fixed SNR points
    "gap_vs_bits": Scenario(
        (3,),
        dict(snr_min=10.0, snr_max=30.0, snr_step=10.0, nf_grid=tuple(range(10, 101, 10))),
        ("nf_grid",),
    ),
    # the caller's choice of scaled or fixed bits
    "custom": Scenario((2,), {"epsilon": 0.0}, ("epsilon", "nf_grid")),
}
SCENARIOS = tuple(SCENARIO_TABLE)


def _scenario(name: str) -> Scenario:
    if not isinstance(name, str) or name not in SCENARIO_TABLE:
        raise ConfigError(f"unknown scenario {name!r}, expected one of {SCENARIOS}")
    return SCENARIO_TABLE[name]


def _is_budget(bits) -> bool:
    """Whether `bits` is a bit budget: an integer >= 1, numpy's included, not a bool."""
    return isinstance(bits, (int, np.integer)) and not isinstance(bits, bool) and bits >= 1


def _check_run(trials: int, seed: int) -> None:
    """Trials must lie in [1, sys.maxsize], so that a range indexes them; then seed >= 0."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials > sys.maxsize:
        raise ConfigError(f"trials must be <= {sys.maxsize}, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass
class ExperimentConfig:
    """Full description of one Monte Carlo experiment; its bits come from exactly
    one of BIT_SOURCES, one that its scenario accepts."""

    scenario: str = SCENARIOS[0]
    antenna_configs: tuple = ()
    snr_min: float = 0.0
    snr_max: float = 60.0
    snr_step: float = 5.0
    trials: int = 500
    seed: int = 0
    rho: float = 0.5
    epsilon: float | None = None  # margin of the power-scaled bit law
    nf_grid: tuple | None = None  # fixed bit budgets swept at every SNR

    def validate(self) -> list:
        """Accept the configuration, or raise one ConfigError; return each curve's
        (points, policy, targets): its (snr_db, nf_bits, power) operating points, their
        PowerPolicy and quantizer target distances."""
        for name, (kind, *none) in _FIELD_KINDS.items():
            value, (admits, noun) = getattr(self, name), _KINDS[kind]
            if isinstance(value, bool) or not isinstance(value, (admits, *none)):
                raise ConfigError(f"{name!r} must be {noun}, got {value!r}")
        row = _scenario(self.scenario)
        given = [key for key in BIT_SOURCES if getattr(self, key) is not None]
        if len(given) != 1 or given[0] not in row.sources:
            raise ConfigError(
                f"scenario {self.scenario!r} takes its bits from {' or '.join(row.sources)}, "
                f"got {' and '.join(given) or 'none'}"
                + (", which exclude each other" if len(given) > 1 else "")
            )
        grid = self.nf_grid
        if grid is not None and not (grid and all(map(_is_budget, grid))):
            raise ConfigError(f"nf_grid needs integer bit budgets >= 1, got {grid!r}")
        _check_run(self.trials, self.seed)
        if not -math.inf < self.snr_min < self.snr_max < math.inf:
            raise ConfigError(
                f"need finite snr_min < snr_max, got [{self.snr_min}, {self.snr_max}]"
            )
        if not 0 < self.snr_step < math.inf:
            raise ConfigError(f"snr_step must be positive and finite, got {self.snr_step}")
        if not self.antenna_configs:
            raise ConfigError("at least one antenna configuration is required")
        for cfg in self.antenna_configs:
            if not isinstance(cfg, AntennaConfig):
                raise ConfigError(f"'antenna_configs' must hold AntennaConfigs, got {cfg!r}")
        if len(set(self.antenna_configs)) < len(self.antenna_configs):
            raise ConfigError(
                "antenna configurations must be distinct, got "
                + ", ".join(f"({c.n_t}, {c.n_r}, {c.n_j}, {c.n_e})" for c in self.antenna_configs)
            )
        # PowerPolicy and feedback_bits check rho and epsilon, and an SNR point count, bit
        # budget or power past the float range overflows
        try:
            curves = []
            for acfg in self.antenna_configs:
                points = _curve_points(self, acfg)
                _, bits, powers = zip(*points)
                policy = PowerPolicy(P=np.array(powers), rho=self.rho, config=acfg)
                curves.append((points, policy, quantization_target(bits, acfg)))
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:
            raise ConfigError(f"SNR grid, powers and bit budgets must be finite: {exc}") from None
        return curves


# Each field's type hint as (X,) or (X, NoneType).
_FIELD_KINDS = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}
# The values each kind admits, and the kind's name; a bool is never a number.
_KINDS = {
    str: (str, "a string"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    tuple: (tuple, "a tuple"),
}


def scenario_config(scenario: str, n_r_list=None, **overrides) -> ExperimentConfig:
    """Experiment configuration with the standard defaults for a scenario.

    Antenna counts follow the n_t = 2 n_r, n_j = 1, n_e = n_r pattern;
    rho = 1/2 and unit noise everywhere. An override of any of BIT_SOURCES
    replaces the scenario's default bit source.
    """
    row = _scenario(scenario)
    settings = row.defaults
    if overrides.keys() & set(BIT_SOURCES):
        settings = {k: v for k, v in settings.items() if k not in BIT_SOURCES}
    # an empty list is kept, so that validate rejects it
    n_rs = row.n_rs if n_r_list is None else tuple(n_r_list)
    try:
        configs = tuple(AntennaConfig(2 * n, n, 1, n) for n in n_rs)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(scenario, configs, **{**settings, **overrides})


@dataclass(frozen=True)
class ResultRow:
    """One aggregated operating point of one curve."""

    scenario: str
    n_t: int
    n_r: int
    n_j: int
    n_e: int
    snr_db: float
    nf_bits: int
    r_perfect_mean: float
    r_quantized_mean: float
    gap_mean: float  # mean of raw perfect minus raw quantized
    leakage_mean: float
    trials: int


# CSV column name -> declared type (str, int or float), in column order.
_COLUMNS = typing.get_type_hints(ResultRow)
_FLOAT_COLUMNS = [name for name, kind in _COLUMNS.items() if kind is float]
CSV_HEADER = ",".join(_COLUMNS)


def _curve_points(cfg: ExperimentConfig, acfg: AntennaConfig) -> list[tuple[float, int, float]]:
    """Ordered (snr_db, nf_bits, power) operating points for one curve, power 10^(snr_db / 10)."""
    n = int(math.floor((cfg.snr_max - cfg.snr_min) / cfg.snr_step + 1e-9)) + 1
    if n > MAX_SNR_POINTS:
        raise ConfigError(f"an SNR grid holds at most {MAX_SNR_POINTS} points, got {n:.3g}")
    snrs = [cfg.snr_min + i * cfg.snr_step for i in range(n)]
    powers = [(snr, 10.0 ** (snr / 10.0)) for snr in snrs]
    if powers[0][1] == 0.0:  # the lowest power, at snr_min, underflowing to 0
        raise ConfigError(f"SNR grid powers must be positive and finite, got 0.0 at {snrs[0]} dB")
    if cfg.nf_grid is not None:
        return [(snr, int(nf), p) for snr, p in powers for nf in cfg.nf_grid]
    return [(snr, feedback_bits(p, cfg.epsilon, acfg), p) for snr, p in powers]


def _trial_rng(seed: int, curve: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(curve, trial)))


class TrialStage(typing.NamedTuple):
    """The per-trial stage of a chunk of trials, one trial per leading index."""

    channels: ChannelSet  # the first draw's channels
    filters: ReceiverFilters  # receive filters, from the channels and the first draw's B
    couplings: TrialCouplings  # what every Gram set of the trial shares
    perfect: RateGrams  # the perfect-CSI Gram set, that of the step to distance 0


def _trial_stage(acfg: AntennaConfig, rngs: list[np.random.Generator]) -> TrialStage:
    """`run`'s and `verify`'s per-trial stage: each generator's first draw, and what it fixes."""
    channels, b = sample_trials(acfg, rngs)
    filters = rx_postfilter(channels.Hd, channels.Hj, B=b)
    couplings = trial_couplings(channels, filters)
    perfect = step_grams(couplings, perturb_gram(filters.F, np.zeros_like(filters.F), 0.0))
    return TrialStage(channels, filters, couplings, perfect)


def _run_trials(
    policy: PowerPolicy, targets: np.ndarray, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Evaluate all operating points for a chunk of channel draws, one per rng.

    `policy` and `targets` hold one power and one quantizer distance per
    point, for the antennas of ``policy.config``. The per-trial stage is
    :func:`_trial_stage`, which `verify` shares. The per-point stage then
    takes each quantizer step as k x k Grams, in blocks of about
    BLOCK_POINTS operating points, and rates each block's perfect and
    quantized Gram sets at every power with :func:`grams_rate`. A point
    whose target is below ZERO_DISTANCE steps to distance 0, so its two
    rates agree bit for bit.
    Returns an array of shape (len(rngs), n_points, 5): the clipped perfect,
    clipped quantized, raw perfect and raw quantized rates, and the leakage.
    """
    _, filters, couplings, perfect = _trial_stage(policy.config, rngs)
    out = np.empty((len(rngs), targets.size, 5))
    block = max(1, BLOCK_POINTS // targets.size)
    for start in range(0, len(rngs), block):
        rows = slice(start, start + block)
        z = sample_directions(policy.config, rngs[rows], targets >= ZERO_DISTANCE)
        step = perturb_gram(filters.F[rows], z, targets)
        grams = step_grams(couplings._make(m[rows] for m in couplings), step)
        r_p = grams_rate(perfect._make(m[rows] for m in perfect), policy)
        r_q = grams_rate(grams, policy)
        out[rows] = np.stack([r_p.clipped, r_q.clipped, r_p.raw, r_q.raw, r_q.leakage], -1)
    return out


def _map_trials(measure, seed: int, curve: int, trials: range) -> np.ndarray:
    """`measure` of each trial in `trials`, concatenated, at most BLOCK_POINTS trials a call.

    `measure` takes a chunk's generators, trial t's from ``_trial_rng(seed,
    curve, t)``, and returns one result per trial along axis 0. A numerical
    failure is raised again with the curve, trial and seed of the first
    trial that fails on its own, so the draw can be replayed.
    """
    chunks = []
    for start in range(0, len(trials), BLOCK_POINTS):
        chunk = trials[start : start + BLOCK_POINTS]
        try:
            chunks.append(measure([_trial_rng(seed, curve, t) for t in chunk]))
        except (SecMimoError, np.linalg.LinAlgError):
            for t in chunk:
                try:
                    measure([_trial_rng(seed, curve, t)])
                except (SecMimoError, np.linalg.LinAlgError) as exc:
                    exc.args = (f"curve {curve}, trial {t}, seed {seed}: {exc}",)
                    raise
            raise
    return np.concatenate(chunks)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the configured Monte Carlo experiment; return one row per operating point.

    Per-trial RNG streams derive from (seed, curve, trial), so reruns with
    the same configuration produce identical results. Aggregation averages
    a dense (trials x points) array in fixed order.
    """
    rows: list[ResultRow] = []
    for curve_idx, (points, policy, targets) in enumerate(cfg.validate()):
        measure = functools.partial(_run_trials, policy, targets)
        means = _map_trials(measure, cfg.seed, curve_idx, range(cfg.trials)).mean(axis=0)
        acfg = policy.config
        for i, (snr_db, nf, _) in enumerate(points):
            rows.append(
                ResultRow(
                    scenario=cfg.scenario,
                    n_t=acfg.n_t,
                    n_r=acfg.n_r,
                    n_j=acfg.n_j,
                    n_e=acfg.n_e,
                    snr_db=snr_db,
                    nf_bits=nf,
                    r_perfect_mean=float(means[i, 0]),
                    r_quantized_mean=float(means[i, 1]),
                    gap_mean=float(means[i, 2] - means[i, 3]),
                    leakage_mean=float(means[i, 4]),
                    trials=cfg.trials,
                )
            )
    return rows


def render_csv(rows: list[ResultRow]) -> str:
    """CSV text for the aggregated rows, sorted by (n_r, snr_db).

    Columns declared float are written at 9 significant digits, a negative
    zero as 0, the others with str, whatever the runtime type of the value.
    """
    lines = [CSV_HEADER]
    for r in sorted(rows, key=lambda r: (r.n_r, r.snr_db)):
        cells = ((getattr(r, name), kind) for name, kind in _COLUMNS.items())
        lines.append(
            ",".join(format(float(v) + 0, ".9g") if kind is float else str(v) for v, kind in cells)
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], path: str) -> None:
    """Write aggregated rows, sorted by (n_r, snr_db), floats at 9 digits.

    The text goes to a temporary file beside `path` that then replaces it,
    so a failed write keeps any earlier file whole and leaves no partial one.
    """
    text = render_csv(rows)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc


def read_csv(path: str) -> list[ResultRow]:
    """Read rows written by :func:`write_csv`; a malformed file is a ConfigError."""
    rows: list[ResultRow] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                if reader.fieldnames != CSV_HEADER.split(","):
                    raise ConfigError(f"{path} does not look like a secmimo results file")
                for rec in reader:
                    if None in rec:  # DictReader files the cells past the header under None
                        raise ValueError(f"row has more than the header's {len(_COLUMNS)} fields")
                    row = ResultRow(**{k: kind(rec[k]) for k, kind in _COLUMNS.items()})
                    if not all(math.isfinite(getattr(row, k)) for k in _FLOAT_COLUMNS):
                        raise ValueError("a numeric field is not finite")
                    if row.scenario not in SCENARIO_TABLE:
                        raise ValueError(f"unknown scenario {row.scenario!r}")
                    rows.append(row)
            # a short or long row, a bad numeric field, or undecodable bytes
            except (csv.Error, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read results from {path}: {exc}") from exc
    return rows


def fitted_slopes_from_rows(rows) -> dict:
    """Fit per-curve SDoF slopes from result rows (duplicate points averaged).

    This alone decides which curves have a slope: those with three SNRs or
    more and one bit budget at each. Rows sharing a curve, an SNR and a
    budget are summed in row order and divided by their count. Each curve is
    fitted over :func:`fit_slope`'s default window.
    """
    curves: dict = {}
    for r in rows:
        by_point = curves.setdefault((r.n_t, r.n_r, r.n_j, r.n_e), {})
        sums = by_point.setdefault((r.snr_db, r.nf_bits), [0.0, 0.0, 0])
        sums[0] += r.r_perfect_mean
        sums[1] += r.r_quantized_mean
        sums[2] += 1
    out = {}
    for key, by_point in sorted(curves.items()):
        snrs = [snr for snr, _ in sorted(by_point)]
        sums = [by_point[point] for point in sorted(by_point)]
        if len(set(snrs)) == len(snrs) >= 3:
            out[key] = {
                "perfect": fit_slope(snrs, [p / n for p, _, n in sums]),
                "quantized": fit_slope(snrs, [q / n for _, q, n in sums]),
            }
    return out
