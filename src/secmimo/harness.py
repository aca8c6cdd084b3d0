"""Monte Carlo experiment runner with deterministic seeding and CSV output.

Each trial draws one channel realization plus the receiver design matrix,
then sweeps the operating points (SNR grid, or SNR x bit-budget grid for the
gap-versus-bits scenario) with those matrices held fixed. Every (curve,
trial) pair gets its own child RNG stream derived injectively from the
experiment seed. A curve's trials are evaluated TRIAL_BLOCK at a time as
stacked arrays; each trial's numbers are computed element by element, so
results are bit-identical for any block size.

Scenarios
---------
slope        secrecy rate vs SNR for several receiver sizes, power-scaled
             feedback bits; the high-SNR slopes estimate the secure
             degrees of freedom.
saturation   fixed feedback bits; the quantized-CSI curve flattens while
             the perfect-CSI curve keeps its slope.
gap_vs_bits  rate loss due to quantization vs the bit budget at a few
             fixed SNR points.
custom       caller-specified antenna configs and schedule.
"""

from __future__ import annotations

import csv
import math
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InvalidInputError, SecMimoError
from .grassmann import (
    ZERO_DISTANCE,
    FeedbackSchedule,
    GrassmannPoint,
    feedback_bits,
    perturb_along,
    quantization_target,
)
from .rates import (
    fit_slope,
    secrecy_rate_perfect_G,
    secrecy_rate_quantized_G,
)
from .transceiver import (
    AntennaConfig,
    PowerPolicy,
    leakage_power,
    rx_postfilter,
    sample_trials,
    tx_precoders_perfect,
    tx_precoders_quantized,
)

SCENARIOS = ("slope", "saturation", "gap_vs_bits", "custom")

# Trials evaluated together as one stack. Larger blocks spread the fixed
# cost of each numpy call over more trials but hold more memory at once: on
# the benchmark's slope workload a block of 8 keeps peak RSS at the level of
# a trial-at-a-time loop, while a whole 60-trial curve raised it by 7 MB.
TRIAL_BLOCK = 8

CSV_HEADER = (
    "scenario,n_t,n_r,n_j,n_e,snr_db,nf_bits,"
    "r_perfect_mean,r_quantized_mean,gap_mean,leakage_mean,trials"
)

# Default bit grid of the gap_vs_bits scenario.
DEFAULT_NF_GRID = tuple(range(10, 101, 10))


@dataclass
class ExperimentConfig:
    """Full description of one Monte Carlo experiment."""

    scenario: str = "slope"
    antenna_configs: tuple = ()
    snr_min: float = 0.0
    snr_max: float = 60.0
    snr_step: float = 5.0
    trials: int = 500
    seed: int = 0
    schedule: FeedbackSchedule = field(default_factory=FeedbackSchedule.scaled)
    rho: float = 0.5
    out_path: str | None = None
    nf_grid: tuple | None = None  # gap_vs_bits only

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not -math.inf < self.snr_min < self.snr_max < math.inf:
            raise ConfigError(
                f"need finite snr_min < snr_max, got [{self.snr_min}, {self.snr_max}]"
            )
        if not 0 < self.snr_step < math.inf:
            raise ConfigError(f"snr_step must be positive and finite, got {self.snr_step}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (0, 1), got {self.rho}")
        if not self.antenna_configs:
            raise ConfigError("at least one antenna configuration is required")
        for cfg in self.antenna_configs:
            if cfg.n_t < 2 * cfg.n_r:
                raise ConfigError(
                    f"the perturbation quantizer needs n_t >= 2 n_r, got ({cfg.n_t}, {cfg.n_r})"
                )
        if self.scenario in ("slope", "saturation", "gap_vs_bits"):
            for cfg in self.antenna_configs:
                if cfg.n_t != 2 * cfg.n_r or cfg.n_j != 1 or cfg.n_e != cfg.n_r:
                    raise ConfigError(
                        f"scenario {self.scenario!r} requires n_t = 2 n_r, n_j = 1, "
                        f"n_e = n_r; got ({cfg.n_t}, {cfg.n_r}, {cfg.n_j}, {cfg.n_e})"
                    )
        if self.scenario == "slope" and self.schedule.mode != "scaled":
            raise ConfigError("slope scenario uses the power-scaled bit schedule")
        if self.scenario == "saturation" and self.schedule.mode != "fixed":
            raise ConfigError("saturation scenario uses a fixed bit budget")
        if self.scenario == "gap_vs_bits":
            grid = self.nf_grid if self.nf_grid is not None else DEFAULT_NF_GRID
            if not grid or any(int(b) < 1 for b in grid):
                raise ConfigError("gap_vs_bits needs a grid of positive bit budgets")


def scenario_config(scenario: str, n_r_list=None, **overrides) -> ExperimentConfig:
    """Experiment configuration with the standard defaults for a scenario.

    Antenna counts follow the n_t = 2 n_r, n_j = 1, n_e = n_r pattern;
    rho = 1/2 and unit noise everywhere.
    """
    if scenario == "slope":
        n_rs = tuple(n_r_list) if n_r_list else (2, 3, 4)
        cfg = ExperimentConfig(scenario="slope", schedule=FeedbackSchedule.scaled(0.0))
    elif scenario == "saturation":
        n_rs = tuple(n_r_list) if n_r_list else (3,)
        cfg = ExperimentConfig(scenario="saturation", schedule=FeedbackSchedule.fixed(30))
    elif scenario == "gap_vs_bits":
        n_rs = tuple(n_r_list) if n_r_list else (3,)
        cfg = ExperimentConfig(
            scenario="gap_vs_bits",
            snr_min=10.0,
            snr_max=30.0,
            snr_step=10.0,
            nf_grid=DEFAULT_NF_GRID,
            schedule=FeedbackSchedule.fixed(30),
        )
    elif scenario == "custom":
        n_rs = tuple(n_r_list) if n_r_list else (2,)
        cfg = ExperimentConfig(scenario="custom")
    else:
        raise ConfigError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    configs = tuple(AntennaConfig(2 * n, n, 1, n) for n in n_rs)
    cfg = replace(cfg, antenna_configs=configs, **overrides)
    return cfg


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


@dataclass
class ExperimentResult:
    """Aggregated rows plus fitted high-SNR slopes per antenna curve."""

    rows: list
    slopes: dict


def _snr_grid(cfg: ExperimentConfig) -> list[float]:
    n = int(math.floor((cfg.snr_max - cfg.snr_min) / cfg.snr_step + 1e-9)) + 1
    return [cfg.snr_min + i * cfg.snr_step for i in range(n)]


def _nf_for_power(power: float, schedule: FeedbackSchedule, n_t: int, n_r: int) -> int:
    # The scaled law yields no bits at P <= 1; the quantizer still needs at
    # least one, which at these powers is maximal quantization error anyway.
    if schedule.mode == "scaled" and power <= 1.0:
        return 1
    return feedback_bits(power, schedule, n_t, n_r)


def _curve_points(cfg: ExperimentConfig, acfg: AntennaConfig) -> list[tuple[float, int]]:
    """Ordered (snr_db, nf_bits) operating points for one curve."""
    snrs = _snr_grid(cfg)
    if cfg.scenario == "gap_vs_bits":
        grid = cfg.nf_grid if cfg.nf_grid is not None else DEFAULT_NF_GRID
        return [(snr, int(nf)) for snr in snrs for nf in grid]
    return [
        (snr, _nf_for_power(10.0 ** (snr / 10.0), cfg.schedule, acfg.n_t, acfg.n_r))
        for snr in snrs
    ]


def _trial_rng(seed: int, curve: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(curve, trial)))


def _run_block(
    acfg: AntennaConfig,
    points: list[tuple[float, int]],
    rho: float,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Evaluate all operating points for a block of channel draws, one per rng.

    Returns an array of shape (len(rngs), n_points, 5) holding clipped
    perfect rate, clipped quantized rate, raw perfect rate, raw quantized
    rate, leakage.
    """
    policy = PowerPolicy(
        P=np.array([PowerPolicy.from_snr_db(snr_db, rho=rho).P for snr_db, _ in points]),
        rho=rho,
    )
    targets = np.array([quantization_target(nf, acfg.n_t, acfg.n_r) for _, nf in points])
    channels, b, z = sample_trials(acfg, rngs, targets >= ZERO_DISTANCE)
    filters = rx_postfilter(channels.Hd, channels.Hj, B=b)
    prec_perfect = tx_precoders_perfect(channels.Hd)
    prec_q = tx_precoders_quantized(perturb_along(GrassmannPoint(filters.F), z, targets))
    r_p = secrecy_rate_perfect_G(channels, prec_perfect, filters, policy, acfg)
    r_q = secrecy_rate_quantized_G(channels, prec_q, filters, policy, acfg)
    leak = leakage_power(filters, channels.Hd, prec_q.W2, policy)
    return np.stack((r_p.clipped, r_q.clipped, r_p.raw, r_q.raw, leak), axis=-1)


def _curve_trials(cfg: ExperimentConfig, curve_idx: int, points) -> np.ndarray:
    """Per-trial outputs of one curve, shape (trials, n_points, 5), block by block.

    A numerical failure is raised again with the curve, trial and seed of
    the first trial that fails on its own, so the draw can be replayed.
    """
    acfg = cfg.antenna_configs[curve_idx]
    blocks = []
    for start in range(0, cfg.trials, TRIAL_BLOCK):
        trials = range(start, min(start + TRIAL_BLOCK, cfg.trials))
        rngs = [_trial_rng(cfg.seed, curve_idx, t) for t in trials]
        try:
            blocks.append(_run_block(acfg, points, cfg.rho, rngs))
        except (SecMimoError, np.linalg.LinAlgError):
            for t in trials:
                try:
                    _run_block(acfg, points, cfg.rho, [_trial_rng(cfg.seed, curve_idx, t)])
                except (SecMimoError, np.linalg.LinAlgError) as exc:
                    exc.args = (f"curve {curve_idx}, trial {t}, seed {cfg.seed}: {exc}",)
                    raise
            raise
    return np.concatenate(blocks)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured Monte Carlo experiment.

    Per-trial RNG streams derive from (seed, curve, trial), so reruns with
    the same configuration produce identical results. Aggregation averages
    a dense (trials x points) array in fixed order.
    """
    cfg.validate()
    rows: list[ResultRow] = []
    slopes: dict = {}
    for curve_idx, acfg in enumerate(cfg.antenna_configs):
        points = _curve_points(cfg, acfg)
        means = _curve_trials(cfg, curve_idx, points).mean(axis=0)
        key = (acfg.n_t, acfg.n_r, acfg.n_j, acfg.n_e)
        for i, (snr_db, nf) in enumerate(points):
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
        if cfg.scenario != "gap_vs_bits":
            snrs = np.array([p[0] for p in points])
            try:
                slopes[key] = {
                    "perfect": fit_slope(snrs, means[:, 0]).slope,
                    "quantized": fit_slope(snrs, means[:, 1]).slope,
                }
            except InvalidInputError:
                pass  # sweep too short for a slope fit
    return ExperimentResult(rows=rows, slopes=slopes)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def render_csv(result: ExperimentResult) -> str:
    """CSV text for the aggregated rows, sorted by (n_r, snr_db)."""
    ordered = sorted(result.rows, key=lambda r: (r.n_r, r.snr_db))
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append(
            ",".join(
                (
                    r.scenario,
                    str(r.n_t),
                    str(r.n_r),
                    str(r.n_j),
                    str(r.n_e),
                    _fmt(r.snr_db),
                    str(r.nf_bits),
                    _fmt(r.r_perfect_mean),
                    _fmt(r.r_quantized_mean),
                    _fmt(r.gap_mean),
                    _fmt(r.leakage_mean),
                    str(r.trials),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(result: ExperimentResult, path: str) -> None:
    """Write aggregated rows, sorted by (n_r, snr_db), floats at 9 digits."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(render_csv(result))
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc


def read_csv(path: str) -> list[ResultRow]:
    """Read rows written by :func:`write_csv`; a malformed file is a ConfigError."""
    columns = typing.get_type_hints(ResultRow)  # column name -> str, int or float
    rows: list[ResultRow] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                if reader.fieldnames != CSV_HEADER.split(","):
                    raise ConfigError(f"{path} does not look like a secmimo results file")
                for rec in reader:
                    rows.append(ResultRow(**{key: kind(rec[key]) for key, kind in columns.items()}))
            # a short row (None fields), a non-numeric field, or undecodable bytes
            except (csv.Error, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read results from {path}: {exc}") from exc
    return rows


def fitted_slopes_from_rows(rows, window=None) -> dict:
    """Fit per-curve SDoF slopes from result rows (duplicate SNRs averaged).

    With no explicit window, uses the top 20 dB of each curve, widening to
    the full sweep when that leaves fewer than three points.
    """
    curves: dict = {}
    for r in rows:
        curves.setdefault((r.n_t, r.n_r, r.n_j, r.n_e), []).append(r)
    out = {}
    for key, items in sorted(curves.items()):
        by_snr: dict = {}
        for r in items:
            by_snr.setdefault(r.snr_db, []).append(r)
        snrs = np.array(sorted(by_snr))
        fit_window = window
        if fit_window is None and np.sum(snrs >= snrs.max() - 20.0) < 3:
            fit_window = (float(snrs.min()), float(snrs.max()))
        perf = np.array([np.mean([r.r_perfect_mean for r in by_snr[s]]) for s in snrs])
        quant = np.array([np.mean([r.r_quantized_mean for r in by_snr[s]]) for s in snrs])
        out[key] = {
            "perfect": fit_slope(snrs, perf, fit_window).slope,
            "quantized": fit_slope(snrs, quant, fit_window).slope,
        }
    return out
