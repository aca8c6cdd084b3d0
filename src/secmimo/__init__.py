"""secmimo: secrecy rates for artificial-noise MIMO transmission with
Grassmannian-quantized channel feedback under jamming.

The package splits into a dense complex linear-algebra kernel
(:mod:`~secmimo.linalg`), subspace quantization on the Grassmann manifold
(:mod:`~secmimo.grassmann`), transmitter/receiver construction and leakage
(:mod:`~secmimo.transceiver`), secrecy-rate formulas and slope estimation
(:mod:`~secmimo.rates`), and a deterministic Monte Carlo harness with a CLI
(:mod:`~secmimo.harness`, :mod:`~secmimo.cli`).
"""

import os

# The engine's matrices stay below every size at which OpenBLAS splits work: a pool only spins.
if not any(map(os.environ.get, ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import (
    CodebookTooLargeError,
    ConfigError,
    DegenerateChannelError,
    DegenerateGeometryError,
    InvalidInputError,
    NoNullspaceError,
    NotPositiveDefiniteError,
    PerturbationError,
    SecMimoError,
    ShapeError,
)
from .grassmann import (
    Codebook,
    GrassmannPoint,
    chordal_distance,
    codebook_generate,
    feedback_bits,
    perturb_basis,
    quant_error_bound,
    quantization_target,
    quantize,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    read_csv,
    run_experiment,
    scenario_config,
    write_csv,
)
from .linalg import (
    gaussian_mi,
    left_nullspace_basis,
    logdet_pd,
    qr_tall,
    random_gaussian_matrix,
    random_truncated_unitary,
)
from .rates import (
    SdofEstimate,
    SecrecyRate,
    beta_P,
    eve_rate_limit,
    fit_slope,
    logdet_perturbation_check,
    secrecy_rate_G,
    secrecy_rate_perfect_basic,
)
from .transceiver import (
    AntennaConfig,
    ChannelSet,
    PowerPolicy,
    Precoders,
    ReceiverFilters,
    leakage_bound,
    rx_postfilter,
    sample_channels,
    tx_precoders_perfect,
    tx_precoders_quantized,
)

__version__ = "0.1.0"
