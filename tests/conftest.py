"""Shared fixtures."""

import numpy as np
import pytest

from secmimo import harness


class _RepeatedRow:
    """Generator stand-in whose draw gives the direct channel two equal rows."""

    def __init__(self, rng, shape):
        self._rng, self._shape = rng, shape

    def standard_normal(self, size):
        draw = self._rng.standard_normal(size)
        hd = draw[: int(np.prod(self._shape))].reshape(self._shape)
        hd[:, 1] = hd[:, 0]
        return draw


@pytest.fixture
def degenerate_trials(monkeypatch):
    """Call with (n_r, n_t, trials): those trials of every curve draw a rank-deficient Hd."""

    def force(n_r, n_t, trials):
        draw = harness._trial_rng

        def trial_rng(seed, curve, trial):
            rng = draw(seed, curve, trial)
            return _RepeatedRow(rng, (2, n_r, n_t)) if trial in trials else rng

        monkeypatch.setattr(harness, "_trial_rng", trial_rng)

    return force
