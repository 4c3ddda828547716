"""The task-global Gaussian mechanism's noise.

Calibration is exact and closed-form, and lives in dpmeta.calibration: the
number of noisy steps a task may take and the per-coordinate noise variance
those steps need follow directly from (epsilon, delta), the per-task sample
count m, the dimension, and the gradient clip bound. This module draws the
noise and converts a guarantee to groups (group_dp, which no run calls, so
it stays off the numpy-free `dpmeta calibrate` path); it also offers the
privacy names of calibration to the run path.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .calibration import (NoisySgdPlan, PrivacyParams, _count, _finite,  # noqa: F401
                          make_plan, noise_variance, step_budget)


def sample_step_noise(rng: np.random.Generator, dim: int, sigma_sq: float,
                      count: int) -> np.ndarray:
    """Isotropic Gaussian noise with per-coordinate variance sigma_sq.

    Returns shape (count, dim). sigma_sq == 0 returns exact zeros without
    consuming randomness, so zero-noise runs match plain SGD bit for bit
    regardless of generator state.
    """
    shape = (_count("count", count, least=0), _count("dim", dim))
    _finite("sigma_sq", sigma_sq, strict=False)
    if sigma_sq == 0.0:
        return np.zeros(shape)
    return rng.normal(0.0, math.sqrt(sigma_sq), size=shape)


def group_dp(privacy: PrivacyParams) -> tuple[float, float]:
    """Convert a per-record (epsilon, delta) guarantee to groups of size k.

    Returns (k * eps, k * exp((k-1) * eps) * delta). Warns if the converted
    delta reaches 1, at which point the guarantee is vacuous.
    """
    k = privacy.group_size
    eps_g = k * privacy.epsilon
    try:
        delta_g = k * math.exp((k - 1) * privacy.epsilon) * privacy.delta
    except OverflowError:
        delta_g = math.inf
    if delta_g >= 1.0:
        warnings.warn(
            f"group-converted delta is {delta_g:.3g} >= 1; the guarantee is vacuous",
            RuntimeWarning, stacklevel=2)
    return eps_g, delta_g
