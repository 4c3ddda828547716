"""Privacy accounting for the task-global Gaussian mechanism.

Calibration is exact and closed-form: the number of noisy steps a task may
take, and the per-coordinate noise variance those steps need, follow directly
from (epsilon, delta), the per-task sample count m, the dimension, and the
gradient clip bound. Natural logarithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta) target, with an optional group size for group privacy."""

    epsilon: float
    delta: float
    group_size: int = 1

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if int(self.group_size) != self.group_size or self.group_size < 1:
            raise ValueError(f"group_size must be an integer >= 1, got {self.group_size}")
        object.__setattr__(self, "group_size", int(self.group_size))


@dataclass(frozen=True)
class NoisySgdPlan:
    """Everything the private learner needs for one task.

    steps_n noisy steps of size step_size, per-coordinate Gaussian noise of
    variance noise_variance_sigma_sq added to each clipped gradient, gradients
    clipped to clip_bound. noise_variance_sigma_sq == 0 is the exact
    degeneration to plain projected SGD.
    """

    steps_n: int
    step_size: float
    noise_variance_sigma_sq: float
    clip_bound: float

    def __post_init__(self):
        if int(self.steps_n) != self.steps_n or self.steps_n < 1:
            raise ValueError(f"steps_n must be an integer >= 1, got {self.steps_n}")
        object.__setattr__(self, "steps_n", int(self.steps_n))
        if not math.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not math.isfinite(self.noise_variance_sigma_sq) or self.noise_variance_sigma_sq < 0:
            raise ValueError(
                f"noise_variance_sigma_sq must be finite and >= 0, got {self.noise_variance_sigma_sq}")
        if not math.isfinite(self.clip_bound) or self.clip_bound <= 0:
            raise ValueError(f"clip_bound must be finite and > 0, got {self.clip_bound}")


def step_budget(m: int, privacy: PrivacyParams, dim: int) -> int:
    """Steps the private learner may take on m samples at (epsilon, delta).

    n = max(1, floor(min(m/8, eps^2 m^2 / (32 d ln(1/delta))))). The first
    branch caps gradient reuse, the second is the Gaussian-mechanism budget.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m}")
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim}")
    sample_cap = m / 8.0
    privacy_cap = (privacy.epsilon**2 * m**2) / (32.0 * dim * math.log(1.0 / privacy.delta))
    return max(1, math.floor(min(sample_cap, privacy_cap)))


def noise_variance(steps_n: int, m: int, clip_bound: float,
                   privacy: PrivacyParams) -> float:
    """Per-coordinate Gaussian variance making steps_n clipped steps
    (epsilon, delta)-private at the task level.

    sigma^2 = 8 n G^2 ln(1/delta) / (m^2 eps^2). clip_bound == 0 is allowed
    and gives 0 (nothing to hide).
    """
    if int(steps_n) != steps_n or steps_n < 1:
        raise ValueError(f"steps_n must be an integer >= 1, got {steps_n}")
    if int(m) != m or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m}")
    if not math.isfinite(clip_bound) or clip_bound < 0:
        raise ValueError(f"clip_bound must be finite and >= 0, got {clip_bound}")
    return (8.0 * steps_n * clip_bound**2 * math.log(1.0 / privacy.delta)) / (
        m**2 * privacy.epsilon**2)


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


def make_plan(m: int, privacy: PrivacyParams, dim: int, clip_bound: float,
              step_scale: float) -> NoisySgdPlan:
    """Assemble the calibrated plan: n from the step budget, sigma^2 from the
    noise formula, step size step_scale / (G sqrt(n))."""
    if clip_bound <= 0:
        raise ValueError(f"clip_bound must be > 0, got {clip_bound}")
    if step_scale <= 0:
        raise ValueError(f"step_scale must be > 0, got {step_scale}")
    n = step_budget(m, privacy, dim)
    sigma_sq = noise_variance(n, m, clip_bound, privacy)
    return NoisySgdPlan(
        steps_n=n,
        step_size=step_scale / (clip_bound * math.sqrt(n)),
        noise_variance_sigma_sq=sigma_sq,
        clip_bound=clip_bound,
    )


def sample_step_noise(rng: np.random.Generator, dim: int, sigma_sq: float,
                      count: int) -> np.ndarray:
    """Isotropic Gaussian noise with per-coordinate variance sigma_sq.

    Returns shape (count, dim). sigma_sq == 0 returns exact zeros without
    consuming randomness, so zero-noise runs match plain SGD bit for bit
    regardless of generator state.
    """
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim}")
    if not math.isfinite(sigma_sq) or sigma_sq < 0:
        raise ValueError(f"sigma_sq must be finite and >= 0, got {sigma_sq}")
    shape = (int(count), dim)
    if sigma_sq == 0.0:
        return np.zeros(shape)
    return rng.normal(0.0, math.sqrt(sigma_sq), size=shape)
