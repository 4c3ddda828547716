"""Within-task learners: plain projected OGD and its noisy private variant.

Both walk a sequence of convex losses over a ball domain and report the
average of the iterates they actually evaluated gradients at. The average
includes the start point and excludes the final post-update point, so a
single-loss run returns its initialization unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .geometry import ParamDomain, as_vector
from .privacy import NoisySgdPlan, PrivacyParams, sample_step_noise

STEP_SCALE_VARIANTS = ("sqrt_m", "g_sqrt_m")


@dataclass(frozen=True)
class OgdConfig:
    """Step size and expected pass length for plain projected OGD."""

    step_size: float
    num_steps: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.num_steps is not None:
            if int(self.num_steps) != self.num_steps or self.num_steps < 1:
                raise ValueError(f"num_steps must be an integer >= 1, got {self.num_steps}")
            object.__setattr__(self, "num_steps", int(self.num_steps))


@dataclass(frozen=True)
class LearnerOutput:
    """averaged_iterate is the mean of the visited points; final_iterate is the
    post-update endpoint."""

    averaged_iterate: np.ndarray
    final_iterate: np.ndarray


def ogd_run(losses, init, cfg: OgdConfig, dom: ParamDomain) -> LearnerOutput:
    """Projected online gradient descent over the losses in their given order.

    Visits theta_1 = init, takes one gradient step per loss, projects after
    every step, and averages the visited iterates theta_1 .. theta_m.
    """
    losses = list(losses)
    if not losses:
        raise ValueError("ogd_run needs at least one loss")
    if cfg.num_steps is not None and cfg.num_steps != len(losses):
        raise ValueError(
            f"cfg.num_steps={cfg.num_steps} but {len(losses)} losses were supplied")
    theta = as_vector(init, dom.dim)
    if not dom.contains(theta):
        raise ValueError("init lies outside the domain")

    # inner loop avoids the checked geometry helpers; projection is inlined
    center, rad_sq, radius = dom.center, dom.radius**2, dom.radius
    step = cfg.step_size
    running_sum = np.zeros_like(theta)
    for loss in losses:
        running_sum += theta
        theta = theta - step * loss.grad(theta)
        offset = theta - center
        nsq = float(np.dot(offset, offset))
        if nsq > rad_sq:
            theta = center + offset * (radius / math.sqrt(nsq))
    return LearnerOutput(averaged_iterate=running_sum / len(losses),
                         final_iterate=theta)


def noisy_sgd_run(losses, init, plan: NoisySgdPlan, dom: ParamDomain,
                  rng: np.random.Generator, index_sequence=None) -> LearnerOutput:
    """Noisy projected SGD: the private within-task learner.

    Takes plan.steps_n steps. Each step picks a loss uniformly at random with
    replacement, clips its gradient to plan.clip_bound, adds isotropic
    Gaussian noise of per-coordinate variance plan.noise_variance_sigma_sq to
    the clipped gradient, steps by plan.step_size, and projects. The full
    index sequence is drawn from rng up front, before any noise, so runs that
    differ only in noise variance sample identical loss indices; an explicit
    index_sequence pins the sampling entirely.
    """
    losses = list(losses)
    if not losses:
        raise ValueError("noisy_sgd_run needs at least one loss")
    theta = as_vector(init, dom.dim)
    if not dom.contains(theta):
        raise ValueError("init lies outside the domain")
    n = plan.steps_n
    if index_sequence is None:
        indices = rng.integers(0, len(losses), size=n)
    else:
        indices = np.asarray(index_sequence, dtype=np.int64)
        if indices.shape != (n,):
            raise ValueError(
                f"index_sequence must have shape ({n},), got {indices.shape}")
        if indices.min() < 0 or indices.max() >= len(losses):
            raise ValueError("index_sequence entries must index into losses")
    sigma_sq = plan.noise_variance_sigma_sq
    # one block draw after the indices; zero variance consumes no randomness
    noise = sample_step_noise(rng, dom.dim, sigma_sq, count=n)

    center, rad_sq, radius = dom.center, dom.radius**2, dom.radius
    step, clip = plan.step_size, plan.clip_bound
    clip_sq = clip**2
    running_sum = np.zeros_like(theta)
    for j in range(n):
        running_sum += theta
        g = losses[int(indices[j])].grad(theta)
        gsq = float(np.dot(g, g))
        if gsq > clip_sq:
            g = g * (clip / math.sqrt(gsq))
        theta = theta - step * (g + noise[j])
        offset = theta - center
        nsq = float(np.dot(offset, offset))
        if nsq > rad_sq:
            theta = center + offset * (radius / math.sqrt(nsq))
    return LearnerOutput(averaged_iterate=running_sum / n, final_iterate=theta)


def private_step_scale(lipschitz_g: float, growth_alpha: float, dim: int, m: int,
                       privacy: PrivacyParams, variant: str = "sqrt_m") -> float:
    """Step-size scale for the private learner; the plan's step size is this
    divided by G sqrt(n).

    scale = (120 G / alpha) * max(sqrt(d ln(1/delta)) / (eps m), B) where the
    second branch B is 1/sqrt(m) under the default "sqrt_m" variant and
    1/(G sqrt(m)) under "g_sqrt_m". The scale balances distance-to-optimum
    against noise, so it is deliberately independent of any one task.
    """
    if lipschitz_g <= 0 or growth_alpha <= 0:
        raise ValueError("lipschitz_g and growth_alpha must be > 0")
    if int(m) != m or m < 1 or int(dim) != dim or dim < 1:
        raise ValueError(f"m and dim must be integers >= 1, got m={m} dim={dim}")
    if variant not in STEP_SCALE_VARIANTS:
        raise ValueError(f"variant must be one of {STEP_SCALE_VARIANTS}, got {variant!r}")
    private_branch = math.sqrt(dim * math.log(1.0 / privacy.delta)) / (privacy.epsilon * m)
    if variant == "sqrt_m":
        stat_branch = 1.0 / math.sqrt(m)
    else:
        stat_branch = 1.0 / (lipschitz_g * math.sqrt(m))
    return (120.0 * lipschitz_g / growth_alpha) * max(private_branch, stat_branch)


def adaptation_step_size(similarity_v: float, growth_alpha: float,
                         lipschitz_g: float, m: int) -> float:
    """OGD step size for adapting a meta-initialization to a fresh task:
    (V + 1/(alpha sqrt(m))) / (G sqrt(m)).

    Grows with the task dispersion V, so dissimilar environments take larger
    steps and similar ones lean on the initialization.
    """
    if similarity_v < 0:
        raise ValueError(f"similarity_v must be >= 0, got {similarity_v}")
    if growth_alpha <= 0 or lipschitz_g <= 0:
        raise ValueError("growth_alpha and lipschitz_g must be > 0")
    if int(m) != m or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m}")
    root_m = math.sqrt(m)
    return (similarity_v + 1.0 / (growth_alpha * root_m)) / (lipschitz_g * root_m)
