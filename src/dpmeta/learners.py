"""Within-task learners: plain projected OGD and its noisy private variant.

Both are entry points to one projected-step loop that walks a sequence of
samples (losses.TaskSamples) over a ball domain and reports the average of
the iterates it evaluated gradients at. The average includes the start point
and excludes the final post-update point, so a single-sample run returns its
initialization unchanged.

The loop steps a whole batch of independent problems at once. Iterates have
shape (*problems, d): the leading axes of init broadcast against the batch
axes of the samples, so inits shaped (arms, 1, d) adapted on samples shaped
(m, tasks, d) run every arm on every task. A single task from a single init
is the batch of one; there is no separate scalar path, and each problem's
result is bit-identical whatever batch it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .geometry import ParamDomain, as_batch, row_dot
from .losses import TaskSamples
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
    post-update endpoint. Both have shape (*problems, d)."""

    averaged_iterate: np.ndarray
    final_iterate: np.ndarray


def _start(samples: TaskSamples, init, dom: ParamDomain):
    """The problem shape, and the first iterate of every problem as a fresh
    (*problems, d) array; a single problem gets one leading axis of length 1
    so that per-problem tests in the loop always act on arrays."""
    if samples.dim != dom.dim:
        raise ValueError(f"samples have dimension {samples.dim}, the domain {dom.dim}")
    init = as_batch(init, dom.dim)
    if not dom.contains(init):
        raise ValueError("init lies outside the domain")
    problems = np.broadcast_shapes(init.shape[:-1], samples.batch_shape)
    theta = np.empty((problems or (1,)) + (dom.dim,))
    theta[...] = init
    return problems, theta


def _projected_steps(seq: TaskSamples, theta, step_size: float, dom: ParamDomain,
                     clip_bound: float | None = None, noise=None):
    """Take one projected gradient step per sample of seq, in order, and
    return (average of the visited iterates, final iterate).

    Step j evaluates sample j's gradient at theta (clipped to clip_bound when
    given), adds noise[j] when given, steps by step_size, and projects onto
    the ball. Clipping and projection are decided per problem.
    """
    center, rad_sq, radius = dom.center, dom.radius**2, dom.radius
    clip_sq = None if clip_bound is None else clip_bound**2
    running_sum = np.zeros_like(theta)
    for j in range(seq.count):
        running_sum += theta
        g = seq.grad(theta, j)
        if clip_bound is not None:
            gsq = row_dot(g, g)
            if gsq.max() > clip_sq:
                over = gsq > clip_sq
                scale = clip_bound / np.sqrt(np.where(over, gsq, 1.0))
                g = np.where(over[..., None], g * scale[..., None], g)
        if noise is not None:
            g = g + noise[j]
        theta = theta - step_size * g
        offset = theta - center
        nsq = row_dot(offset, offset)
        if nsq.max() > rad_sq:
            outside = nsq > rad_sq
            scale = radius / np.sqrt(np.where(outside, nsq, 1.0))
            theta = np.where(outside[..., None], center + offset * scale[..., None],
                             theta)
    return running_sum / seq.count, theta


def _output(problems, averaged, final) -> LearnerOutput:
    shape = problems + averaged.shape[-1:]
    return LearnerOutput(averaged_iterate=averaged.reshape(shape),
                         final_iterate=final.reshape(shape))


def ogd_run(samples: TaskSamples, init, cfg: OgdConfig,
            dom: ParamDomain) -> LearnerOutput:
    """Projected online gradient descent over the samples in their given order.

    Visits theta_1 = init, takes one gradient step per sample, projects after
    every step, and averages the visited iterates theta_1 .. theta_m.
    """
    if cfg.num_steps is not None and cfg.num_steps != samples.count:
        raise ValueError(
            f"cfg.num_steps={cfg.num_steps} but {samples.count} samples were supplied")
    problems, theta = _start(samples, init, dom)
    return _output(problems, *_projected_steps(samples, theta, cfg.step_size, dom))


def noisy_sgd_run(samples: TaskSamples, init, plan: NoisySgdPlan, dom: ParamDomain,
                  rng, index_sequence=None) -> LearnerOutput:
    """Noisy projected SGD: the private within-task learner.

    Takes plan.steps_n steps. Each step picks a sample uniformly at random
    with replacement, clips its gradient to plan.clip_bound, adds isotropic
    Gaussian noise of per-coordinate variance plan.noise_variance_sigma_sq to
    the clipped gradient, steps by plan.step_size, and projects.

    rng is one Generator per problem, in C order over the problem axes (a
    single Generator for a single problem). Each problem draws its full index
    sequence from its generator up front, then its (steps_n, d) noise block,
    so runs that differ only in noise variance sample identical indices. An
    explicit index_sequence of shape (steps_n, *problems) pins the sampling
    entirely.
    """
    problems, theta = _start(samples, init, dom)
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if len(rngs) != math.prod(problems):
        raise ValueError(
            f"need one generator per problem: {math.prod(problems)}, got {len(rngs)}")
    n, m = plan.steps_n, samples.count
    if index_sequence is not None:
        indices = np.asarray(index_sequence, dtype=np.int64)
        if indices.shape != (n,) + problems:
            raise ValueError(
                f"index_sequence must have shape {(n,) + problems}, got {indices.shape}")
        if indices.min() < 0 or indices.max() >= m:
            raise ValueError("index_sequence entries must index into the samples")
    else:
        indices = np.empty((n, len(rngs)), dtype=np.int64)
    noise = np.empty((n, len(rngs), dom.dim))
    for p, r in enumerate(rngs):
        if index_sequence is None:
            indices[:, p] = r.integers(0, m, size=n)
        # zero variance returns zeros and consumes no randomness
        noise[:, p] = sample_step_noise(r, dom.dim, plan.noise_variance_sigma_sq, count=n)
    indices = indices.reshape((n,) + theta.shape[:-1])
    noise = noise.reshape((n,) + theta.shape)
    # sample indices[j] of each problem's own task along the batch axes
    seq = samples.take((indices,) + np.indices(samples.batch_shape, sparse=True))
    return _output(problems, *_projected_steps(seq, theta, plan.step_size, dom,
                                               clip_bound=plan.clip_bound, noise=noise))


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
