"""Within-task learners: plain projected OGD and its noisy private variant.

All are entry points to one projected-step loop that walks a sequence of
samples (losses.TaskSamples) over a ball domain and reports the average of
the iterates it evaluated gradients at. The average includes the start point
and excludes the final post-update point, so a single-sample run returns its
initialization unchanged.

The loop steps a whole batch of independent problems at once. Iterates have
shape (*problems, d): the leading axes of init broadcast against the batch
axes of the samples, so inits shaped (arms, 1, d) adapted on samples shaped
(m, tasks, d) run every arm on every task. A single task from a single init
is the batch of one, with plain (d,) iterates; there is no separate scalar
path. The loop runs on a StepWorkspace (iterate, running sum, gradient and
geometry's RowScratch) and clips and projects in place with
geometry.clip_norm_in_place and geometry.project_in_place, which act row by
row, so each problem's result is bit-identical whatever batch it runs in and
no step allocates an array of the batch's shape. Noisy SGD steps only
through noisy_sgd_steps, which takes visits and noise drawn ahead and a
workspace to step in, so meta-training checks, draws and allocates once per
pass and steps every training arm in one call per task. noisy_sgd_run is
its one-problem reference: it checks its inputs and draws one task's
indices, then its noise, from one generator.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .geometry import ParamDomain, RowScratch, clip_norm_in_place, project_in_place
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


class StepWorkspace:
    """The buffers of the projected-step loop on iterates shaped
    (*problems, d): the iterate, the running sum of visited iterates, the
    gradient, and geometry's per-row scratch for clipping and projection. A
    caller may allocate one and pass it to many noisy_sgd_steps calls of one
    shape; each call overwrites all of it."""

    def __init__(self, shape):
        self.theta = np.empty(shape)
        self.running_sum = np.empty(shape)
        self.grad = np.empty(shape)
        self.scratch = RowScratch(shape)


def _start(samples: TaskSamples, init, dom: ParamDomain) -> StepWorkspace:
    """A fresh workspace whose iterate holds init, after checking the
    samples' dimension and that init lies in the domain: the leading axes of
    init broadcast against the samples' batch axes."""
    if samples.dim != dom.dim:
        raise ValueError(f"samples have dimension {samples.dim}, the domain {dom.dim}")
    if not dom.contains(init):
        raise ValueError("init lies outside the domain")
    problems = np.broadcast_shapes(np.shape(init)[:-1], samples.batch_shape)
    work = StepWorkspace(problems + (samples.dim,))
    work.theta[...] = init
    return work


def _projected_steps(seq: TaskSamples, work: StepWorkspace, step_size: float,
                     dom: ParamDomain, clip_bound: float | None = None,
                     noise=None) -> LearnerOutput:
    """Take one projected gradient step per sample of seq, in order, from
    the iterate in work, and return the average of the visited iterates and
    the final iterate.

    Step j evaluates sample j's gradient at theta (clipped to clip_bound when
    given), adds noise[j] when given, steps by step_size, and projects onto
    the ball. geometry decides clipping and projection row by row, so each
    problem is clipped or projected only when its own row is outside.

    Every step writes only work's buffers, so the caller's inputs are never
    written, and no step allocates an iterate, gradient or scratch array.
    The work.theta the caller filled must lie in the domain (_start checks
    it once per call). The output's arrays are work.running_sum and
    work.theta.
    """
    theta, running_sum, grad = work.theta, work.running_sum, work.grad
    scratch = work.scratch
    running_sum.fill(0.0)
    # a 0-d array operand spares numpy converting a Python float on every
    # step; the products are the same
    step = np.asarray(step_size, dtype=np.float64)
    for j in range(seq.count):
        running_sum += theta
        seq.grad(theta, j, out=grad)
        if clip_bound is not None:
            clip_norm_in_place(grad, clip_bound, scratch)
        if noise is not None:
            grad += noise[j]
        grad *= step
        theta -= grad
        project_in_place(theta, dom, scratch)
    running_sum /= seq.count
    return LearnerOutput(averaged_iterate=running_sum, final_iterate=theta)


def ogd_run(samples: TaskSamples, init, cfg: OgdConfig,
            dom: ParamDomain) -> LearnerOutput:
    """Projected online gradient descent over the samples in their given order.

    Visits theta_1 = init, takes one gradient step per sample, projects after
    every step, and averages the visited iterates theta_1 .. theta_m.
    """
    if cfg.num_steps is not None and cfg.num_steps != samples.count:
        raise ValueError(
            f"cfg.num_steps={cfg.num_steps} but {samples.count} samples were supplied")
    return _projected_steps(samples, _start(samples, init, dom), cfg.step_size, dom)


def noisy_sgd_steps(visits: TaskSamples, init, plan: NoisySgdPlan,
                    dom: ParamDomain, noise, work: StepWorkspace) -> LearnerOutput:
    """Noisy projected SGD on visits (steps_n, *batch, d) and noise
    (steps_n, *problems, d) drawn ahead: step j clips sample j's gradient to
    plan.clip_bound, adds noise[j], steps by plan.step_size and projects.
    init broadcasts against the batch axes of visits and is not written.
    Nothing is checked: the caller makes noisy_sgd_run's checks once per
    pass of tasks.

    The call steps in work, a StepWorkspace shaped (*problems, d), so a pass
    of tasks allocates no step buffers; the output's arrays are work's
    buffers, which the next call on it overwrites.
    """
    work.theta[...] = init
    return _projected_steps(visits, work, plan.step_size, dom,
                            clip_bound=plan.clip_bound, noise=noise)


def noisy_sgd_run(samples: TaskSamples, init, plan: NoisySgdPlan,
                  dom: ParamDomain, rng: np.random.Generator,
                  index_sequence=None) -> LearnerOutput:
    """Noisy projected SGD on one task: the private within-task learner.

    Takes plan.steps_n steps. Each step picks a sample uniformly at random
    with replacement, clips its gradient to plan.clip_bound, adds isotropic
    Gaussian noise of per-coordinate variance plan.noise_variance_sigma_sq to
    the clipped gradient, steps by plan.step_size, and projects.

    samples (m, d) and init (d,) make one problem; more raise ValueError.
    The run draws its full index sequence from rng up front, then its
    (steps_n, d) noise block, so runs whose generators are seeded alike
    sample identical indices whatever their noise variance, and a
    zero-variance run draws no noise. An explicit index_sequence of shape
    (steps_n,) pins the sampling entirely.
    """
    work = _start(samples, init, dom)
    if work.theta.ndim != 1:
        raise ValueError(f"noisy_sgd_run takes one problem, got problems shaped "
                         f"{work.theta.shape[:-1]}")
    n, m = plan.steps_n, samples.count
    if index_sequence is None:
        indices = rng.integers(0, m, size=n)
    else:
        indices = np.asarray(index_sequence, dtype=np.int64)
        if indices.shape != (n,):
            raise ValueError(f"index_sequence must have shape {(n,)}, got {indices.shape}")
        if indices.min() < 0 or indices.max() >= m:
            raise ValueError("index_sequence entries must index into the samples")
    # zero variance returns zeros and consumes no randomness
    noise = sample_step_noise(rng, dom.dim, plan.noise_variance_sigma_sq, count=n)
    return noisy_sgd_steps(samples.take(indices), init, plan, dom, noise, work)


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
