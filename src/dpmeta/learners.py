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
no step allocates an array of the batch's shape. Meta-training steps
through noisy_sgd_steps, which takes visits and noise drawn ahead and a
workspace to step in, so it checks, draws and allocates once per pass and
steps every training arm in one call per task; as training reads only the
average, that call stops after its last visit. noisy_sgd_run is its
one-problem reference: it checks its inputs, draws one task's indices, then
its noise, from one generator, and takes the last step too.

One call, idle_calls, decides once per pass which calls the steps may
skip: from a bound on the samples (A on quadratic anchors' offsets, F on
logistic feature norms), widened by the pass's rounding
(geometry.never_rescaled), it says whether neither the clip nor the
projection can act (interior) and whether the clip cannot (clip_idle). A
skipped call would have left every row alone, so the values are the same
bits. ogd_run skips its projections on the first verdict of its own call;
meta-training passes both verdicts of its pass to noisy_sgd_steps.
noisy_sgd_run always clips and projects.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

# the step scales are closed forms, kept in calibration
from .calibration import (NoisySgdPlan, adaptation_step_size,  # noqa: F401
                          private_step_scale)
from .geometry import (ParamDomain, RowScratch, clip_norm_in_place,
                       coordinate_top, never_rescaled, project_in_place)
from .losses import TaskSamples
from .privacy import sample_step_noise


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
    """averaged_iterate is the mean of the visited points; final_iterate is
    the iterate the run ended on: the post-update point theta_{n+1} for
    ogd_run and noisy_sgd_run, the last visited theta_n for
    noisy_sgd_steps. Both have shape (*problems, d)."""

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


def idle_calls(samples: TaskSamples, starts, step_size: float, dom: ParamDomain,
               clip_bound: float | None = None, noise=None,
               steps: int | None = None) -> tuple[bool, bool]:
    """(interior, clip_idle) for a pass that steps from the rows of starts
    on samples at step_size, adds rows of noise (None: none) and clips at
    clip_bound (None: no clip, and clip_idle is True), for steps rounded
    steps in sequence (default samples.count): interior when neither the
    clip nor the projection onto dom can rescale a row, clip_idle when the
    clip cannot. The call reads the samples, starts and noise at most once.

    interior: only quadratic samples at h = step_size x curvature in (0, 1]
    qualify; anything else is declined before any array is read. There a
    step maps the offset x from the center to (1 - h) x + h b - step_size xi,
    with b the anchor's offset. With A the norm of the per-coordinate box
    around the center that holds every anchor and Xi the noise rows' largest
    norm, the ball of radius r = max(||start - center||, A + Xi / curvature)
    maps into itself, so every iterate, and every average or convex
    combination of them, stays within r in exact arithmetic, and every
    gradient within curvature (r + A), which must clear the clip bound.

    clip_idle, when interior fails: no gradient anywhere in the ball exceeds
    the clip bound, at any h, whether the projection runs or not. Every
    iterate lies within rho = max(R, ||start - center||) of the center (a
    start may sit by the ball's rounding slack outside it), so quadratic
    gradients curvature (theta - b) have norm at most curvature (rho + A)
    and logistic ones -y sigmoid(-y <x, theta>) x at most
    sigmoid(F (||center|| + rho)) F, with F the largest feature norm.

    geometry.never_rescaled widens every bound by the pass's rounding: an
    iterate's, through curvature or the sigmoid's slope, and the gradient's
    own. The box is reduced over the step axis first, which numpy vectorizes
    over the contiguous (*batch, d) rows, and then over the batch axes of
    that result, so no temporary exceeds 1/m of the samples or 1/d of the
    noise; max and min are exact, so the order does not change the box."""
    curvature = samples.curvature
    contracts = curvature is not None and 0.0 < step_size * curvature <= 1.0
    if not contracts and clip_bound is None:
        return False, True
    center, dim = dom.center, dom.dim
    ops = samples.count if steps is None else steps
    offsets = np.subtract(starts, center)
    start = math.sqrt(np.maximum.reduce(np.vecdot(offsets, offsets), axis=None))
    points = samples.points
    if curvature is not None:
        high = np.maximum.reduce(np.maximum.reduce(points, axis=0).reshape(-1, dim),
                                 axis=0) - center
        low = np.minimum.reduce(np.minimum.reduce(points, axis=0).reshape(-1, dim),
                                axis=0) - center
        box = np.maximum(high, -low)
        anchors = math.sqrt(np.vecdot(box, box))
        top = coordinate_top(center)
    if contracts:
        xi = 0.0
        if noise is not None:
            xi = math.sqrt(np.maximum.reduce(np.vecdot(noise, noise), axis=None))
        radius = max(start, anchors + xi / curvature)
        # bounds every coordinate the steps compute: iterates, anchors,
        # gradients, noise and their sums
        scale = top + (2.0 + curvature) * (dom.radius + anchors) + xi
        # a gradient carries curvature times an iterate's rounding
        if never_rescaled(radius, dom.radius, scale, dim, ops) and (
                clip_bound is None or never_rescaled(
                    curvature * (radius + anchors), clip_bound,
                    (1.0 + curvature) * scale, dim, ops)):
            return True, True
        if clip_bound is None:
            return False, True
    reach = max(dom.radius, start)
    if curvature is not None:
        norm = curvature * (reach + anchors)
        scale = (1.0 + curvature) * (top + reach + anchors)
    else:
        feature = math.sqrt(np.maximum.reduce(np.vecdot(points, points), axis=None))
        # hypot: a center far from the origin need not have a finite square
        margin = feature * (math.hypot(*center.tolist()) + reach)
        norm = feature / (1.0 + math.exp(-margin))
        scale = feature * (1.0 + margin)
    return False, never_rescaled(norm, clip_bound, scale, dim, ops)


def _projected_steps(seq: TaskSamples, work: StepWorkspace, step_size: float,
                     dom: ParamDomain, clip_bound: float | None = None,
                     noise=None, final_step: bool = True,
                     interior: bool = False) -> LearnerOutput:
    """Visit one iterate per sample of seq, in order, from the iterate in
    work, stepping from each, and return the average of the visited
    iterates and the final iterate.

    Step j evaluates sample j's gradient at theta (clipped to clip_bound when
    given), adds noise[j] when given, steps by step_size, and projects onto
    the ball. geometry decides clipping and projection row by row, so each
    problem is clipped or projected only when its own row is outside. With
    interior True, which only idle_calls may decide, the loop does not
    project, since no projection could act. With
    final_step False the loop stops after the last visit, so the final
    iterate is the last one visited and the last sample's gradient, clip
    and noise are never used.

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
    clip = clip_bound is not None
    last = seq.count - 1
    for j in range(seq.count):
        running_sum += theta
        if j == last and not final_step:
            break
        seq.grad(theta, j, out=grad)
        if clip:
            clip_norm_in_place(grad, clip_bound, scratch)
        if noise is not None:
            grad += noise[j]
        grad *= step
        theta -= grad
        if not interior:
            project_in_place(theta, dom, scratch)
    running_sum /= seq.count
    return LearnerOutput(averaged_iterate=running_sum, final_iterate=theta)


def ogd_run(samples: TaskSamples, init, cfg: OgdConfig,
            dom: ParamDomain) -> LearnerOutput:
    """Projected online gradient descent over the samples in their given order.

    Visits theta_1 = init, takes one gradient step per sample, projects after
    every step, and averages the visited iterates theta_1 .. theta_m. The
    projections are skipped when idle_calls certifies the call interior.
    """
    if cfg.num_steps is not None and cfg.num_steps != samples.count:
        raise ValueError(
            f"cfg.num_steps={cfg.num_steps} but {samples.count} samples were supplied")
    work = _start(samples, init, dom)
    interior = idle_calls(samples, init, cfg.step_size, dom)[0]
    return _projected_steps(samples, work, cfg.step_size, dom, interior=interior)


def noisy_sgd_steps(visits: TaskSamples, init, plan: NoisySgdPlan,
                    dom: ParamDomain, noise, work: StepWorkspace,
                    interior: bool = False, clip_idle: bool = False) -> LearnerOutput:
    """Noisy projected SGD on visits (steps_n, *batch, d) and noise
    (steps_n, *problems, d) drawn ahead: it visits theta_1 = init, and
    step j clips sample j's gradient to plan.clip_bound, adds noise[j],
    steps by plan.step_size and projects, up to theta_n. The average of the
    n visits is all training reads, so no step leaves theta_n: the output's
    final_iterate is theta_n, and noise[n - 1] goes unused. init broadcasts
    against the batch axes of visits and is not written. Nothing is
    checked: the caller makes noisy_sgd_run's checks once per pass of tasks.
    Each flag skips one call, and the caller passes idle_calls' verdicts
    for the pass at plan.clip_bound: interior skips the projection and
    clip_idle the clip, so the steps run with no clip bound.

    The call steps in work, a StepWorkspace shaped (*problems, d), so a pass
    of tasks allocates no step buffers; the output's arrays are work's
    buffers, which the next call on it overwrites.
    """
    work.theta[...] = init
    clip_bound = None if clip_idle else plan.clip_bound
    return _projected_steps(visits, work, plan.step_size, dom,
                            clip_bound=clip_bound, noise=noise,
                            final_step=False, interior=interior)


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
    return _projected_steps(samples.take(indices), work, plan.step_size, dom,
                            clip_bound=plan.clip_bound, noise=noise)
