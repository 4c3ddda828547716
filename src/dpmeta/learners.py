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

The interior certificate gives two verdicts, each decided once per pass
from a bound on the samples (A on quadratic anchors' offsets, F on logistic
feature norms) and widened by the pass's rounding
(geometry.never_rescaled): interior_certified, that at step x curvature in
(0, 1] the iterates contract inside the ball, so neither the clip nor the
projection can act, and clip_certified, that no gradient anywhere in the
ball exceeds the clip bound, at any step size. A skipped call would have
left every row alone, so the values are the same bits. ogd_run decides the
projection verdict per call; meta-training decides both once per pass,
from one anchor box (anchor_reach). noisy_sgd_run always clips and
projects.
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


def anchor_reach(samples: TaskSamples, center) -> float | None:
    """A, the norm of the per-coordinate box around center that holds every
    anchor of quadratic samples (m, *batch, d); None for logistic samples,
    whose verdicts read no anchors. The box is reduced first over the step axis, which
    numpy vectorizes over the contiguous (*batch, d) rows, and then over the
    batch axes of that result; the only temporary is shaped (*batch, d),
    1/m of the points, so nothing the size of the samples is allocated. Max
    and min are exact, so the order of the reductions does not change the
    box."""
    if samples.curvature is None:
        return None
    points = samples.points
    dim = points.shape[-1]
    high = np.maximum.reduce(np.maximum.reduce(points, axis=0).reshape(-1, dim),
                             axis=0) - center
    low = np.minimum.reduce(np.minimum.reduce(points, axis=0).reshape(-1, dim),
                            axis=0) - center
    box = np.maximum(high, -low)
    return math.sqrt(np.vecdot(box, box))


def _start_reach(starts, center) -> float:
    """The largest norm of a row of starts - center."""
    offsets = np.subtract(starts, center)
    return math.sqrt(np.maximum.reduce(np.vecdot(offsets, offsets), axis=None))


def interior_certified(samples: TaskSamples, starts, step_size: float,
                       dom: ParamDomain, clip_bound: float | None = None,
                       noise=None, steps: int | None = None,
                       anchors: float | None = None) -> bool:
    """The projection verdict of the interior certificate: True when
    neither the clip at clip_bound (None: no clip) nor the projection onto
    dom can rescale a row of a pass that steps from the rows of starts on
    samples, adding rows of noise (None: none), for steps rounded steps in
    sequence (default samples.count). anchors is anchor_reach(samples,
    dom.center), computed here when None.

    Only quadratic samples at h = step_size x curvature in (0, 1] qualify;
    anything else is declined before any array is read. There a step maps
    the offset x from the center to (1 - h) x + h b - step_size xi, with b
    the anchor's offset. With A bounding the anchors' offsets
    (anchor_reach) and Xi the noise rows' norms, the ball of radius
    r = max(||start - center||, A + Xi / curvature) maps into itself, so
    every iterate, and every average or convex combination of them, stays
    within r in exact arithmetic, and every gradient within
    curvature (r + A). geometry.never_rescaled widens both by the rounding
    of the steps."""
    curvature = samples.curvature
    if curvature is None or not 0.0 < step_size * curvature <= 1.0:
        return False
    center = dom.center
    if anchors is None:
        anchors = anchor_reach(samples, center)
    xi = 0.0
    if noise is not None:
        xi = math.sqrt(np.maximum.reduce(np.vecdot(noise, noise), axis=None))
    radius = max(_start_reach(starts, center), anchors + xi / curvature)
    # bounds every coordinate the steps compute: iterates, anchors,
    # gradients, noise and their sums
    scale = coordinate_top(center) + (2.0 + curvature) * (dom.radius + anchors) + xi
    ops = samples.count if steps is None else steps
    if not never_rescaled(radius, dom.radius, scale, dom.dim, ops):
        return False
    # a gradient carries curvature times an iterate's rounding
    return clip_bound is None or never_rescaled(
        curvature * (radius + anchors), clip_bound, (1.0 + curvature) * scale,
        dom.dim, ops)


def clip_certified(samples: TaskSamples, starts, dom: ParamDomain,
                   clip_bound: float, steps: int | None = None,
                   anchors: float | None = None) -> bool:
    """The clip verdict of the interior certificate: True when the clip at
    clip_bound cannot rescale the gradient of any sample of samples at any
    iterate of a pass that starts from the rows of starts and keeps its
    iterates in dom, as the projection or interior_certified keeps them,
    for steps rounded steps in sequence (default samples.count). anchors
    is anchor_reach(samples, dom.center), computed here when None.

    It bounds the gradient over the whole ball, not over the contracted
    radius of interior_certified, so it holds at any step size, h > 1
    included, whether the projection runs or not. Every iterate and every
    average of them lies within rho = max(R, ||start - center||) of the
    center (a start may sit by the ball's rounding slack outside it).
    Quadratic samples: the gradient curvature (theta - b) has norm at most
    curvature (rho + A), with A the anchor box's norm that
    interior_certified reads too. Logistic samples: the gradient
    -y sigmoid(-y <x, theta>) x has norm at most
    sigmoid(F (||center|| + rho)) F, with F the samples' largest feature
    norm. geometry.never_rescaled widens either bound by the pass's
    rounding: an iterate's, through curvature or the sigmoid's slope, and
    the gradient's own."""
    center = dom.center
    ops = samples.count if steps is None else steps
    reach = max(dom.radius, _start_reach(starts, center))
    if samples.curvature is not None:
        if anchors is None:
            anchors = anchor_reach(samples, center)
        top = samples.curvature * (reach + anchors)
        scale = (1.0 + samples.curvature) * (coordinate_top(center) + reach + anchors)
    else:
        points = samples.points
        feature = math.sqrt(np.maximum.reduce(np.vecdot(points, points), axis=None))
        # hypot: a center far from the origin need not have a finite square
        margin = feature * (math.hypot(*center.tolist()) + reach)
        top = feature / (1.0 + math.exp(-margin))
        scale = feature * (1.0 + margin)
    return never_rescaled(top, clip_bound, scale, dom.dim, ops)


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
    interior True, which only interior_certified may decide, the loop does
    not project, since no projection could act. With
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
    projections are skipped when interior_certified holds for the call.
    """
    if cfg.num_steps is not None and cfg.num_steps != samples.count:
        raise ValueError(
            f"cfg.num_steps={cfg.num_steps} but {samples.count} samples were supplied")
    work = _start(samples, init, dom)
    return _projected_steps(samples, work, cfg.step_size, dom,
                            interior=interior_certified(samples, init, cfg.step_size, dom))


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
    Each flag skips one call: interior, which the caller passes True only
    when interior_certified holds for the pass, skips the projection, and
    clip_idle, which it passes True only when clip_certified holds for the
    pass or interior_certified holds at plan.clip_bound, skips the clip, so
    the steps run with no clip bound.

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
