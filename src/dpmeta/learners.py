"""Within-task learners: plain projected OGD and its noisy private variant.

All are entry points to one projected-step loop that walks a sequence of
samples (losses.TaskSamples) over a ball domain and reports the average of
the iterates it evaluated gradients at: the start point included, the final
post-update point not, so a single-sample run returns its initialization.

The loop steps a batch of independent problems at once, on iterates shaped
(*problems, d): the leading axes of init broadcast against the samples'
batch axes, so inits (arms, 1, d) adapted on samples (m, tasks, d) run every
arm on every task, and a single task from a single init is the batch of one
with (d,) iterates. It steps in a StepWorkspace, sums the visited iterates
into a buffer the caller gives, and clips and projects in place, row by row,
so each problem's result is bit-identical whatever batch it runs in and no
step allocates an array. Meta-training calls noisy_sgd_steps once per task
on task t's rows of a pass's visits and noise drawn ahead, building no
objects, and stops after the last visit, as training reads only the average.
noisy_sgd_run is its one-problem reference: it checks its inputs, draws one
task's indices, then its noise, from one generator, and takes the last step.

A step is a few numpy calls on small arrays: four in an interior eval step
at curvature 1.0, about ten in a training step that clips and projects. So
numpy's per-call cost, not arithmetic, bounds it, and the loop does its
per-call work once per call: it takes task t's rows, looks up the gradient
kernel, the clip and the projection, and binds the ufuncs, which take out
positionally (numpy parses that faster than out=); the step size is a 0-d
array in the workspace. A step then runs no Python code but the kernel,
the clip and the projection.

The same-shape rule: a call with an operand that broadcasts costs about
twice one whose operands share one shape or are 0-d. So the loop's operands
have the iterate's shape wherever that copies at most a pass's noise block:
meta gives its visits an arms axis (a view for one arm), _start gives one
arm's eval samples a leading size-1 axis (a view; more arms keep
broadcasting, as a copy would be m x arms x tasks x d floats), and geometry
keeps the center and, on few rows, the row factors at the batch's shape.
Each call is the same ufunc on the same values, so the bits do not change.
A one-arm logistic step's gradient takes losses' one-row route, sigmoid on
Python floats, with the same bits.

One call, idle_calls, decides once per pass whether neither the clip nor
the projection can act (interior) and whether the clip cannot (clip_idle),
so the steps may skip them with the same bits: ogd_run on the first verdict
of its own call, meta-training on both; noisy_sgd_run always calls them.
"""

from __future__ import annotations

import math

import numpy as np

# the step scales are closed forms, kept in calibration
from . import losses
from .calibration import (Ball, NoisySgdPlan, Record, _count, _finite,  # noqa: F401
                          adaptation_step_size, private_step_scale)
from .geometry import (RowScratch, clip_norm_in_place, coordinate_top,
                       never_rescaled, project_in_place)
from .losses import TaskSamples
from .privacy import sample_step_noise


class OgdConfig(Record):
    """Step size and expected pass length for plain projected OGD."""

    step_size: float
    num_steps: int | None = None

    def __post_init__(self):
        _finite("step_size", self.step_size)
        if self.num_steps is not None:
            object.__setattr__(self, "num_steps", _count("num_steps", self.num_steps))


class LearnerOutput(Record):
    """What ogd_run and noisy_sgd_run return, shaped (*problems, d): the
    mean of the visited points and the post-update point theta_{n+1}."""

    averaged_iterate: np.ndarray
    final_iterate: np.ndarray


class StepWorkspace:
    """The loop's iterate, gradient, logistic margins (*problems,) and
    geometry's RowScratch, for iterates shaped (*problems, d) on the domain
    dom, and step_size as a 0-d array, which numpy takes without converting
    a Python float on every step: a caller may pass one to many
    noisy_sgd_steps calls of one shape; each call overwrites all of it but
    the scratch's center, which is dom's, converted from its tuple here, so
    that no step converts it, and the step, which a call refills in place
    only when it brings another step size."""

    def __init__(self, shape, dom: Ball, step_size: float):
        self.theta = np.empty(shape)
        self.grad = np.empty(shape)
        self.margins = np.empty(shape[:-1])
        self.scratch = RowScratch(shape)
        self.scratch.center[...] = self.scratch.center_of = dom.center
        self.step = np.array(step_size, dtype=np.float64)
        self.step_size = step_size


def _start(samples: TaskSamples, init, dom: Ball,
           step_size: float) -> tuple[TaskSamples, StepWorkspace]:
    """The samples, as a view with the iterates' batch shape where that only
    adds leading size-1 axes, and a fresh workspace for step_size whose
    iterate holds init, after checking the samples' dimension and that init
    lies in the domain: the leading axes of init broadcast against the batch
    axes."""
    if samples.dim != dom.dim:
        raise ValueError(f"samples have dimension {samples.dim}, the domain {dom.dim}")
    if not dom.contains(init):
        raise ValueError("init lies outside the domain")
    batch = samples.batch_shape
    problems = np.broadcast_shapes(np.shape(init)[:-1], batch)
    if len(problems) > len(batch) and math.prod(problems) == math.prod(batch):
        samples = samples.take((slice(None),) + (None,) * (len(problems) - len(batch)))
    work = StepWorkspace(problems + (samples.dim,), dom, step_size)
    work.theta[...] = init
    return samples, work


def idle_calls(samples: TaskSamples, starts, step_size: float, dom: Ball,
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
        margin = feature * (math.hypot(*center) + reach)
        norm = feature / (1.0 + math.exp(-margin))
        scale = feature * (1.0 + margin)
    return False, never_rescaled(norm, clip_bound, scale, dim, ops)


def _projected_steps(seq: TaskSamples, work: StepWorkspace, total, step_size: float,
                     dom: Ball, clip_bound: float | None = None, noise=None,
                     final_step: bool = True, interior: bool = False, task=None) -> None:
    """Visit one iterate per sample of seq, in order, from the iterate in
    work, stepping from each; write the average of the visited iterates into
    total and leave the final iterate in work.theta.

    Step j evaluates sample j's gradient at theta (clipped to clip_bound when
    given), adds noise[j] when given, steps by step_size, and projects onto
    the ball; with task t given, it steps on task t's rows of seq and noise
    instead, taken once per call. geometry clips and projects a problem only
    when its own row is outside. With interior True, which only idle_calls
    may decide, the loop does not project, since no projection could act.
    With final_step False the loop stops after the last visit, so the final
    iterate is the last one visited and the last sample's gradient, clip and
    noise are unused.

    The rows, the family's gradient kernel, the clip and the projection are
    looked up once per call, from their modules, and the ufuncs are bound to
    locals and take out positionally; the step is work's 0-d array, refilled
    in place when a call brings another step size. Every step writes only
    work's buffers and total, and allocates no array. The work.theta the
    caller filled must lie in the domain (_start checks it once per call).
    """
    theta, grad, margins, scratch = work.theta, work.grad, work.margins, work.scratch
    points, labels = seq.points, seq.labels
    if task is not None:
        points = points[:, task]
        labels = None if labels is None else labels[:, task]
        noise = None if noise is None else noise[:, task]
    quadratic = labels is None
    kernel = losses._quadratic_grad if quadratic else losses._logistic_grad
    curvature = seq._curvature if quadratic else None
    clip = None if clip_bound is None else clip_norm_in_place
    project = None if interior else project_in_place
    add, subtract, multiply = np.add, np.subtract, np.multiply
    step = work.step
    if work.step_size != step_size:
        step[()] = work.step_size = step_size
    total.fill(0.0)
    for j in range(seq.count if final_step else seq.count - 1):
        add(total, theta, total)
        if quadratic:
            kernel(theta, points[j], curvature, grad)
        else:
            kernel(theta, points[j], labels[j], grad, margins)
        if clip is not None:
            clip(grad, clip_bound, scratch)
        if noise is not None:
            add(grad, noise[j], grad)
        multiply(grad, step, grad)
        subtract(theta, grad, theta)
        if project is not None:
            project(theta, dom, scratch)
    if not final_step:
        add(total, theta, total)
    total /= seq.count


def ogd_run(samples: TaskSamples, init, cfg: OgdConfig,
            dom: Ball) -> LearnerOutput:
    """Projected online gradient descent over the samples in their given order.

    Visits theta_1 = init, takes one gradient step per sample, projects after
    every step, and averages the visited iterates theta_1 .. theta_m. The
    projections are skipped when idle_calls certifies the call interior.
    """
    if cfg.num_steps is not None and cfg.num_steps != samples.count:
        raise ValueError(
            f"cfg.num_steps={cfg.num_steps} but {samples.count} samples were supplied")
    rows, work = _start(samples, init, dom, cfg.step_size)
    interior = idle_calls(samples, init, cfg.step_size, dom)[0]
    average = np.empty(work.theta.shape)
    _projected_steps(rows, work, average, cfg.step_size, dom, interior=interior)
    return LearnerOutput(averaged_iterate=average, final_iterate=work.theta)


def noisy_sgd_steps(visits: TaskSamples, init, plan: NoisySgdPlan, dom: Ball,
                    noise, work: StepWorkspace, out, interior: bool = False,
                    clip_idle: bool = False, task: int | None = None):
    """Noisy projected SGD on visits (steps_n, *batch, d) and noise
    (steps_n, *problems, d) drawn ahead, or with task t given on task t's
    rows of a pass's (steps_n, tasks, ...) blocks, stepped in work: it
    visits theta_1 = init (not written), and step j clips sample j's
    gradient to plan.clip_bound, adds noise[j], steps by plan.step_size and
    projects, up to theta_n. Training reads only the average, so it is
    written into out and returned, theta_n is left in work.theta, and
    noise[n - 1] goes unused. Nothing is checked: the caller makes
    noisy_sgd_run's checks once per pass, and passes idle_calls' verdicts
    for the pass: interior skips the projection and clip_idle the clip.
    """
    work.theta[...] = init
    _projected_steps(visits, work, out, plan.step_size, dom,
                     clip_bound=None if clip_idle else plan.clip_bound, noise=noise,
                     final_step=False, interior=interior, task=task)
    return out


def _pinned_indices(seq, n: int, m: int):
    """seq as n int64 indices into m samples. It must be an integer array
    or a list or tuple of Python ints; anything else (bools, floats,
    strings) and an index outside [0, m) raise ValueError, before a
    conversion could round, wrap or overflow."""
    if not (seq.dtype.kind in "iu" if isinstance(seq, np.ndarray) else
            isinstance(seq, (list, tuple)) and all(type(i) is int for i in seq)):
        raise ValueError("index_sequence must be an integer array or a list or "
                         "tuple of Python ints")
    if np.shape(seq) != (n,):
        raise ValueError(f"index_sequence must have shape {(n,)}, got {np.shape(seq)}")
    if min(seq) < 0 or max(seq) >= m:
        raise ValueError("index_sequence entries must index into the samples")
    return np.asarray(seq, dtype=np.int64)


def noisy_sgd_run(samples: TaskSamples, init, plan: NoisySgdPlan,
                  dom: Ball, rng: np.random.Generator,
                  index_sequence=None) -> LearnerOutput:
    """Noisy projected SGD on one task: the private within-task learner.

    Takes plan.steps_n steps. Each step picks a sample uniformly at random
    with replacement, clips its gradient to plan.clip_bound, adds isotropic
    Gaussian noise of per-coordinate variance plan.noise_variance_sigma_sq,
    steps by plan.step_size, and projects. samples (m, d) and init (d,)
    make one problem; more raise ValueError. The run draws its index
    sequence from rng up front, then its (steps_n, d) noise, so runs seeded
    alike sample the same indices whatever their noise variance, and a
    zero-variance run draws no noise. An index_sequence of shape (steps_n,)
    pins the sampling.
    """
    samples, work = _start(samples, init, dom, plan.step_size)
    if work.theta.ndim != 1:
        raise ValueError(f"noisy_sgd_run takes one problem, got problems shaped "
                         f"{work.theta.shape[:-1]}")
    n, m = plan.steps_n, samples.count
    if index_sequence is None:
        indices = rng.integers(0, m, size=n)
    else:
        indices = _pinned_indices(index_sequence, n, m)
    # zero variance returns zeros and consumes no randomness
    noise = sample_step_noise(rng, dom.dim, plan.noise_variance_sigma_sq, count=n)
    average = np.empty(work.theta.shape)
    _projected_steps(samples.take(indices), work, average, plan.step_size, dom,
                     clip_bound=plan.clip_bound, noise=noise)
    return LearnerOutput(averaged_iterate=average, final_iterate=work.theta)
