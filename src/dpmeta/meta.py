"""The meta-learner: a running average of private task outputs.

After task t finishes, the initialization moves to
phi_{t+1} = (1 - 1/t) phi_t + theta_bar_t / t, which keeps phi_{t+1} equal to
the mean of theta_bar_1 .. theta_bar_t, i.e. the exact minimizer of the
surrogates (1/2) ||theta_bar_s - phi||^2 seen so far. The deployed
initialization is the average of the per-task phi values, phi_hat =
(1/T) sum_t phi_t. Only the privatized averages theta_bar_t ever enter the
meta state, so the meta path adds no privacy cost beyond the per-task runs.

Training runs several arms at once, one noisy-SGD plan each (the private
plan and its zero-noise twin), with the arm as an array axis. Only the fold
phi_t -> theta_bar_t -> phi_{t+1} is sequential, so a pass draws everything
else first and keeps every phi_t and output; the running sum of the phi_t
and the surrogate losses then run once, after the loop, in meta_step's and
surrogate_loss's order, so each arm's values are the ones its own (d,)
MetaState gives.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import learners
from .calibration import Environment, NoisySgdPlan, Record, _count
from .geometry import as_vector, dist_sq
from .task_env import _bounded_indices, draw_tasks, substream, substreams


class MetaState(Record):
    """Immutable meta-learner state after task_count updates.

    phi_current is the (d,) initialization the next task will start from;
    phi_running_sum accumulates the phi in force at each past task (for
    phi_hat).
    """

    phi_current: np.ndarray
    task_count: int
    phi_running_sum: np.ndarray

    def phi_hat(self) -> np.ndarray:
        """Mean of the per-task initializations, the deployed output."""
        if self.task_count < 1:
            raise ValueError("phi_hat is undefined before any update")
        return self.phi_running_sum / self.task_count


def new_state(phi_init) -> MetaState:
    """The state before any task, from a (d,) phi_init."""
    phi = as_vector(phi_init)
    return MetaState(
        phi_current=phi,
        task_count=0,
        phi_running_sum=np.zeros_like(phi),
    )


def meta_step(state: MetaState, theta_bar) -> MetaState:
    """Fold one private task output, a (d,) theta_bar, into the state.

    With t the new task count, phi moves to (1 - 1/t) phi + theta_bar / t.
    After t updates phi_current equals mean(theta_bar_1 .. theta_bar_t)
    regardless of the starting point, which is wiped out at t = 1.
    """
    theta_bar = as_vector(theta_bar, state.phi_current.size)
    t = state.task_count + 1
    return MetaState(
        phi_current=(1.0 - 1.0 / t) * state.phi_current + theta_bar / t,
        task_count=t,
        phi_running_sum=state.phi_running_sum + state.phi_current,
    )


def surrogate_loss(phi, theta_bar):
    """(1/2) ||theta_bar - phi||^2, the per-task objective the meta-learner
    descends in place of the unobservable task risk; one value per row of a
    batch."""
    return 0.5 * dist_sq(theta_bar, phi)


def _common_plan(plans: Sequence[NoisySgdPlan]) -> NoisySgdPlan:
    """The first of plans, after checking that they share steps_n, step_size
    and clip_bound: arms trained in one pass may differ only in noise
    variance."""
    plan = plans[0]
    shared = (plan.steps_n, plan.step_size, plan.clip_bound)
    if any((p.steps_n, p.step_size, p.clip_bound) != shared for p in plans):
        raise ValueError("training plans may differ only in noise_variance_sigma_sq")
    return plan


class MetaTraining(Record):
    """What meta-training leaves behind, one row per training arm: phi_hat
    (arms, d), the deployed initializations; surrogate_losses (arms, tasks),
    each private output against the phi its task started from; theta_stars
    (tasks, d), the shared tasks' minimizers, for the realized task
    dispersion."""

    phi_hat: np.ndarray
    surrogate_losses: np.ndarray
    theta_stars: np.ndarray


def run_meta_training(env: Environment, num_tasks: int, plans: Sequence[NoisySgdPlan],
                      phi_init, master_seed: int) -> MetaTraining:
    """Train one meta-initialization per plan over num_tasks environment draws.

    plans holds one NoisySgdPlan per training arm (a single arm is a
    sequence of one); they may differ only in noise variance. All arms
    advance together in one pass of two phases.

    The draw phase draws everything phi does not enter. Task t's index
    sequence comes from one generator on (master_seed, "train-noise", t)
    shared by all arms, then, if any arm is noisy, standard normals that
    each arm scales by its own noise standard deviation into one noise block
    of num_tasks * steps_n * arms * d floats (the normals are then dropped).
    Each generator gives the raw words its integers call would read, and
    one task_env._bounded_indices call turns the pass's words into every
    index as that call would; a task it flags is drawn again by integers.
    One task_env.draw_tasks call draws every task from (master_seed,
    "train-task", t) and (master_seed, "train-losses", t) and keeps the
    samples it visits. One learners.idle_calls call on phi_init, all visits
    and the whole noise block decides whether the steps may skip the clip
    and the projection, or the clip alone (every phi_t and theta_bar_t is a
    convex combination of iterates, so it stays where they do). By the
    learners' same-shape rule the visits have an arms axis: a view for one
    arm, and for several quadratic arms the layout draw_tasks writes, an
    anchors block of the noise's size.

    The fold phase is sequential: per task, one learners.noisy_sgd_steps
    call steps every arm from its phi_t, row t of the (tasks + 1, arms, d)
    phi history, on task t's rows of the pass, and averages straight into
    row t of a (tasks, arms, d) block; meta_step's fold writes phi_{t+1}
    into row t + 1. After the loop one dist_sq over the two blocks gives the
    surrogate losses, and one accumulation in task order, from 0.0 as
    MetaState's running sum starts, gives the sum of the phi_t; a non-finite
    theta_bar_t raises ValueError there. The arms share tasks, samples and
    index sequences, and each arm's row is bit-identical to training it
    alone. No non-private computation runs on the training tasks; only
    theta_bar reaches the meta state. Reruns are bit identical.
    """
    num_tasks = _count("num_tasks", num_tasks)
    plans = tuple(plans)
    if not plans:
        raise ValueError("need at least one plan")
    plan = _common_plan(plans)
    phi_init = as_vector(phi_init, env.dim)
    if not env.domain.contains(phi_init):
        raise ValueError("phi_init lies outside the domain")

    n, m, dim, arms = plan.steps_n, env.samples_per_task, env.dim, len(plans)
    std = np.sqrt([p.noise_variance_sigma_sq for p in plans])
    noisy = std.any()
    # the 32-bit halves of ceil(n / 2) raw words cover n indices
    words = (n + 1) // 2
    raw = np.empty((num_tasks, words), dtype="<u8")
    normals = np.zeros((num_tasks, n, dim))
    for t, rng in enumerate(substreams(master_seed, "train-noise", count=num_tasks)):
        raw[t] = rng.bit_generator.random_raw(words)
        if noisy:
            rng.standard_normal(out=normals[t])
    indices, redraw = _bounded_indices(raw, m, n)
    del raw
    # a task whose draw numpy would redraw is drawn by numpy, from a fresh
    # generator on its stream
    for t in np.flatnonzero(redraw).tolist():
        rng = substream(master_seed, "train-noise", t)
        indices[t] = rng.integers(0, m, size=n)
        if noisy:
            rng.standard_normal(out=normals[t])
    # Generator.normal(0.0, s) returns 0.0 + s * z for the standard normals z
    # it draws, and s * z + 0.0 is the same sum: each arm gets the bits its
    # own generator would give, and a zero-variance arm exact zeros.
    # noise[j, t, a], task t's noise at step j for arm a, is a view whose
    # (j, t) rows are contiguous
    noise = (std[:, None] * normals[:, :, None, :]).swapaxes(0, 1)
    noise += 0.0
    del normals
    # visits (n, tasks, arms, d), whose rows have the iterates' shape, for
    # several quadratic arms; one arm's get that shape as a view below
    copies = arms if arms > 1 and env.loss_family == "quadratic" else None
    theta_stars, visits = draw_tasks(
        env, substreams(master_seed, "train-task", count=num_tasks),
        substreams(master_seed, "train-losses", count=num_tasks), indices, copies)

    # num_tasks passes of steps_n steps, one fold each, run in sequence
    steps, domain = num_tasks * (n + 1), env.domain
    # every arm's anchors are arm 0's, which idle_calls reads alone
    first = visits if copies is None else visits.take((slice(None), slice(None), 0))
    interior, clip_idle = learners.idle_calls(first, phi_init, plan.step_size, domain,
                                              plan.clip_bound, noise, steps=steps)
    if arms == 1:
        visits = visits.take((slice(None), slice(None), None))

    # phis[t] is every arm's phi_t, the init of task t; bars[t] its output
    phis = np.empty((num_tasks + 1, arms, dim))
    phis[0] = phi_init
    bars = np.empty((num_tasks, arms, dim))
    share = np.empty((arms, dim))
    work = learners.StepWorkspace((arms, dim), domain)
    for t in range(num_tasks):
        # every arm's phi_t on task t's rows of the pass: inits (arms, d),
        # one problem per arm, averaged straight into bars[t]
        phi, k = phis[t], t + 1
        bar = learners.noisy_sgd_steps(visits, phi, plan, domain, noise, work, bars[t],
                                       interior=interior, clip_idle=clip_idle, task=t)
        # meta_step's fold: phi_{t+1} = (1 - 1/k) phi_t + theta_bar_t / k
        np.multiply(phi, 1.0 - 1.0 / k, out=phis[k])
        np.divide(bar, k, out=share)
        phis[k] += share
    # every task's surrogate, as (arms, tasks); dist_sq's finiteness check
    # is the check of every fold's input
    surrogate_losses = np.ascontiguousarray(surrogate_loss(phis[:-1], bars).T)
    # MetaState's running sum 0.0 + phi_1 + ... + phi_T, added in task order
    # into bars, which is free once scored: accumulate adds row by row, and
    # adding the 0.0 last gives the same bits as adding it first (either
    # turns a -0.0 sum into +0.0)
    phi_sum = np.add.accumulate(phis[:-1], axis=0, out=bars)[-1]
    phi_sum += 0.0
    return MetaTraining(phi_sum / num_tasks, surrogate_losses, theta_stars)
