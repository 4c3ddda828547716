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
phi_t -> theta_bar_t -> phi_{t+1} is sequential, so a pass first draws every
task, its visited samples, its index sequence and its noise, and then, per
task, steps every arm's learner in one batched call and folds every arm's
output. The fold runs in place on the pass's (arms, d) arrays, in one
learners.StepWorkspace allocated per pass, with meta_step's and
surrogate_loss's operations in their order, so each arm's values are the
ones its own (d,) MetaState gives.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import learners
from .geometry import as_vector, dist_sq, dist_sq_into
from .learners import NoisySgdPlan
from .task_env import EnvSpec, draw_tasks, substreams


@dataclass(frozen=True)
class MetaState:
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


def _fold(phi, phi_running_sum, theta_bar, t: int) -> None:
    """The meta step in place, as task t's output joins: phi_running_sum +=
    phi, then phi becomes (1 - 1/t) phi + theta_bar / t. theta_bar is
    overwritten with theta_bar / t."""
    phi_running_sum += phi
    phi *= 1.0 - 1.0 / t
    theta_bar /= t
    phi += theta_bar


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


@dataclass(frozen=True)
class MetaTraining:
    """What meta-training leaves behind, one row per training arm: phi_hat
    (arms, d), the deployed initializations; surrogate_losses (arms, tasks),
    each private output against the phi its task started from; theta_stars
    (tasks, d), the shared tasks' minimizers, for the realized task
    dispersion."""

    phi_hat: np.ndarray
    surrogate_losses: np.ndarray
    theta_stars: np.ndarray


def run_meta_training(env: EnvSpec, num_tasks: int, plans: Sequence[NoisySgdPlan],
                      phi_init, master_seed: int) -> MetaTraining:
    """Train one meta-initialization per plan over num_tasks environment draws.

    plans holds one NoisySgdPlan per training arm (a single arm is a
    sequence of one); they may differ only in noise variance. All arms
    advance together in one pass of two phases.

    The draw phase draws everything phi does not enter. Task t's index
    sequence comes from one generator on (master_seed, "train-noise", t)
    shared by all arms, then, if any arm is noisy, one standard-normal block
    that each arm scales by its own noise standard deviation (held for all
    tasks: num_tasks * steps_n * arms * d floats). One task_env.draw_tasks
    call draws every task from (master_seed, "train-task", t) and
    (master_seed, "train-losses", t) and keeps the samples it visits.

    The fold phase is sequential: per task, one learners.noisy_sgd_steps
    call steps every arm from its phi_t in the pass's one workspace, and
    meta_step's fold, in place, folds every arm's averaged iterate. The arms
    share tasks, samples and index sequences, and each arm's row is
    bit-identical to training it alone.

    No non-private computation runs on the training tasks; only theta_bar
    reaches the meta state. Reruns with the same arguments are bit identical.
    """
    if int(num_tasks) != num_tasks or num_tasks < 1:
        raise ValueError(f"num_tasks must be an integer >= 1, got {num_tasks}")
    num_tasks = int(num_tasks)
    plans = tuple(plans)
    if not plans:
        raise ValueError("need at least one plan")
    plan = _common_plan(plans)
    phi_init = as_vector(phi_init, env.dim)
    if not env.domain.contains(phi_init):
        raise ValueError("phi_init lies outside the domain")

    n, m, dim = plan.steps_n, env.samples_per_task, env.dim
    std = np.sqrt([p.noise_variance_sigma_sq for p in plans])
    noisy = std.any()
    indices = np.empty((num_tasks, n), dtype=np.int64)
    normals = np.zeros((num_tasks, n, dim))
    for t, rng in enumerate(substreams(master_seed, "train-noise", count=num_tasks)):
        indices[t] = rng.integers(0, m, size=n)
        if noisy:
            normals[t] = rng.standard_normal((n, dim))
    # Generator.normal(0.0, s) returns 0.0 + s * z for the standard normals z
    # it draws, and s * z + 0.0 is the same sum: each arm gets the bits its
    # own generator would give, and a zero-variance arm exact zeros.
    # noise[t, j, a] is task t's noise at step j for arm a
    noise = std[:, None] * normals[:, :, None, :]
    noise += 0.0
    theta_stars, visits = draw_tasks(
        env, substreams(master_seed, "train-task", count=num_tasks),
        substreams(master_seed, "train-losses", count=num_tasks), indices)

    # the pass's (arms, d) state, folded in place task by task
    phi = np.tile(phi_init, (len(plans), 1))
    phi_running_sum = np.zeros_like(phi)
    work = learners.StepWorkspace(phi.shape)
    # (arms, tasks), so each arm's losses are one contiguous row
    surrogate_losses = np.empty((len(plans), num_tasks))
    for t in range(num_tasks):
        # every arm's phi_t on task t's visits: inits (arms, d), one problem
        # per arm; bars is work's running sum, free to overwrite once folded
        bars = learners.noisy_sgd_steps(visits.take((slice(None), t)), phi, plan,
                                        env.domain, noise[t], work).averaged_iterate
        # surrogate_loss(phi, bars); its squared-norm check is the finiteness
        # check of the fold's input
        np.multiply(0.5, dist_sq_into(bars, phi, work.scratch), out=surrogate_losses[:, t])
        _fold(phi, phi_running_sum, bars, t + 1)
    return MetaTraining(phi_running_sum / num_tasks, surrogate_losses, theta_stars)
