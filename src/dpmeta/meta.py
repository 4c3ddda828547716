"""The meta-learner: a running average of private task outputs.

After task t finishes, the initialization moves to
phi_{t+1} = (1 - 1/t) phi_t + theta_bar_t / t, which keeps phi_{t+1} equal to
the mean of theta_bar_1 .. theta_bar_t, i.e. the exact minimizer of the
surrogates (1/2) ||theta_bar_s - phi||^2 seen so far. The deployed
initialization is the average of the per-task phi values, phi_hat =
(1/T) sum_t phi_t. Only the privatized averages theta_bar_t ever enter the
meta state, so the meta path adds no privacy cost beyond the per-task runs.

Training runs several arms at once, one noisy-SGD plan each (the private
plan and its zero-noise twin): one pass over the tasks draws each task and
its samples once and steps every arm's learner in a single batched call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import learners
from .geometry import as_vector, dist_sq
from .learners import NoisySgdPlan
from .task_env import EnvSpec, generate_losses, sample_task, substream


@dataclass(frozen=True)
class MetaState:
    """Immutable meta-learner state after task_count updates.

    phi_current is the initialization the next task will start from;
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
    phi = as_vector(phi_init)
    return MetaState(
        phi_current=phi,
        task_count=0,
        phi_running_sum=np.zeros_like(phi),
    )


def meta_step(state: MetaState, theta_bar) -> MetaState:
    """Fold one private task output into the state.

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


def surrogate_loss(phi, theta_bar) -> float:
    """(1/2) ||theta_bar - phi||^2, the per-task objective the meta-learner
    descends in place of the unobservable task risk."""
    return 0.5 * dist_sq(theta_bar, phi)


@dataclass(frozen=True)
class TaskRecord:
    """What one meta-training task leaves behind.

    theta_bar is the private output that fed the meta update, the only
    per-task output that leaves the task; theta_star is the task's population
    minimizer, kept for the realized task dispersion.
    """

    task_index: int
    phi_used: np.ndarray
    theta_bar: np.ndarray
    theta_star: np.ndarray
    surrogate_loss_value: float


def run_meta_training(env: EnvSpec, num_tasks: int, plans: Sequence[NoisySgdPlan],
                      phi_init, master_seed: int,
                      ) -> list[tuple[np.ndarray, list[TaskRecord], MetaState]]:
    """Train one meta-initialization per plan over num_tasks environment draws.

    plans holds one NoisySgdPlan per training arm (a single arm is a
    sequence of one); they may differ only in noise variance. All arms
    advance together in one pass. Per task t: draw the task and its samples
    once from substreams (master_seed, "train-task", t) and
    (master_seed, "train-losses", t), run the private learner once for every
    arm from that arm's phi_t, each arm with its own generator on the noise
    stream (master_seed, "train-noise", t), fold each arm's averaged iterate
    into its meta state, and record it. The arms therefore share tasks,
    samples and index sequences, and each arm is bit-identical to training it
    alone. Returns one (phi_hat, records, final state) per plan, in order.

    No non-private computation runs on the training tasks; only theta_bar
    reaches the meta state. Reruns with the same arguments are bit identical.
    """
    if int(num_tasks) != num_tasks or num_tasks < 1:
        raise ValueError(f"num_tasks must be an integer >= 1, got {num_tasks}")
    num_tasks = int(num_tasks)
    if env.task_budget is not None and num_tasks > env.task_budget:
        raise ValueError(
            f"environment is exhausted: task_budget={env.task_budget} < num_tasks={num_tasks}")
    plans = tuple(plans)
    if not plans:
        raise ValueError("need at least one plan")
    phi_init = as_vector(phi_init, env.dim)
    if not env.domain.contains(phi_init):
        raise ValueError("phi_init lies outside the domain")

    states = [new_state(phi_init)] * len(plans)
    records = [[] for _ in plans]
    for t in range(num_tasks):
        task = sample_task(env, substream(master_seed, "train-task", t))
        samples = generate_losses(task, env, substream(master_seed, "train-losses", t))
        # every arm's phi_t on the one task: inits (arms, d), one problem per arm
        phis = np.stack([state.phi_current for state in states])
        rngs = [substream(master_seed, "train-noise", t) for _ in plans]
        bars = learners.noisy_sgd_run(samples, phis, plans, env.domain,
                                      rngs).averaged_iterate
        for a, bar in enumerate(bars):
            phi_t = states[a].phi_current
            records[a].append(TaskRecord(
                task_index=t,
                phi_used=phi_t,
                theta_bar=bar,
                theta_star=task.theta_star,
                surrogate_loss_value=surrogate_loss(phi_t, bar),
            ))
            states[a] = meta_step(states[a], bar)
    return [(state.phi_hat(), recs, state) for state, recs in zip(states, records)]
