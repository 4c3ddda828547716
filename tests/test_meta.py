from dataclasses import replace
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import dpmeta.learners
from dpmeta.geometry import ParamDomain
from dpmeta.learners import noisy_sgd_run
from dpmeta.meta import meta_step, new_state, run_meta_training, surrogate_loss
from dpmeta.privacy import NoisySgdPlan
from dpmeta.task_env import EnvSpec, generate_losses, sample_task, substream


def test_first_step_replaces_initializer():
    state = new_state(np.array([5.0, -3.0]))
    nxt = meta_step(state, np.array([1.0, 2.0]))
    # t = 1: the update weight on the initializer is zero
    assert np.array_equal(nxt.phi_current, [1.0, 2.0])
    assert nxt.task_count == 1


def test_running_mean_identity():
    rng = np.random.default_rng(31)
    bars = [rng.normal(size=4) for _ in range(25)]
    state = new_state(rng.normal(size=4))
    for b in bars:
        state = meta_step(state, b)
    assert np.allclose(state.phi_current, np.mean(bars, axis=0), rtol=1e-12)


def test_phi_hat_averages_pre_update_iterates():
    state = new_state(np.array([4.0]))
    phis = []
    for b in ([2.0], [0.0], [1.0]):
        phis.append(state.phi_current.copy())
        state = meta_step(state, np.array(b))
    assert np.allclose(state.phi_hat(), np.mean(phis, axis=0), rtol=1e-12)
    # hand check: phi sequence 4, 2, 1 -> phi_hat = 7/3
    assert abs(state.phi_hat()[0] - 7.0 / 3.0) < 1e-15


def test_phi_hat_requires_at_least_one_step():
    with pytest.raises(ValueError):
        new_state(np.zeros(2)).phi_hat()


def test_meta_step_immutable_inputs():
    state = new_state(np.array([1.0, 1.0]))
    bar = np.array([3.0, 3.0])
    nxt = meta_step(state, bar)
    bar[:] = 0.0
    assert np.array_equal(nxt.phi_current, [3.0, 3.0])
    assert np.array_equal(state.phi_current, [1.0, 1.0])


def test_meta_step_rejects_a_mismatched_output():
    state = new_state(np.zeros(2))
    for bad in (np.ones(1), np.ones(3), np.ones((1, 2)), np.ones((3, 2))):
        with pytest.raises(ValueError):
            meta_step(state, bad)
    # one state per arm: a stack of initializations is not a state
    with pytest.raises(ValueError):
        new_state(np.zeros((3, 2)))


def test_surrogate_loss_value():
    assert surrogate_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5
    assert surrogate_loss(np.zeros(3), np.zeros(3)) == 0.0


def test_meta_iterates_contract_toward_planted_center():
    # exact within-task learners: theta_bar lands near the planted optimum,
    # so the running mean approaches it at the averaged harmonic rate
    dom = ParamDomain(np.zeros(3), 10.0)
    center = np.array([2.0, -1.0, 0.5])
    env = EnvSpec(domain=dom, planted_center=center, similarity_v=0.0,
                  samples_per_task=40, curvature=1.0, sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=25, step_size=0.5, noise_variance_sigma_sq=0.0,
                        clip_bound=1e6)
    phi_init = np.array([9.0, 0.0, 0.0])
    T = 50
    trained = run_meta_training(env, T, (plan,), phi_init, 11)
    start = np.linalg.norm(phi_init - center)
    end = np.linalg.norm(trained.phi_hat[0] - center)
    assert end <= start * (1 + math.log(T)) / T * 2
    assert trained.phi_hat.shape == (1, 3)
    assert trained.surrogate_losses.shape == (1, T)
    assert trained.theta_stars.shape == (T, 3)


def test_meta_training_deterministic():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0]),
                  similarity_v=0.5, samples_per_task=30, curvature=1.0,
                  sample_noise_std=0.1)
    plan = NoisySgdPlan(steps_n=10, step_size=0.2, noise_variance_sigma_sq=0.3,
                        clip_bound=5.0)
    a = run_meta_training(env, 12, (plan,), np.zeros(2), 77)
    b = run_meta_training(env, 12, (plan,), np.zeros(2), 77)
    assert np.array_equal(a.phi_hat, b.phi_hat)
    assert np.array_equal(a.surrogate_losses, b.surrogate_losses)
    c = run_meta_training(env, 12, (plan,), np.zeros(2), 78)
    assert not np.array_equal(a.phi_hat, c.phi_hat)


def test_meta_update_sees_only_private_output(monkeypatch):
    # the state that leaves a task must be a function of the noisy learner's
    # averaged iterate alone; the exact per-task adaptation must not leak in.
    # Each per-task private step call returns one (arms, d) row per arm.
    captured = []
    real_noisy = dpmeta.learners.noisy_sgd_steps

    def spy_noisy(*args, **kwargs):
        out = real_noisy(*args, **kwargs)
        captured.append(np.asarray(out.averaged_iterate).copy())
        return out

    def poisoned_ogd(samples, init, cfg, dom):
        poisoned = dom.center + dom.radius * 0.9 * np.ones(dom.dim) / math.sqrt(dom.dim)
        return dpmeta.learners.LearnerOutput(
            averaged_iterate=poisoned, final_iterate=poisoned)

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_noisy)
    monkeypatch.setattr(dpmeta.learners, "ogd_run", poisoned_ogd)

    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0]),
                  similarity_v=0.3, samples_per_task=20, curvature=1.0,
                  sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=8, step_size=0.2, noise_variance_sigma_sq=0.1,
                        clip_bound=5.0)
    quiet = replace(plan, noise_variance_sigma_sq=0.0)
    trained = run_meta_training(env, 6, (plan, quiet), np.zeros(2), 5)
    assert len(captured) == 6
    assert all(rows.shape == (2, 2) for rows in captured)
    # replay each arm's meta recursion from its captured private outputs only
    for a in range(2):
        replay = new_state(np.zeros(2))
        for t, rows in enumerate(captured):
            assert trained.surrogate_losses[a, t] == surrogate_loss(
                replay.phi_current, rows[a])
            replay = meta_step(replay, rows[a])
        assert np.array_equal(replay.phi_hat(), trained.phi_hat[a])


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_shared_training_equals_separate_passes(family, monkeypatch):
    # training a private arm and its zero-noise twin in one pass must give
    # each arm exactly what training it alone gives; clip bound 0.3 and
    # radius 0.8 make clipping and projection bind on some steps, not all;
    # the in-place forms say whether they rescaled a row
    binds = {"clip_norm_in_place": [], "project_in_place": []}
    for name, calls in binds.items():
        real = getattr(dpmeta.learners, name)

        def spy(v, *args, real=real, calls=calls):
            rescaled = real(v, *args)
            calls.append(rescaled)
            return rescaled

        monkeypatch.setattr(dpmeta.learners, name, spy)
    # every private step call's outputs, one (arms, d) row set per task
    bars = []
    real_noisy = dpmeta.learners.noisy_sgd_steps

    def spy_noisy(*args, **kwargs):
        out = real_noisy(*args, **kwargs)
        bars.append(np.array(out.averaged_iterate, copy=True))
        return out

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_noisy)
    dom = ParamDomain(np.array([0.1, -0.2]), 0.8)
    env = EnvSpec(domain=dom, planted_center=np.array([0.4, -0.2]),
                  similarity_v=0.3, samples_per_task=12, loss_family=family,
                  sample_noise_std=0.5, feature_norm=2.0)
    plan = NoisySgdPlan(steps_n=7, step_size=0.5, noise_variance_sigma_sq=0.2,
                        clip_bound=0.3)
    quiet = replace(plan, noise_variance_sigma_sq=0.0)
    phi_init = np.array([0.7, -0.5])
    shared = run_meta_training(env, 15, (plan, quiet), phi_init, 21)
    shared_bars = np.stack(bars)
    for calls in binds.values():
        assert 0 < sum(calls) < len(calls)
    assert shared_bars.shape == (15, 2, 2)
    for a, arm_plan in enumerate((plan, quiet)):
        bars.clear()
        alone = run_meta_training(env, 15, (arm_plan,), phi_init, 21)
        assert np.array_equal(shared.phi_hat[a], alone.phi_hat[0])
        assert np.array_equal(shared_bars[:, a], np.stack(bars)[:, 0])
        assert np.array_equal(shared.surrogate_losses[a], alone.surrogate_losses[0])
        assert np.array_equal(shared.theta_stars, alone.theta_stars)
    # the noise reaches the private arm only
    assert not np.array_equal(shared.phi_hat[0], shared.phi_hat[1])


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_noisy_arms_share_one_noise_generator(family):
    # the arms of a pass draw each task's indices and noise from one shared
    # generator, so two noisy arms of different variances must still each
    # get exactly the noise that training alone gives them, and the pass
    # must equal the task-by-task reference: generate_losses, then
    # one noisy_sgd_run per arm, each from an identically seeded generator
    dom = ParamDomain(np.array([0.1, -0.2]), 0.8)
    env = EnvSpec(domain=dom, planted_center=np.array([0.4, -0.2]),
                  similarity_v=0.3, samples_per_task=12, loss_family=family,
                  sample_noise_std=0.5, feature_norm=2.0)
    plan = NoisySgdPlan(steps_n=7, step_size=0.5, noise_variance_sigma_sq=0.2,
                        clip_bound=0.3)
    plans = (plan, replace(plan, noise_variance_sigma_sq=0.0),
             replace(plan, noise_variance_sigma_sq=0.05))
    phi_init = np.array([0.7, -0.5])
    shared = run_meta_training(env, 9, plans, phi_init, 21)
    for a, arm_plan in enumerate(plans):
        alone = run_meta_training(env, 9, (arm_plan,), phi_init, 21)
        assert np.array_equal(shared.phi_hat[a], alone.phi_hat[0])
        assert np.array_equal(shared.surrogate_losses[a], alone.surrogate_losses[0])
    assert len({tuple(row) for row in shared.phi_hat}) == 3

    states = [new_state(phi_init) for _ in plans]
    for t in range(9):
        task = sample_task(env, substream(21, "train-task", t))
        samples = generate_losses(task, env, substream(21, "train-losses", t))
        assert np.array_equal(shared.theta_stars[t], task.theta_star)
        for a, arm_plan in enumerate(plans):
            phi = states[a].phi_current
            bar = noisy_sgd_run(samples, phi, arm_plan, dom,
                                substream(21, "train-noise", t)).averaged_iterate
            assert shared.surrogate_losses[a, t] == surrogate_loss(phi, bar)
            states[a] = meta_step(states[a], bar)
    for a, state in enumerate(states):
        assert np.array_equal(shared.phi_hat[a], state.phi_hat())


def test_training_plans_must_agree_on_the_schedule():
    # the arms of one pass share the step schedule and the clip bound and
    # may differ only in noise variance
    env = EnvSpec(domain=ParamDomain(np.zeros(2), 5.0), planted_center=np.zeros(2),
                  similarity_v=0.3, samples_per_task=12, curvature=1.0,
                  sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.5,
                        clip_bound=1.0)
    for field, value in (("steps_n", 5), ("step_size", 0.2), ("clip_bound", 2.0)):
        with pytest.raises(ValueError):
            run_meta_training(env, 2, (plan, replace(plan, **{field: value})),
                              np.zeros(2), 0)
    with pytest.raises(ValueError):
        run_meta_training(env, 2, (), np.zeros(2), 0)
    quiet = replace(plan, noise_variance_sigma_sq=0.0)
    assert run_meta_training(env, 2, (plan, quiet), np.zeros(2), 0).phi_hat.shape == (2, 2)


def test_single_task_phi_hat_is_initializer():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.zeros(2), similarity_v=0.0,
                  samples_per_task=10, curvature=1.0, sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    phi_init = np.array([2.0, 2.0])
    trained = run_meta_training(env, 1, (plan,), phi_init, 3)
    assert np.array_equal(trained.phi_hat, [phi_init])


def test_record_fields_consistent(monkeypatch):
    bars = []
    real_noisy = dpmeta.learners.noisy_sgd_steps

    def spy_noisy(*args, **kwargs):
        out = real_noisy(*args, **kwargs)
        bars.append(np.asarray(out.averaged_iterate)[0].copy())
        return out

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_noisy)
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([0.5, 0.5]),
                  similarity_v=0.2, samples_per_task=15, curvature=2.0,
                  sample_noise_std=0.05)
    plan = NoisySgdPlan(steps_n=6, step_size=0.1, noise_variance_sigma_sq=0.05,
                        clip_bound=5.0)
    trained = run_meta_training(env, 5, (plan,), np.zeros(2), 13)
    # each surrogate scores the task's output against the phi it started from
    state = new_state(np.zeros(2))
    for bar, loss, star in zip(bars, trained.surrogate_losses[0],
                               trained.theta_stars, strict=True):
        assert loss == surrogate_loss(state.phi_current, bar)
        assert dom.contains(star)
        state = meta_step(state, bar)
    assert np.array_equal(trained.phi_hat[0], state.phi_hat())


def test_hindsight_initializer_beats_surrogate_average():
    # running-mean iterates must be competitive with the best fixed
    # initializer in hindsight for the surrogate objective
    rng = np.random.default_rng(41)
    dom = ParamDomain(np.zeros(2), 4.0)
    bars = [rng.normal(size=2) for _ in range(60)]
    state = new_state(np.array([3.0, -2.0]))
    total = 0.0
    for b in bars:
        total += surrogate_loss(state.phi_current, b)
        state = meta_step(state, b)
    best = np.mean(bars, axis=0)
    hindsight = sum(surrogate_loss(best, b) for b in bars)
    T = len(bars)
    D = dom.diameter
    # surrogate is 1-strongly convex; running mean = follow-the-leader, whose
    # average regret decays like (1 + ln T) / T with unit curvature
    slack = (4 * D) ** 2 * (1 + math.log(T)) / (2 * T)
    assert total / T <= hindsight / T + slack
