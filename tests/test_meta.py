import math

import numpy as np
import pytest

import dpmeta.learners
from dpmeta.geometry import ParamDomain
from dpmeta.meta import (MetaState, TaskRecord, meta_step, new_state,
                         run_meta_training, surrogate_loss)
from dpmeta.privacy import NoisySgdPlan
from dpmeta.task_env import EnvSpec


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
    phi_hat, records, state = run_meta_training(env, T, plan, phi_init, 11)
    start = np.linalg.norm(phi_init - center)
    end = np.linalg.norm(phi_hat - center)
    assert end <= start * (1 + math.log(T)) / T * 2
    assert len(records) == T


def test_meta_training_deterministic():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0]),
                  similarity_v=0.5, samples_per_task=30, curvature=1.0,
                  sample_noise_std=0.1)
    plan = NoisySgdPlan(steps_n=10, step_size=0.2, noise_variance_sigma_sq=0.3,
                        clip_bound=5.0)
    a = run_meta_training(env, 12, plan, np.zeros(2), 77)
    b = run_meta_training(env, 12, plan, np.zeros(2), 77)
    assert np.array_equal(a[0], b[0])
    for ra, rb in zip(a[1], b[1]):
        assert np.array_equal(ra.theta_bar, rb.theta_bar)
    c = run_meta_training(env, 12, plan, np.zeros(2), 78)
    assert not np.array_equal(a[0], c[0])


def test_meta_update_sees_only_private_output(monkeypatch):
    # the state that leaves a task must be a function of the noisy learner's
    # averaged iterate alone; the exact per-task adaptation must not leak in
    captured = []
    real_noisy = dpmeta.learners.noisy_sgd_run

    def spy_noisy(*args, **kwargs):
        out = real_noisy(*args, **kwargs)
        captured.append(np.asarray(out.averaged_iterate).copy())
        return out

    def poisoned_ogd(samples, init, cfg, dom):
        poisoned = dom.center + dom.radius * 0.9 * np.ones(dom.dim) / math.sqrt(dom.dim)
        return dpmeta.learners.LearnerOutput(
            averaged_iterate=poisoned, final_iterate=poisoned)

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_run", spy_noisy)
    monkeypatch.setattr(dpmeta.learners, "ogd_run", poisoned_ogd)

    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0]),
                  similarity_v=0.3, samples_per_task=20, curvature=1.0,
                  sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=8, step_size=0.2, noise_variance_sigma_sq=0.1,
                        clip_bound=5.0)
    _, records, state = run_meta_training(env, 6, plan, np.zeros(2), 5)
    # replay the meta recursion from the captured private outputs only
    replay = new_state(np.zeros(2))
    for bar in captured:
        replay = meta_step(replay, bar)
    assert np.array_equal(replay.phi_current, state.phi_current)
    assert np.array_equal(replay.phi_hat(), state.phi_hat())
    for rec, bar in zip(records, captured):
        assert np.array_equal(rec.theta_bar, bar)


def test_single_task_phi_hat_is_initializer():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.zeros(2), similarity_v=0.0,
                  samples_per_task=10, curvature=1.0, sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    phi_init = np.array([2.0, 2.0])
    phi_hat, _, _ = run_meta_training(env, 1, plan, phi_init, 3)
    assert np.array_equal(phi_hat, phi_init)


def test_task_budget_enforced():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.zeros(2), similarity_v=0.0,
                  samples_per_task=10, curvature=1.0, sample_noise_std=0.0,
                  task_budget=4)
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    with pytest.raises(ValueError):
        run_meta_training(env, 5, plan, np.zeros(2), 3)
    # exactly at the budget is fine
    run_meta_training(env, 4, plan, np.zeros(2), 3)


def test_record_fields_consistent():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([0.5, 0.5]),
                  similarity_v=0.2, samples_per_task=15, curvature=2.0,
                  sample_noise_std=0.05)
    plan = NoisySgdPlan(steps_n=6, step_size=0.1, noise_variance_sigma_sq=0.05,
                        clip_bound=5.0)
    _, records, state = run_meta_training(env, 5, plan, np.zeros(2), 13)
    for i, rec in enumerate(records):
        assert rec.task_index == i
        assert rec.surrogate_loss_value == surrogate_loss(rec.phi_used,
                                                          rec.theta_bar)
        assert dom.contains(rec.theta_star)
    assert records[0].phi_used is not records[1].phi_used


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
