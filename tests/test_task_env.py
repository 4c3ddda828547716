import math

import numpy as np
import pytest

from dpmeta.geometry import ParamDomain
from dpmeta.task_env import (EnvSpec, derive_seed, empirical_task_variance,
                             generate_losses, logistic_risk_gap,
                             population_risk_gap, sample_task, substream)

BIG_DOM = ParamDomain(np.zeros(4), 50.0)


def quad_env(**overrides):
    base = dict(domain=BIG_DOM, planted_center=np.zeros(4), similarity_v=1.0,
                samples_per_task=20, curvature=1.0, sample_noise_std=0.0)
    base.update(overrides)
    return EnvSpec(**base)


def test_zero_similarity_pins_minimizer():
    env = quad_env(similarity_v=0.0, planted_center=np.array([1.0, 2.0, 0.0, 0.0]))
    for seed in range(5):
        task = sample_task(env, substream(seed, "t"))
        assert np.array_equal(task.theta_star, [1.0, 2.0, 0.0, 0.0])


def test_stream_layout_independent_of_similarity():
    # the task draw consumes the same randomness whether or not V is zero,
    # so downstream draws stay aligned across V values
    rng_a = substream(123, "layout")
    rng_b = substream(123, "layout")
    sample_task(quad_env(similarity_v=0.0), rng_a)
    sample_task(quad_env(similarity_v=1.0), rng_b)
    assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)


def test_dispersion_matches_similarity_squared():
    v = 1.5
    env = quad_env(similarity_v=v)
    rng = substream(7, "dispersion")
    draws = [sample_task(env, rng).theta_star for _ in range(10000)]
    realized = empirical_task_variance(draws, env.planted_center)
    # E||theta* - center||^2 = V^2; radius 50 makes projection irrelevant
    se = math.sqrt(2.0 / env.dim) * v**2 / math.sqrt(len(draws))
    assert abs(realized - v**2) < 5 * se


def test_sample_task_respects_domain():
    dom = ParamDomain(np.zeros(2), 1.0)
    env = EnvSpec(domain=dom, planted_center=np.array([0.9, 0.0]),
                  similarity_v=1.0, samples_per_task=5)
    rng = substream(3, "proj")
    for _ in range(200):
        assert dom.contains(sample_task(env, rng).theta_star)


def test_noiseless_anchors_equal_minimizer():
    env = quad_env(similarity_v=0.5, samples_per_task=8)
    task = sample_task(env, substream(1, "a"))
    samples = generate_losses(task, env, substream(1, "b"))
    assert samples.points.shape == (8, 4)
    for anchor in samples.points:
        assert np.array_equal(anchor, task.theta_star)
    assert samples.curvature == env.curvature


def test_noisy_anchors_center_on_minimizer():
    env = quad_env(similarity_v=0.0, samples_per_task=4000, sample_noise_std=0.3)
    task = sample_task(env, substream(2, "a"))
    samples = generate_losses(task, env, substream(2, "b"))
    anchors = samples.points
    mean_anchor = anchors.mean(axis=0)
    se = 0.3 / math.sqrt(4000)
    assert np.all(np.abs(mean_anchor - task.theta_star) < 5 * se)
    # gradient of the empirical loss vanishes exactly at the mean anchor
    grad_sum = sum(samples.grad(mean_anchor, j) for j in range(samples.count))
    assert np.max(np.abs(grad_sum)) < 1e-9
    assert abs(anchors.std() - 0.3) < 0.02


def test_losses_deterministic_per_stream():
    env = quad_env(sample_noise_std=0.2)
    task = sample_task(env, substream(9, "t"))
    a = generate_losses(task, env, substream(9, "l"))
    b = generate_losses(task, env, substream(9, "l"))
    for la, lb in zip(a.points, b.points):
        assert np.array_equal(la, lb)
    c = generate_losses(task, env, substream(10, "l"))
    assert not np.array_equal(a.points[0], c.points[0])


def test_quadratic_risk_gap_closed_form():
    env = quad_env(similarity_v=0.0, curvature=2.0,
                   planted_center=np.array([1.0, 0.0, 0.0, 0.0]))
    task = sample_task(env, substream(0, "t"))
    assert population_risk_gap(task, task.theta_star) == 0.0
    gap = population_risk_gap(task, np.array([3.0, 0.0, 0.0, 0.0]))
    assert abs(gap - 0.5 * 2.0 * 4.0) < 1e-12


def test_logistic_generation_shape():
    dom = ParamDomain(np.zeros(3), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0, 0.0]),
                  similarity_v=0.2, samples_per_task=500,
                  loss_family="logistic", feature_norm=2.5)
    task = sample_task(env, substream(4, "t"))
    samples = generate_losses(task, env, substream(4, "l"))
    assert samples.points.shape == (500, 3)
    assert samples.labels.shape == (500,)
    labels = set()
    for feature, label in zip(samples.points, samples.labels):
        assert abs(np.linalg.norm(feature) - 2.5) < 1e-12
        labels.add(label)
    assert labels == {1.0, -1.0}


def test_logistic_labels_follow_model():
    # along a strong minimizer, positive-margin features should mostly get +1
    dom = ParamDomain(np.zeros(2), 3.0)
    env = EnvSpec(domain=dom, planted_center=np.array([3.0, 0.0]),
                  similarity_v=0.0, samples_per_task=4000,
                  loss_family="logistic", feature_norm=3.0)
    task = sample_task(env, substream(5, "t"))
    samples = generate_losses(task, env, substream(5, "l"))
    margins = np.array([label * float(feature @ task.theta_star)
                        for feature, label in zip(samples.points, samples.labels)])
    # mean of label*margin is positive and matches E[tanh(|margin|/2)|margin|]
    # well away from zero
    assert margins.mean() > 1.0


def test_logistic_risk_gap_paired_zero_at_optimum():
    dom = ParamDomain(np.zeros(2), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 1.0]),
                  similarity_v=0.0, samples_per_task=5,
                  loss_family="logistic")
    task = sample_task(env, substream(6, "t"))
    est, se = logistic_risk_gap(task, task.theta_star, 100, substream(6, "mc"))
    assert est == 0.0
    assert se == 0.0
    est2, se2 = logistic_risk_gap(task, np.array([0.0, 0.0]), 20000,
                                  substream(6, "mc2"))
    assert est2 > 0.0
    assert se2 > 0.0
    # a 20k-sample estimate should be a few standard errors above zero
    assert est2 > 2 * se2


def test_risk_gap_batch_equals_separate_calls():
    # scoring several points against one draw gives each point exactly what a
    # separate call with an identically seeded generator gives it
    dom = ParamDomain(np.zeros(3), 2.0)
    rng = substream(8, "points")
    thetas = rng.uniform(-1, 1, size=(2, 3, 3))
    for family in ("quadratic", "logistic"):
        env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0, 0.0]),
                      similarity_v=0.3, samples_per_task=5, loss_family=family)
        task = sample_task(env, substream(8, "t"))
        mc = dict(mc_samples=500) if family == "logistic" else {}
        batch = population_risk_gap(task, thetas, rng=substream(8, "mc"), **mc)
        assert batch.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one = population_risk_gap(task, thetas[i, j],
                                          rng=substream(8, "mc"), **mc)
                assert batch[i, j] == one
    est, se = logistic_risk_gap(task, thetas, 500, substream(8, "mc"))
    assert est.shape == se.shape == (2, 3)
    assert se[1, 2] == logistic_risk_gap(task, thetas[1, 2], 500, substream(8, "mc"))[1]


def test_logistic_gap_needs_mc_arguments():
    dom = ParamDomain(np.zeros(2), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.zeros(2), similarity_v=0.0,
                  samples_per_task=5, loss_family="logistic")
    task = sample_task(env, substream(0, "t"))
    with pytest.raises(ValueError):
        population_risk_gap(task, np.zeros(2))
    with pytest.raises(ValueError):
        logistic_risk_gap(task, np.zeros(2), 1, substream(0, "mc"))


def test_empirical_task_variance_examples():
    stars = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    assert empirical_task_variance(stars, np.zeros(2)) == 1.0
    assert empirical_task_variance(stars, np.array([1.0, 0.0])) == 2.0
    with pytest.raises(ValueError):
        empirical_task_variance([], np.zeros(2))


def test_substreams_stable_and_distinct():
    a = substream(42, "train-task", 3).integers(0, 2**63)
    b = substream(42, "train-task", 3).integers(0, 2**63)
    assert a == b
    others = {
        substream(42, "train-task", 4).integers(0, 2**63),
        substream(42, "train-losses", 3).integers(0, 2**63),
        substream(43, "train-task", 3).integers(0, 2**63),
    }
    assert a not in others
    assert len(others) == 3


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(42, "sweep", "V", "0.5")
    assert s1 == derive_seed(42, "sweep", "V", "0.5")
    assert 0 <= s1 < 2**64
    assert s1 != derive_seed(42, "sweep", "V", "1.0")
    assert s1 != derive_seed(43, "sweep", "V", "0.5")


def test_env_spec_validation():
    with pytest.raises(ValueError):
        quad_env(similarity_v=-0.5)
    with pytest.raises(ValueError):
        quad_env(similarity_v=60.0)  # exceeds radius
    with pytest.raises(ValueError):
        quad_env(samples_per_task=0)
    with pytest.raises(ValueError):
        quad_env(curvature=0.0)
    with pytest.raises(ValueError):
        quad_env(sample_noise_std=-0.1)
    with pytest.raises(ValueError):
        quad_env(loss_family="linear")
    with pytest.raises(ValueError):
        quad_env(planted_center=np.full(4, 40.0))  # norm 80 > radius 50
    with pytest.raises(ValueError):
        quad_env(task_budget=-1)
