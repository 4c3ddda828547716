import math

import numpy as np
import pytest

from dpmeta.privacy import (NoisySgdPlan, PrivacyParams, group_dp, make_plan,
                            noise_variance, sample_step_noise, step_budget)


def test_step_budget_frozen_examples():
    assert step_budget(800, PrivacyParams(1.0, 1e-5), 10) == 100
    assert step_budget(800, PrivacyParams(0.25, 1e-5), 10) == 10
    # tiny m: the sample cap bites and the floor keeps n at 1
    assert step_budget(8, PrivacyParams(10.0, 0.1), 1) == 1
    # the floor also applies when the privacy cap would drop below 1
    assert step_budget(100, PrivacyParams(0.01, 1e-5), 10) == 1


def test_step_budget_monotonicity():
    deltas = PrivacyParams(1.0, 1e-5)
    grid_m = [50, 100, 400, 800, 3200]
    for a, b in zip(grid_m, grid_m[1:]):
        assert step_budget(a, deltas, 10) <= step_budget(b, deltas, 10)
    grid_eps = [0.05, 0.1, 0.5, 1.0, 4.0]
    for a, b in zip(grid_eps, grid_eps[1:]):
        assert (step_budget(800, PrivacyParams(a, 1e-5), 10)
                <= step_budget(800, PrivacyParams(b, 1e-5), 10))
    grid_d = [1, 2, 5, 20, 100]
    for a, b in zip(grid_d, grid_d[1:]):
        assert (step_budget(800, deltas, a)
                >= step_budget(800, deltas, b))


def test_noise_variance_frozen_examples():
    sigma_sq = noise_variance(100, 800, 1.0, PrivacyParams(1.0, 1e-5))
    assert abs(sigma_sq - 0.014391156831212785) < 1e-15
    assert noise_variance(10, 100, 0.0, PrivacyParams(1.0, 1e-5)) == 0.0
    # ln(1/delta) = 1 at delta = 1/e
    assert abs(noise_variance(1, 1, 1.0, PrivacyParams(1.0, math.exp(-1))) - 8.0) < 1e-12


def test_noise_variance_scaling():
    priv1 = PrivacyParams(1.0, 1e-5)
    priv2 = PrivacyParams(2.0, 1e-5)
    a = noise_variance(50, 400, 1.5, priv1)
    b = noise_variance(50, 400, 1.5, priv2)
    assert abs(a / b - 4.0) < 1e-12  # exactly 1/eps^2
    assert noise_variance(100, 400, 1.5, priv1) == 2 * a  # linear in n


def test_group_dp_frozen_examples():
    eps, delta = group_dp(PrivacyParams(1.0, 1e-6, group_size=3))
    assert eps == 3.0
    assert abs(delta - 2.2167168296791948e-05) < 1e-15
    eps2, delta2 = group_dp(PrivacyParams(0.5, 1e-6, group_size=3))
    assert eps2 == 1.5
    assert abs(delta2 - 8.154845485377135e-06) < 1e-16
    # k = 1 is the identity
    eps1, delta1 = group_dp(PrivacyParams(0.7, 1e-4))
    assert eps1 == 0.7 and delta1 == 1e-4


def test_group_dp_vacuous_warning():
    with pytest.warns(RuntimeWarning):
        group_dp(PrivacyParams(5.0, 0.5, group_size=10))


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(0.0, 1e-5)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 0.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1e-5, group_size=0)


def test_plan_validation():
    with pytest.raises(ValueError):
        NoisySgdPlan(0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        NoisySgdPlan(10, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        NoisySgdPlan(10, 0.1, -1.0, 1.0)
    with pytest.raises(ValueError):
        NoisySgdPlan(10, 0.1, 0.0, 0.0)


def test_make_plan_consistency():
    priv = PrivacyParams(1.0, 1e-5)
    plan = make_plan(800, priv, 10, 1.0, 4.242640687119285)
    assert plan.steps_n == step_budget(800, priv, 10)
    # the plan's variance reproduces the closed form exactly
    assert plan.noise_variance_sigma_sq == noise_variance(plan.steps_n, 800, 1.0, priv)
    assert plan.step_size == 4.242640687119285 / (1.0 * math.sqrt(plan.steps_n))
    assert plan.clip_bound == 1.0


def test_sample_step_noise_moments():
    rng = np.random.default_rng(12)
    sigma_sq = 0.37
    draws = sample_step_noise(rng, 8, sigma_sq, count=20000)
    assert draws.shape == (20000, 8)
    assert np.all(np.abs(draws.var(axis=0, ddof=1) / sigma_sq - 1) < 0.05)
    assert abs(draws.mean()) < 4 * math.sqrt(sigma_sq) / math.sqrt(20000 * 8)


def test_sample_step_noise_zero_variance_consumes_no_randomness():
    rng1 = np.random.default_rng(13)
    rng2 = np.random.default_rng(13)
    z = sample_step_noise(rng1, 4, 0.0, count=5)
    assert np.array_equal(z, np.zeros((5, 4)))
    # stream untouched: both generators continue identically
    assert np.array_equal(rng1.normal(size=3), rng2.normal(size=3))
