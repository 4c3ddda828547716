import math

import numpy as np
import pytest

from dpmeta.calibration import (Ball, Environment, adaptation_step_size,
                                certify_smoothness, logistic_regularity,
                                private_step_scale, quadratic_regularity)
from dpmeta.learners import OgdConfig
from dpmeta.losses import TaskSamples, finite_diff_check
from dpmeta.meta import run_meta_training
from dpmeta.privacy import (NoisySgdPlan, PrivacyParams, group_dp, make_plan,
                            noise_variance, sample_step_noise, step_budget)
from dpmeta.task_env import population_risk_gap, substreams


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


def _first_substream(count):
    return next(substreams(3, "tag", count=count))


_DOM = Ball((0.0, 0.0), 1.0)
_PRIV = PrivacyParams(1.0, 1e-5)
_ENV = Environment(_DOM, (0.0, 0.0), 0.5, 10, loss_family="logistic")
# each site's callable, good keyword arguments, and the rule of each checked
# argument: ">" or ">=" 0 for finite scalars, the least value for counts
_SCALAR_SITES = [
    (make_plan, dict(m=800, privacy=_PRIV, dim=2, clip_bound=1.0, step_scale=1.0),
     {"clip_bound": ">", "step_scale": ">"}),
    (quadratic_regularity, dict(curvature=1.0, dom=_DOM), {"curvature": ">"}),
    (logistic_regularity, dict(feature_norm=1.0, growth_alpha=1.0), {"feature_norm": ">"}),
    (certify_smoothness, dict(profile=quadratic_regularity(1.0, _DOM), dom=_DOM, m=800,
                              privacy=_PRIV, n=10), {"m": 1, "n": 1}),
    (private_step_scale, dict(lipschitz_g=1.0, growth_alpha=1.0, dim=2, m=800,
                              privacy=_PRIV),
     {"lipschitz_g": ">", "growth_alpha": ">", "m": 1, "dim": 1}),
    (adaptation_step_size, dict(similarity_v=0.5, growth_alpha=1.0, lipschitz_g=1.0, m=800),
     {"similarity_v": ">=", "growth_alpha": ">", "lipschitz_g": ">"}),
    (OgdConfig, dict(step_size=0.1, num_steps=5), {"step_size": ">", "num_steps": 1}),
    (TaskSamples, dict(points=np.zeros((3, 2)), curvature=1.0), {"curvature": ">"}),
    (finite_diff_check, dict(value=np.sum, grad=np.ones_like, theta=np.zeros(2), step=1e-6),
     {"step": ">"}),
    (sample_step_noise, dict(rng=np.random.default_rng(0), dim=2, sigma_sq=1.0, count=3),
     {"dim": 1, "sigma_sq": ">=", "count": 0}),
    (run_meta_training, dict(env=_ENV, num_tasks=2, plans=(NoisySgdPlan(2, 0.1, 0.0, 1.0),),
                             phi_init=np.zeros(2), master_seed=0), {"num_tasks": 1}),
    (_first_substream, dict(count=2), {"count": 0}),
    (population_risk_gap, dict(spec=_ENV, theta_stars=np.zeros((1, 2)), theta=np.zeros((1, 2)),
                               mc_samples=4, rng=np.random.default_rng(0)), {"mc_samples": 2}),
]
# an int too large for a float is no finite scalar, of either sign
_HUGE = {10**400: "10**400", -10**400: "-10**400"}
_BAD = {">": (0.0, -1.0, *_HUGE), ">=": (-1.0, *_HUGE), 0: (-1, 2.5), 1: (0, -1, 2.5),
        2: (1, 0, -1, 2.5)}


@pytest.mark.parametrize("site, name, bad", [
    pytest.param(site, name, bad, id=f"{site[0].__name__}-{name}-{_HUGE.get(bad, bad)}")
    for site in _SCALAR_SITES for name, rule in site[2].items()
    for bad in (math.nan, math.inf, -math.inf) + _BAD[rule]])
def test_scalar_checks_refuse_bad_values_with_one_rule(site, name, bad):
    # every count and finite-scalar argument goes through calibration's
    # _count or _finite: NaN, infinity and ints past the float range raise
    # the same ValueError naming the argument as an out-of-range value,
    # never OverflowError or a result
    fn, good, _ = site
    with pytest.raises(ValueError, match=f"^{name} must be (finite and|an integer >=)"):
        fn(**good | {name: bad})
