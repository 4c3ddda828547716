import math

import numpy as np
import pytest

from dpmeta.geometry import ParamDomain, dist_sq
from dpmeta.learners import (LearnerOutput, OgdConfig, adaptation_step_size,
                             noisy_sgd_run, ogd_run, private_step_scale)
from dpmeta.losses import make_quadratic
from dpmeta.privacy import NoisySgdPlan, PrivacyParams

DOM = ParamDomain(np.zeros(2), 10.0)


def test_ogd_minimizer_is_fixed_point():
    # start at the shared anchor: every gradient vanishes, nothing moves
    anchor = np.array([0.5, -0.5])
    losses = [make_quadratic(anchor, 1.0) for _ in range(10)]
    out = ogd_run(losses, anchor, OgdConfig(0.1, 10), DOM)
    assert np.allclose(out.averaged_iterate, anchor, rtol=1e-12)
    assert np.allclose(out.final_iterate, anchor, rtol=1e-12)


def test_ogd_single_loss_average_is_init():
    # the average covers only the points gradients were evaluated at
    init = np.array([2.0, 0.0])
    out = ogd_run([make_quadratic([0.0, 0.0], 1.0)], init, OgdConfig(0.5, 1), DOM)
    assert np.array_equal(out.averaged_iterate, init)
    assert np.allclose(out.final_iterate, [1.0, 0.0], rtol=1e-12)


def test_ogd_two_step_hand_rolled():
    dom1 = ParamDomain(np.zeros(1), 10.0)
    losses = [make_quadratic([0.0], 1.0), make_quadratic([0.0], 1.0)]
    out = ogd_run(losses, [1.0], OgdConfig(0.5, 2), dom1)
    # iterates visited: 1.0, then 1 - 0.5*1 = 0.5; average 0.75
    assert np.allclose(out.averaged_iterate, [0.75], rtol=1e-12)
    assert np.allclose(out.final_iterate, [0.25], rtol=1e-12)


def test_ogd_projection_keeps_iterates_feasible():
    # step 0.9 at curvature 5 overshoots the anchor every step; the endpoint of
    # every prefix is that prefix's last iterate, so all of them must be feasible
    dom = ParamDomain(np.zeros(2), 1.0)
    losses = [make_quadratic([0.9, 0.0], 5.0) for _ in range(30)]
    for k in range(1, len(losses) + 1):
        out = ogd_run(losses[:k], [-0.9, 0.1], OgdConfig(0.9, k), dom)
        assert np.linalg.norm(out.final_iterate) <= dom.radius * (1 + 1e-12)
        assert np.linalg.norm(out.averaged_iterate) <= dom.radius * (1 + 1e-12)


def test_ogd_validation():
    with pytest.raises(ValueError):
        ogd_run([], [0.0, 0.0], OgdConfig(0.1), DOM)
    with pytest.raises(ValueError):
        ogd_run([make_quadratic([0.0, 0.0], 1.0)], [0.0, 0.0],
                OgdConfig(0.1, 5), DOM)  # num_steps mismatch
    with pytest.raises(ValueError):
        ogd_run([make_quadratic([0.0, 0.0], 1.0)], [20.0, 0.0],
                OgdConfig(0.1, 1), DOM)  # init outside
    with pytest.raises(ValueError):
        OgdConfig(0.0)
    with pytest.raises(ValueError):
        OgdConfig(0.1, 0)


def test_noisy_sgd_zero_noise_fixed_point():
    anchor = np.array([1.0, 1.0])
    losses = [make_quadratic(anchor, 1.0) for _ in range(5)]
    plan = NoisySgdPlan(steps_n=4, step_size=0.3, noise_variance_sigma_sq=0.0,
                        clip_bound=10.0)
    out = noisy_sgd_run(losses, anchor, plan, DOM, np.random.default_rng(0))
    assert np.allclose(out.averaged_iterate, anchor, rtol=1e-12)


def test_noisy_sgd_deterministic_given_seed():
    rng = np.random.default_rng(22)
    losses = [make_quadratic(rng.normal(size=2), 1.0) for _ in range(8)]
    plan = NoisySgdPlan(steps_n=12, step_size=0.2, noise_variance_sigma_sq=0.5,
                        clip_bound=3.0)
    a = noisy_sgd_run(losses, [0.0, 0.0], plan, DOM, np.random.default_rng(99))
    b = noisy_sgd_run(losses, [0.0, 0.0], plan, DOM, np.random.default_rng(99))
    assert np.array_equal(a.averaged_iterate, b.averaged_iterate)
    assert np.array_equal(a.final_iterate, b.final_iterate)


def test_noisy_sgd_zero_noise_matches_plain_sgd_oracle():
    # independently coded projected SGD over a pinned index sequence
    rng = np.random.default_rng(23)
    dom = ParamDomain(np.zeros(3), 1.5)
    for trial in range(5):
        losses = [make_quadratic(rng.normal(scale=0.5, size=3), 2.0)
                  for _ in range(10)]
        init = rng.normal(scale=0.3, size=3)
        idx = rng.integers(0, 10, size=7)
        plan = NoisySgdPlan(steps_n=7, step_size=0.15,
                            noise_variance_sigma_sq=0.0, clip_bound=2.5)
        out = noisy_sgd_run(losses, init, plan, dom, np.random.default_rng(0),
                            index_sequence=idx)

        theta = init.copy()
        visited = []
        for i in idx:
            visited.append(theta.copy())
            g = 2.0 * (theta - losses[int(i)].anchor)
            norm = np.linalg.norm(g)
            if norm > 2.5:
                g = g * (2.5 / norm)
            theta = theta - 0.15 * g
            if np.linalg.norm(theta) > 1.5:
                theta = theta * (1.5 / np.linalg.norm(theta))
        oracle_avg = np.mean(visited, axis=0)
        assert np.allclose(out.averaged_iterate, oracle_avg, rtol=1e-12, atol=1e-15)
        assert np.allclose(out.final_iterate, theta, rtol=1e-12, atol=1e-15)


def test_noisy_sgd_clipping_binds_exactly():
    # far anchor makes the raw gradient exceed the clip bound; with zero noise
    # and no projection the realized step length is step_size * clip_bound
    dom = ParamDomain(np.zeros(2), 100.0)
    loss = make_quadratic([50.0, 0.0], 1.0)
    plan = NoisySgdPlan(steps_n=1, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=2.0)
    out = noisy_sgd_run([loss], [0.0, 0.0], plan, dom, np.random.default_rng(0))
    step_len = np.linalg.norm(out.final_iterate - np.zeros(2))
    assert abs(step_len - 0.1 * 2.0) < 1e-12


def test_noisy_sgd_noise_actually_perturbs():
    losses = [make_quadratic([0.0, 0.0], 1.0) for _ in range(4)]
    plan = NoisySgdPlan(steps_n=10, step_size=0.1, noise_variance_sigma_sq=1.0,
                        clip_bound=5.0)
    a = noisy_sgd_run(losses, [1.0, 0.0], plan, DOM, np.random.default_rng(1))
    b = noisy_sgd_run(losses, [1.0, 0.0], plan, DOM, np.random.default_rng(2))
    assert not np.array_equal(a.averaged_iterate, b.averaged_iterate)


def test_noisy_sgd_index_sequence_validation():
    losses = [make_quadratic([0.0, 0.0], 1.0)] * 3
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    with pytest.raises(ValueError):
        noisy_sgd_run(losses, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        noisy_sgd_run(losses, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[0, 1, 2, 3])  # 3 out of range


def test_ogd_regret_bound_small():
    # small-scale version of the averaged-iterate suboptimality certificate
    rng = np.random.default_rng(24)
    dom = ParamDomain(np.zeros(3), 1.0)
    G = 2.0 * dom.diameter
    eta = adaptation_step_size(0.5, 2.0, G, 50)
    for _ in range(20):
        star = rng.normal(size=3)
        star = star / np.linalg.norm(star) * rng.uniform(0, 1.0)
        losses = [make_quadratic(np.clip(star + rng.normal(scale=0.2, size=3), -1, 1)
                                 * 0.5, 2.0) for _ in range(50)]
        init = rng.normal(size=3)
        init = init / np.linalg.norm(init) * rng.uniform(0, 1.0)
        out = ogd_run(losses, init, OgdConfig(eta, 50), dom)
        emp = lambda th: float(np.mean([l.value(th) for l in losses]))
        sub = emp(out.averaged_iterate) - emp(star)
        bound = dist_sq(init, star) / (2 * eta * 50) + eta * G**2 / 2
        assert sub <= bound


def test_private_step_scale_frozen_examples():
    priv = PrivacyParams(1.0, 1e-5)
    assert abs(private_step_scale(1.0, 1.0, 10, 800, priv)
               - 4.242640687119285) < 1e-12
    tight = PrivacyParams(0.01, 1e-5)
    assert abs(private_step_scale(1.0, 1.0, 10, 800, tight)
               - 160.94745197170104) < 1e-10
    # scale is inversely proportional to the growth constant
    assert abs(private_step_scale(1.0, 2.0, 10, 800, priv)
               - 4.242640687119285 / 2) < 1e-12


def test_private_step_scale_variants():
    priv = PrivacyParams(1.0, 1e-5)
    # with G = 1 the variants coincide; with G != 1 they differ in the
    # statistical branch
    assert (private_step_scale(1.0, 1.0, 10, 800, priv, "sqrt_m")
            == private_step_scale(1.0, 1.0, 10, 800, priv, "g_sqrt_m"))
    a = private_step_scale(4.0, 1.0, 2, 10000, priv, "sqrt_m")
    b = private_step_scale(4.0, 1.0, 2, 10000, priv, "g_sqrt_m")
    assert a == 4 * b  # statistical branch dominates at large m, small d
    with pytest.raises(ValueError):
        private_step_scale(1.0, 1.0, 10, 800, priv, "bogus")


def test_adaptation_step_size_frozen_examples():
    assert adaptation_step_size(0.5, 1.0, 1.0, 100) == 0.06
    assert adaptation_step_size(0.0, 1.0, 1.0, 100) == 0.01
    assert abs(adaptation_step_size(0.5, 2.0, 1.0, 100) - 0.055) < 1e-15
    # eta scales inversely with G
    assert abs(adaptation_step_size(0.5, 1.0, 2.0, 100) - 0.03) < 1e-15
    with pytest.raises(ValueError):
        adaptation_step_size(-0.1, 1.0, 1.0, 100)
