import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from dpmeta.geometry import ParamDomain, dist_sq
from dpmeta.learners import (LearnerOutput, OgdConfig, adaptation_step_size,
                             noisy_sgd_run, ogd_run, private_step_scale)
from dpmeta.losses import TaskSamples, quadratic_value
from dpmeta.privacy import NoisySgdPlan, PrivacyParams

DOM = ParamDomain(np.zeros(2), 10.0)


def quad(anchors, curvature=1.0):
    return TaskSamples(np.array(anchors, dtype=float), curvature=curvature)


def test_ogd_minimizer_is_fixed_point():
    # start at the shared anchor: every gradient vanishes, nothing moves
    anchor = np.array([0.5, -0.5])
    samples = quad([anchor] * 10)
    out = ogd_run(samples, anchor, OgdConfig(0.1, 10), DOM)
    assert np.allclose(out.averaged_iterate, anchor, rtol=1e-12)
    assert np.allclose(out.final_iterate, anchor, rtol=1e-12)


def test_ogd_single_loss_average_is_init():
    # the average covers only the points gradients were evaluated at
    init = np.array([2.0, 0.0])
    out = ogd_run(quad([[0.0, 0.0]]), init, OgdConfig(0.5, 1), DOM)
    assert np.array_equal(out.averaged_iterate, init)
    assert np.allclose(out.final_iterate, [1.0, 0.0], rtol=1e-12)


def test_ogd_two_step_hand_rolled():
    dom1 = ParamDomain(np.zeros(1), 10.0)
    out = ogd_run(quad([[0.0], [0.0]]), [1.0], OgdConfig(0.5, 2), dom1)
    # iterates visited: 1.0, then 1 - 0.5*1 = 0.5; average 0.75
    assert np.allclose(out.averaged_iterate, [0.75], rtol=1e-12)
    assert np.allclose(out.final_iterate, [0.25], rtol=1e-12)


def test_ogd_projection_keeps_iterates_feasible():
    # step 0.9 at curvature 5 overshoots the anchor every step; the endpoint of
    # every prefix is that prefix's last iterate, so all of them must be feasible
    dom = ParamDomain(np.zeros(2), 1.0)
    anchors = np.tile([0.9, 0.0], (30, 1))
    for k in range(1, len(anchors) + 1):
        out = ogd_run(quad(anchors[:k], 5.0), [-0.9, 0.1], OgdConfig(0.9, k), dom)
        assert np.linalg.norm(out.final_iterate) <= dom.radius * (1 + 1e-12)
        assert np.linalg.norm(out.averaged_iterate) <= dom.radius * (1 + 1e-12)


def test_ogd_validation():
    with pytest.raises(ValueError):
        ogd_run(quad(np.empty((0, 2))), [0.0, 0.0], OgdConfig(0.1), DOM)
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0]]), [0.0, 0.0],
                OgdConfig(0.1, 5), DOM)  # num_steps mismatch
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0]]), [20.0, 0.0],
                OgdConfig(0.1, 1), DOM)  # init outside
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0]]), [[0.0, 0.0], [20.0, 0.0]],
                OgdConfig(0.1, 1), DOM)  # one init of a batch outside
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0, 0.0]]), [0.0, 0.0],
                OgdConfig(0.1, 1), DOM)  # samples of another dimension
    with pytest.raises(ValueError):
        OgdConfig(0.0)
    with pytest.raises(ValueError):
        OgdConfig(0.1, 0)


def test_noisy_sgd_zero_noise_fixed_point():
    anchor = np.array([1.0, 1.0])
    samples = quad([anchor] * 5)
    plan = NoisySgdPlan(steps_n=4, step_size=0.3, noise_variance_sigma_sq=0.0,
                        clip_bound=10.0)
    out = noisy_sgd_run(samples, anchor, plan, DOM, np.random.default_rng(0))
    assert np.allclose(out.averaged_iterate, anchor, rtol=1e-12)


def test_noisy_sgd_deterministic_given_seed():
    rng = np.random.default_rng(22)
    samples = quad(rng.normal(size=(8, 2)))
    plan = NoisySgdPlan(steps_n=12, step_size=0.2, noise_variance_sigma_sq=0.5,
                        clip_bound=3.0)
    a = noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(99))
    b = noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(99))
    assert np.array_equal(a.averaged_iterate, b.averaged_iterate)
    assert np.array_equal(a.final_iterate, b.final_iterate)


def test_noisy_sgd_zero_noise_matches_plain_sgd_oracle():
    # independently coded projected SGD over a pinned index sequence
    rng = np.random.default_rng(23)
    dom = ParamDomain(np.zeros(3), 1.5)
    for trial in range(5):
        anchors = rng.normal(scale=0.5, size=(10, 3))
        init = rng.normal(scale=0.3, size=3)
        idx = rng.integers(0, 10, size=7)
        plan = NoisySgdPlan(steps_n=7, step_size=0.15,
                            noise_variance_sigma_sq=0.0, clip_bound=2.5)
        out = noisy_sgd_run(quad(anchors, 2.0), init, plan, dom,
                            np.random.default_rng(0), index_sequence=idx)

        theta = init.copy()
        visited = []
        for i in idx:
            visited.append(theta.copy())
            g = 2.0 * (theta - anchors[int(i)])
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
    plan = NoisySgdPlan(steps_n=1, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=2.0)
    out = noisy_sgd_run(quad([[50.0, 0.0]]), [0.0, 0.0], plan, dom,
                        np.random.default_rng(0))
    step_len = np.linalg.norm(out.final_iterate - np.zeros(2))
    assert abs(step_len - 0.1 * 2.0) < 1e-12


def test_noisy_sgd_noise_actually_perturbs():
    samples = quad(np.zeros((4, 2)))
    plan = NoisySgdPlan(steps_n=10, step_size=0.1, noise_variance_sigma_sq=1.0,
                        clip_bound=5.0)
    a = noisy_sgd_run(samples, [1.0, 0.0], plan, DOM, np.random.default_rng(1))
    b = noisy_sgd_run(samples, [1.0, 0.0], plan, DOM, np.random.default_rng(2))
    assert not np.array_equal(a.averaged_iterate, b.averaged_iterate)


def test_noisy_sgd_index_sequence_validation():
    samples = quad(np.zeros((3, 2)))
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[0, 1, 2, 3])  # 3 out of range
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[-1, 0, 1, 2])  # negative
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [[0.0, 0.0]] * 2, plan, DOM,
                      np.random.default_rng(0),
                      index_sequence=[0, 1, 2, 0])  # one column per problem
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [[0.0, 0.0]] * 2, plan, DOM,
                      np.random.default_rng(0))  # one generator per problem


def test_ogd_regret_bound_small():
    # small-scale version of the averaged-iterate suboptimality certificate
    rng = np.random.default_rng(24)
    dom = ParamDomain(np.zeros(3), 1.0)
    G = 2.0 * dom.diameter
    eta = adaptation_step_size(0.5, 2.0, G, 50)
    for _ in range(20):
        star = rng.normal(size=3)
        star = star / np.linalg.norm(star) * rng.uniform(0, 1.0)
        samples = quad(np.stack([np.clip(star + rng.normal(scale=0.2, size=3), -1, 1)
                                 * 0.5 for _ in range(50)]), 2.0)
        init = rng.normal(size=3)
        init = init / np.linalg.norm(init) * rng.uniform(0, 1.0)
        out = ogd_run(samples, init, OgdConfig(eta, 50), dom)
        emp = lambda th: float(np.mean(quadratic_value(th, samples.points, 2.0)))
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


def _batch_and_singles(family, rng, tasks, m, dim, feature_norm=3.0):
    """Samples of `tasks` tasks stacked step-major, plus each task alone."""
    if family == "quadratic":
        points = rng.normal(scale=2.0, size=(m, tasks, dim))
        batch = TaskSamples(points, curvature=1.5)
        singles = [TaskSamples(points[:, t].copy(), curvature=1.5) for t in range(tasks)]
    else:
        raw = rng.normal(size=(m, tasks, dim))
        points = feature_norm * raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        labels = np.where(rng.random((m, tasks)) < 0.5, 1.0, -1.0)
        batch = TaskSamples(points, labels=labels)
        singles = [TaskSamples(points[:, t].copy(), labels=labels[:, t].copy())
                   for t in range(tasks)]
    return batch, singles


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_ogd_batch_matches_batch_of_one_calls(family):
    # 3 inits x 4 tasks in one call give exactly the 12 separate runs, for
    # every prefix of the samples; radius 1.8 and step 0.8 leave some
    # problems on the boundary and others inside after the same step
    rng = np.random.default_rng(31)
    dom = ParamDomain(np.array([0.2, -0.1, 0.0]), 1.8)
    batch, singles = _batch_and_singles(family, rng, 4, 25, 3)
    inits = dom.center + 0.6 * rng.uniform(-1, 1, size=(3, 1, 3))
    projected = 0
    for k in range(1, 26):
        prefix = batch.take(slice(k))
        out = ogd_run(prefix, inits, OgdConfig(0.8, k), dom)
        assert out.averaged_iterate.shape == out.final_iterate.shape == (3, 4, 3)
        for a in range(3):
            for t in range(4):
                one = ogd_run(singles[t].take(slice(k)), inits[a, 0],
                              OgdConfig(0.8, k), dom)
                assert np.array_equal(out.averaged_iterate[a, t], one.averaged_iterate)
                assert np.array_equal(out.final_iterate[a, t], one.final_iterate)
                projected += np.isclose(np.linalg.norm(one.final_iterate - dom.center),
                                        dom.radius)
    assert 0 < projected < 25 * 12


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_noisy_sgd_batch_matches_batch_of_one_calls(family):
    # each problem draws indices then noise from its own generator, so a
    # batch of 2 inits x 3 tasks equals 6 separate runs bit for bit; clip
    # bound 0.5 binds on most gradients and radius 0.7 projects noisy steps
    rng = np.random.default_rng(32)
    dom = ParamDomain(np.zeros(2), 0.7)
    batch, singles = _batch_and_singles(family, rng, 3, 9, 2)
    inits = 0.4 * rng.uniform(-1, 1, size=(2, 3, 2))
    plan = NoisySgdPlan(steps_n=14, step_size=0.6, noise_variance_sigma_sq=0.3,
                        clip_bound=0.5)
    seeds = [[100 * a + t for t in range(3)] for a in range(2)]
    out = noisy_sgd_run(batch, inits, plan, dom,
                        [np.random.default_rng(s) for row in seeds for s in row])
    assert out.averaged_iterate.shape == (2, 3, 2)
    on_boundary = 0  # problems whose last step was projected
    for a in range(2):
        for t in range(3):
            one = noisy_sgd_run(singles[t], inits[a, t], plan, dom,
                                np.random.default_rng(seeds[a][t]))
            assert np.array_equal(out.averaged_iterate[a, t], one.averaged_iterate)
            assert np.array_equal(out.final_iterate[a, t], one.final_iterate)
            on_boundary += np.isclose(np.linalg.norm(one.final_iterate), 0.7)
    assert 0 < on_boundary < 6

    # a pinned index sequence of shape (steps, *problems) does the same
    idx = rng.integers(0, 9, size=(14, 2, 3))
    quiet = NoisySgdPlan(steps_n=14, step_size=0.6, noise_variance_sigma_sq=0.0,
                         clip_bound=0.5)
    out = noisy_sgd_run(batch, inits, quiet, dom,
                        [np.random.default_rng(0)] * 6, index_sequence=idx)
    for a in range(2):
        for t in range(3):
            one = noisy_sgd_run(singles[t], inits[a, t], quiet, dom,
                                np.random.default_rng(0), index_sequence=idx[:, a, t])
            assert np.array_equal(out.final_iterate[a, t], one.final_iterate)


def _oracle_ogd(points, labels, curvature, init, eta, center, radius):
    """Projected OGD on one task, coded from the definitions with scalars."""
    theta = [float(v) for v in init]
    visited = []
    for j, x in enumerate(points):
        visited.append(list(theta))
        if labels is None:
            g = [curvature * (th - xi) for th, xi in zip(theta, x)]
        else:
            y = float(labels[j])
            margin = y * sum(xi * th for xi, th in zip(x, theta))
            w = 1.0 / (1.0 + math.exp(margin))
            g = [-y * w * xi for xi in x]
        theta = [th - eta * gi for th, gi in zip(theta, g)]
        off = [th - c for th, c in zip(theta, center)]
        norm = math.sqrt(sum(o * o for o in off))
        if norm > radius:
            theta = [c + o * radius / norm for c, o in zip(center, off)]
    avg = [sum(col) / len(visited) for col in zip(*visited)]
    return np.array(avg), np.array(theta)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["quadratic", "logistic"]),
       dim=st.integers(1, 4), m=st.integers(1, 12), tasks=st.integers(1, 3),
       arms=st.integers(1, 3), radius=st.floats(0.1, 3.0),
       eta=st.floats(0.01, 2.0))
def test_batched_ogd_matches_independent_loop(seed, family, dim, m, tasks, arms,
                                              radius, eta):
    rng = np.random.default_rng(seed)
    center = rng.normal(size=dim)
    dom = ParamDomain(center, radius)
    batch, singles = _batch_and_singles(family, rng, tasks, m, dim, feature_norm=2.0)
    offsets = rng.normal(size=(arms, 1, dim))
    offsets *= radius * rng.uniform(0, 1, size=(arms, 1, 1)) / np.linalg.norm(
        offsets, axis=-1, keepdims=True)
    inits = center + offsets
    out = ogd_run(batch, inits, OgdConfig(eta, m), dom)
    for a in range(arms):
        for t in range(tasks):
            avg, final = _oracle_ogd(singles[t].points, singles[t].labels,
                                     singles[t].curvature, inits[a, 0], eta,
                                     center, radius)
            assert np.allclose(out.averaged_iterate[a, t], avg, rtol=1e-12, atol=1e-15)
            assert np.allclose(out.final_iterate[a, t], final, rtol=1e-12, atol=1e-15)
