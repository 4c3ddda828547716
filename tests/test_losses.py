import math

import numpy as np
import pytest

from dpmeta.geometry import ParamDomain
from dpmeta.losses import (RegularityProfile, TaskSamples, certify_smoothness,
                           finite_diff_check, logistic_grad,
                           logistic_regularity, logistic_value, quadratic_grad,
                           quadratic_regularity, quadratic_value,
                           smoothness_ceiling)
from dpmeta.privacy import PrivacyParams


def test_quadratic_frozen_examples():
    anchor = np.array([1.0, 0.0])
    assert quadratic_value([0.0, 0.0], anchor, 2.0) == 1.0
    assert np.allclose(quadratic_grad([0.0, 0.0], anchor, 2.0), [-2.0, 0.0])
    assert quadratic_value([1.0, 0.0], anchor, 2.0) == 0.0
    assert np.array_equal(quadratic_grad([1.0, 0.0], anchor, 2.0), [0.0, 0.0])


def test_logistic_frozen_examples():
    feature = np.array([1.0])
    assert abs(logistic_value([0.0], feature, 1.0) - math.log(2.0)) < 1e-15
    assert abs(logistic_grad([0.0], feature, 1.0)[0] - (-0.5)) < 1e-15
    assert abs(logistic_value([10.0], feature, 1.0) - 4.539889921686465e-05) < 1e-18
    assert abs(logistic_grad([0.0], feature, -1.0)[0] - 0.5) < 1e-15


def test_logistic_extreme_margins_stable():
    feature = np.array([1.0])
    assert math.isfinite(logistic_value([-800.0], feature, 1.0))
    assert abs(logistic_value([-800.0], feature, 1.0) - 800.0) < 1e-9
    assert math.isfinite(logistic_value([800.0], feature, 1.0))
    assert logistic_value([800.0], feature, 1.0) == 0.0  # underflows to exactly zero, fine
    g = logistic_grad([-800.0], feature, 1.0)
    assert abs(g[0] + 1.0) < 1e-12


def test_quadratic_convexity_random():
    rng = np.random.default_rng(5)
    anchor = rng.normal(size=4)

    def value(theta):
        return quadratic_value(theta, anchor, 1.5)

    for _ in range(100):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        lam = rng.uniform()
        mid = lam * a + (1 - lam) * b
        assert value(mid) <= lam * value(a) + (1 - lam) * value(b) + 1e-9


def test_logistic_convexity_random():
    rng = np.random.default_rng(6)
    feature = rng.normal(size=3)

    def value(theta):
        return logistic_value(theta, feature, -1.0)

    for _ in range(100):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        lam = rng.uniform()
        mid = lam * a + (1 - lam) * b
        assert value(mid) <= lam * value(a) + (1 - lam) * value(b) + 1e-9


def test_finite_diff_agreement():
    rng = np.random.default_rng(7)
    anchor = rng.normal(size=6)
    quad = (lambda th: quadratic_value(th, anchor, 2.0),
            lambda th: quadratic_grad(th, anchor, 2.0))
    assert finite_diff_check(*quad, rng.normal(size=6)) < 1e-8
    feature = rng.normal(size=6)
    logi = (lambda th: logistic_value(th, feature, 1.0),
            lambda th: logistic_grad(th, feature, 1.0))
    assert finite_diff_check(*logi, rng.normal(size=6)) < 1e-6
    # zero-gradient point is exact
    assert finite_diff_check(*quad, anchor) < 1e-8


def test_quadratic_growth_exact():
    # quadratics meet their growth constant with equality
    rng = np.random.default_rng(8)
    curv = 1.7
    anchor = rng.normal(size=4)
    for _ in range(50):
        theta = rng.normal(size=4)
        gap = quadratic_value(theta, anchor, curv) - quadratic_value(anchor, anchor, curv)
        quad_form = 0.5 * curv * float(np.dot(theta - anchor, theta - anchor))
        assert abs(gap - quad_form) <= 1e-12 * max(1.0, abs(gap))


def test_gradient_norm_bound_over_domain():
    dom = ParamDomain(np.zeros(3), 1.0)
    prof = quadratic_regularity(2.0, dom)
    assert prof.lipschitz_g == 4.0  # curvature * diameter
    rng = np.random.default_rng(9)
    anchor = np.array([0.5, 0.0, 0.0])
    assert dom.contains(anchor)
    for _ in range(200):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, dom.radius)
        g = quadratic_grad(v, anchor, 2.0)
        assert np.linalg.norm(g) <= prof.lipschitz_g * (1 + 1e-12)


def test_logistic_regularity():
    prof = logistic_regularity(2.0, growth_alpha=0.3)
    assert prof.lipschitz_g == 2.0
    assert prof.smoothness_beta == 1.0
    assert prof.growth_alpha == 0.3


def test_certify_smoothness_frozen_examples():
    dom = ParamDomain(np.zeros(10), 1.0)
    priv = PrivacyParams(1.0, 1e-5)
    base = dict(dom=dom, m=800, privacy=priv, n=100)
    ceiling = smoothness_ceiling(1.0, dom, 800, priv, 100)
    assert abs(ceiling - 1.6475255724556521) < 1e-12
    assert certify_smoothness(RegularityProfile(1.0, 0.1, 1.0), **base)
    assert not certify_smoothness(RegularityProfile(1.0, 5.0, 1.0), **base)
    # boundary inclusive
    assert certify_smoothness(RegularityProfile(1.0, ceiling, 1.0), **base)


def test_certify_smoothness_errors():
    dom0 = ParamDomain(np.zeros(2), 0.0)
    priv = PrivacyParams(1.0, 1e-5)
    prof = RegularityProfile(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        certify_smoothness(prof, dom0, 100, priv, 10)
    dom = ParamDomain(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        certify_smoothness(prof, dom, 0, priv, 10)


def test_quadratic_samples_validation():
    with pytest.raises(ValueError):
        TaskSamples(np.zeros((1, 2)), curvature=0.0)
    with pytest.raises(ValueError):
        TaskSamples(np.zeros((1, 2)), curvature=-1.0)
    with pytest.raises(ValueError):
        TaskSamples(np.zeros((0, 2)), curvature=1.0)  # no samples
    with pytest.raises(ValueError):
        TaskSamples(np.array([[np.nan, 0.0]]), curvature=1.0)
    with pytest.raises(ValueError):
        TaskSamples(np.zeros((1, 2)))  # neither curvature nor labels


def test_logistic_samples_validation():
    with pytest.raises(ValueError):
        TaskSamples(np.ones((1, 1)), labels=[0.0])
    with pytest.raises(ValueError):
        TaskSamples(np.ones((1, 1)), labels=[2.0])
    with pytest.raises(ValueError):
        TaskSamples(np.ones((2, 1)), labels=[1.0])  # one label per sample
    with pytest.raises(ValueError):
        TaskSamples(np.ones((1, 1)), curvature=1.0, labels=[1.0])


def test_samples_grad_covers_every_task():
    # anchors of two tasks stacked step-major: sample j's gradient for each
    anchors = np.array([[[0.0, 0.0], [1.0, 0.0]],
                        [[0.0, 2.0], [1.0, 1.0]]])
    quad = TaskSamples(anchors, curvature=2.0)
    assert (quad.count, quad.batch_shape, quad.dim) == (2, (2,), 2)
    theta = np.array([1.0, 1.0])
    assert np.array_equal(quad.grad(theta, 1), [[2.0, -2.0], [0.0, 0.0]])
    assert np.array_equal(quad.take([1, 1, 0]).points, anchors[[1, 1, 0]])
    features = np.array([[1.0, 0.0], [0.0, 1.0]])
    logi = TaskSamples(features, labels=[1.0, -1.0])
    assert np.allclose(logi.grad(np.zeros(2), 1), [0.0, 0.5], rtol=1e-15)
    assert np.allclose(logistic_value(np.zeros(2), features, logi.labels),
                       math.log(2.0), rtol=1e-15)


def test_loss_dimension_mismatch():
    with pytest.raises(ValueError):
        quadratic_grad(np.zeros(3), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        quadratic_value(np.zeros(1), np.array([1.0, 0.0]), 1.0)  # would broadcast
    with pytest.raises(ValueError):
        logistic_value(np.zeros(3), np.array([1.0, 0.0]), 1.0)


def test_regularity_profile_validation():
    with pytest.raises(ValueError):
        RegularityProfile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RegularityProfile(1.0, 1.0, -1.0)
