import math
import warnings

import numpy as np
import pytest

from dpmeta.geometry import ParamDomain
from dpmeta.losses import (ExcessWorkspace, RegularityProfile, TaskSamples,
                           certify_smoothness, finite_diff_check, logistic_excess,
                           logistic_loss, logistic_regularity, logistic_value,
                           quadratic_regularity, quadratic_value, sigmoid,
                           smoothness_ceiling, softplus)
from dpmeta.privacy import PrivacyParams


def test_quadratic_frozen_examples():
    anchor = np.array([1.0, 0.0])
    samples = TaskSamples(anchor[None], curvature=2.0)
    assert quadratic_value([0.0, 0.0], anchor, 2.0) == 1.0
    assert np.allclose(samples.grad(np.array([0.0, 0.0]), 0), [-2.0, 0.0])
    assert quadratic_value([1.0, 0.0], anchor, 2.0) == 0.0
    assert np.array_equal(samples.grad(np.array([1.0, 0.0]), 0), [0.0, 0.0])


def test_logistic_frozen_examples():
    feature = np.array([1.0])
    samples = TaskSamples([feature, feature], labels=[1.0, -1.0])
    assert abs(logistic_value([0.0], feature, 1.0) - math.log(2.0)) < 1e-15
    assert abs(samples.grad(np.array([0.0]), 0)[0] - (-0.5)) < 1e-15
    assert abs(logistic_value([10.0], feature, 1.0) - 4.539889921686465e-05) < 1e-18
    assert abs(samples.grad(np.array([0.0]), 1)[0] - 0.5) < 1e-15


def test_logistic_extreme_margins_stable():
    feature = np.array([1.0])
    assert math.isfinite(logistic_value([-800.0], feature, 1.0))
    assert abs(logistic_value([-800.0], feature, 1.0) - 800.0) < 1e-9
    assert math.isfinite(logistic_value([800.0], feature, 1.0))
    assert logistic_value([800.0], feature, 1.0) == 0.0  # underflows to exactly zero, fine
    g = TaskSamples(feature[None], labels=[1.0]).grad(np.array([-800.0]), 0)
    assert abs(g[0] + 1.0) < 1e-12


# margins from -800 to 800, past where exp(800) overflows, with a dense
# stretch near 0 where the logistic loss is curved
MARGIN_GRID = np.unique(np.concatenate([
    np.linspace(-800.0, 800.0, 321), np.geomspace(1e-6, 800.0, 60),
    -np.geomspace(1e-6, 800.0, 60), [0.0]]))


def test_softplus_matches_logaddexp():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = softplus(MARGIN_GRID)
    assert np.allclose(values, np.logaddexp(0.0, MARGIN_GRID), rtol=1e-15, atol=1e-300)
    assert softplus(0.0) == math.log(2.0)
    assert softplus(-800.0) == 0.0 and softplus(800.0) == 800.0


def test_logistic_excess_is_the_label_expectation_and_never_negative():
    # every pair (z, z*) of the grid, with RuntimeWarnings as errors
    z, z_star = MARGIN_GRID[:, None], MARGIN_GRID[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        excess = logistic_excess(z, z_star)
    assert excess.shape == (len(MARGIN_GRID), len(MARGIN_GRID))
    assert np.isfinite(excess).all()
    assert (excess >= 0.0).all()
    assert np.array_equal(np.diag(excess), np.zeros(len(MARGIN_GRID)))
    # the Bernoulli KL written with log-sigmoids: log p = -log(1 + exp(-z))
    log_p = -np.logaddexp(0.0, -MARGIN_GRID)
    log_q = -np.logaddexp(0.0, MARGIN_GRID)
    p_star = 1.0 / (1.0 + np.exp(-np.clip(MARGIN_GRID, -700, 700)))
    kl = (p_star * (log_p[None, :] - log_p[:, None])
          + (1.0 - p_star) * (log_q[None, :] - log_q[:, None]))
    assert np.allclose(excess, np.maximum(kl, 0.0), rtol=1e-9, atol=1e-12)
    # and the expected loss gap over a label y = +1 with probability
    # sigmoid(z*), from the loss itself
    label_mean = (sigmoid(z_star) * (logistic_loss(z, 1.0) - logistic_loss(z_star, 1.0))
                  + sigmoid(-z_star) * (logistic_loss(z, -1.0) - logistic_loss(z_star, -1.0)))
    assert np.allclose(excess, np.maximum(label_mean, 0.0), rtol=1e-9, atol=1e-12)


EDGE_MARGINS = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0,
                         1.5, -0.25])


def test_workspace_excess_is_the_textbook_formula_byte_for_byte():
    # every margin of the edge grid against every star margin, as
    # population_risk_gap lays them out: rows of margins, one star row
    z = np.repeat(EDGE_MARGINS[:, None], len(EDGE_MARGINS), axis=1)
    z_star = EDGE_MARGINS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        textbook = np.maximum(softplus(z) - softplus(z_star)
                              - sigmoid(z_star) * (z - z_star), 0.0)
        work = ExcessWorkspace(z.shape, z_star.shape)
        excess = logistic_excess(z, z_star, work)
    assert excess is work.gap
    assert excess.tobytes() == textbook.tobytes()
    # without a workspace, and with the arguments the other way round
    assert logistic_excess(z, z_star).tobytes() == textbook.tobytes()
    assert (logistic_excess(z_star, z.T).tobytes()
            == np.maximum(softplus(z_star) - softplus(z.T)
                          - sigmoid(z.T) * (z_star - z.T), 0.0).tobytes())
    # sigmoid is where(z > 0, 1, e) / (1 + e) and softplus is
    # max(z, 0) + log1p(e), and the out= and e= forms that the workspace
    # writes through give the same bytes as the plain ones
    e = np.exp(-np.abs(EDGE_MARGINS))
    assert (sigmoid(EDGE_MARGINS).tobytes()
            == (np.where(EDGE_MARGINS > 0, 1.0, e) / (1.0 + e)).tobytes())
    assert (softplus(EDGE_MARGINS).tobytes()
            == (np.maximum(EDGE_MARGINS, 0.0) + np.log1p(e)).tobytes())
    for f in (sigmoid, softplus):
        out = np.full(EDGE_MARGINS.shape, np.nan)
        assert f(EDGE_MARGINS, out, e.copy()) is out
        assert out.tobytes() == f(EDGE_MARGINS).tobytes()


def test_one_workspace_scores_block_after_block_without_leaking():
    rng = np.random.default_rng(3)
    block_a = (rng.normal(0, 5, (2, 500)), rng.normal(0, 5, 500))
    block_b = (rng.normal(0, 50, (2, 500)), rng.normal(0, 50, 500))
    work = ExcessWorkspace((2, 500), (500,))
    first = logistic_excess(*block_a, work).copy()
    other = logistic_excess(*block_b, work).copy()
    again = logistic_excess(*block_a, work).copy()
    assert first.tobytes() == again.tobytes()
    assert first.tobytes() == logistic_excess(*block_a).tobytes()
    assert other.tobytes() == logistic_excess(*block_b).tobytes()


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
    anchors = TaskSamples(anchor[None], curvature=2.0)
    quad = (lambda th: quadratic_value(th, anchor, 2.0),
            lambda th: anchors.grad(th, 0))
    assert finite_diff_check(*quad, rng.normal(size=6)) < 1e-8
    feature = rng.normal(size=6)
    features = TaskSamples(feature[None], labels=[1.0])
    logi = (lambda th: logistic_value(th, feature, 1.0),
            lambda th: features.grad(th, 0))
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
    samples = TaskSamples(anchor[None], curvature=2.0)
    for _ in range(200):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, dom.radius)
        g = samples.grad(v, 0)
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
        quadratic_value(np.zeros(1), np.array([1.0, 0.0]), 1.0)  # would broadcast
    with pytest.raises(ValueError):
        logistic_value(np.zeros(3), np.array([1.0, 0.0]), 1.0)


def test_regularity_profile_validation():
    with pytest.raises(ValueError):
        RegularityProfile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RegularityProfile(1.0, 1.0, -1.0)
