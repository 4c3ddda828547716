"""Convex per-sample losses as arrays, with closed-form gradients and
regularity constants.

Two families are provided. Quadratics ``(c/2)||theta - anchor||^2`` model
mean-estimation style tasks and admit exact risk bookkeeping. Logistic losses
``log(1 + exp(-y <x, theta>))`` cover a qualitatively different curvature
profile. A task's samples are arrays, not objects: anchors, or features plus
labels, with one sample per leading index. The value and gradient functions
broadcast over leading batch axes, so one call scores many samples, tasks or
iterates at once. Regularity constants (Lipschitz bound over the domain,
smoothness, quadratic growth) are derived analytically per family, never
estimated from samples, by the numpy-free dpmeta.calibration; this module
offers them under their old names.
"""

from __future__ import annotations

import numpy as np

# the regularity constants are closed forms, kept in calibration
from .calibration import (Record, RegularityProfile, _finite,  # noqa: F401
                          certify_smoothness, logistic_regularity, quadratic_regularity,
                          smoothness_ceiling)
from .geometry import as_vector, dist_sq


def _check_dims(theta, points):
    if np.shape(theta)[-1:] != np.shape(points)[-1:]:
        raise ValueError(f"theta shape {np.shape(theta)} does not match the "
                         f"sample dimension of {np.shape(points)}")


def quadratic_value(theta, anchors, curvature):
    """(curvature/2) ||theta - anchor||^2 over the last axis, broadcast over
    the leading ones."""
    return 0.5 * curvature * dist_sq(anchors, theta)


def _quadratic_grad(theta, anchors, curvature, out=None):
    """curvature * (theta - anchor), broadcast over the leading axes, into
    out when given; dimensions are not checked. None stands for 1.0."""
    out = np.subtract(theta, anchors, out=out)
    if curvature is not None:
        out *= curvature
    return out


def logistic_loss(margins, labels):
    """log(1 + exp(-label * margin)) for margins <feature, theta>, computed
    without overflow on either tail."""
    return softplus(-labels * margins)


def logistic_value(theta, features, labels):
    """The logistic loss at theta; labels carry the leading axes of
    features."""
    _check_dims(theta, features)
    return logistic_loss(np.vecdot(features, theta), labels)


# sigmoid's constants as 0-d arrays, which numpy takes without converting a
# Python scalar on every call; the results are the same
_ZERO = np.zeros(())
_ONE = np.ones(())


def _exp_neg_abs(z, out=None):
    """exp(-|z|) <= 1, the one exponential that sigmoid and softplus read,
    into out when given."""
    return np.exp(np.negative(np.abs(z, out=out), out=out), out=out)


def sigmoid(z, out=None, e=None):
    """1 / (1 + exp(-z)), elementwise, from e = exp(-|z|) <= 1, so neither
    branch overflows whatever the magnitude of z. e, when given, is
    exp(-|z|) already computed. When out is given the result is written into
    it and 1 + e into e, so nothing is allocated; without it the call
    allocates. A gradient at one margin takes these steps on Python floats
    instead (_logistic_grad)."""
    if e is None:
        e = _exp_neg_abs(z)
    # max(e, 1) == 1 where z > 0 and max(e, 0) == e elsewhere (e >= 0), so
    # this is where(z > 0, 1, e), NaN included
    num = np.maximum(e, np.greater(z, _ZERO, out=out), out=out)
    return np.divide(num, np.add(_ONE, e, out=None if out is None else e),
                     out=out)


def softplus(z, out=None, e=None):
    """log(1 + exp(z)), elementwise, as max(z, 0) + log1p(exp(-|z|)), so
    exp never overflows whatever the magnitude of z. e, when given, is
    exp(-|z|) already computed. When out is given the result is written into
    it and log1p(e) into e, as in sigmoid."""
    if e is None:
        e = _exp_neg_abs(z)
    return np.add(np.maximum(z, _ZERO, out=out),
                  np.log1p(e, out=None if out is None else e), out=out)


class ExcessWorkspace:
    """The buffers of logistic_excess for margins and star margins that
    broadcast to shape, the star margins shaped star_shape: the result and
    one scratch array, both shaped shape, and four arrays shaped star_shape
    (exp(-|z*|), a copy of it, sigmoid(z*) and softplus(z*)). A caller may
    allocate one and pass it to many logistic_excess calls of those shapes;
    each call overwrites all of it."""

    def __init__(self, shape, star_shape):
        self.gap = np.empty(shape)
        self.scratch = np.empty(shape)
        self.star_e = np.empty(star_shape)
        self.star_e_copy = np.empty(star_shape)
        self.star_sigmoid = np.empty(star_shape)
        self.star_softplus = np.empty(star_shape)


def logistic_excess(margins, star_margins, work=None):
    """E[loss(margin) - loss(star_margin)] over a label drawn from the
    logistic model at star_margin: the Bernoulli KL divergence
    KL(Bern(sigmoid(z*)) || Bern(sigmoid(z))), which is exactly 0 where
    z == z*. The arguments broadcast, so a star margin of a smaller shape is
    run through sigmoid and softplus only once, from one exp(-|z*|).

    Every value is written into work, an ExcessWorkspace for these shapes,
    which is allocated when not given; the result is work.gap, so a caller
    that scores many blocks of one shape in one workspace allocates
    nothing per block."""
    if work is None:
        work = ExcessWorkspace(np.broadcast_shapes(np.shape(margins),
                                                   np.shape(star_margins)),
                               np.shape(star_margins))
    # sigmoid and softplus each overwrite the e they read, so one gets a copy
    star_e = _exp_neg_abs(star_margins, work.star_e)
    np.copyto(work.star_e_copy, star_e)
    star_sigmoid = sigmoid(star_margins, work.star_sigmoid, work.star_e_copy)
    star_softplus = softplus(star_margins, work.star_softplus, star_e)
    gap = softplus(margins, work.gap, _exp_neg_abs(margins, work.scratch))
    gap -= star_softplus
    linear = np.subtract(margins, star_margins, out=work.scratch)
    linear *= star_sigmoid
    gap -= linear
    # the divergence is never negative; where z is near z* the difference
    # cancels and can round to about -1e-16 times the margins, so it is
    # clamped at 0
    return np.maximum(gap, _ZERO, out=gap)


def _logistic_grad(theta, features, labels, out=None, margins=None):
    """-label * sigmoid(-label <feature, theta>) * feature, broadcast over
    the leading axes, into out when given, with the margins written into
    margins when given; dimensions are not checked. At one margin (one
    sample at one iterate) sigmoid's steps run on Python floats, exact IEEE
    operations that cost less than ufunc calls; numpy keeps the dot product
    and exp, so the bits do not change."""
    margins = np.vecdot(features, theta, out=margins)
    if margins.size == 1:
        margin, neg_label = margins.item(), -labels.item()
        e = np.exp(-abs(margin)).item()
        weight = neg_label * ((1.0 if neg_label * margin > 0 else e) / (1.0 + e))
        if out is None:
            out = np.empty(margins.shape + features.shape[-1:])
        return np.multiply(weight, features, out=out)
    # -(label * x) == (-label) * x exactly, so one negation serves both uses
    neg_labels = -labels
    weight = neg_labels * sigmoid(neg_labels * margins)
    return np.multiply(weight[..., None], features, out=out)


class TaskSamples(Record):
    """A task's m samples of one loss family, as arrays.

    points has shape (m, *batch, d): one sample per leading index, then an
    optional batch axis that stacks several tasks step by step (batch is empty
    for a single task). Quadratic samples give anchors as points and a
    curvature > 0; logistic samples give features as points and labels of
    shape (m, *batch) in {-1, +1}. Exactly one of curvature and labels is set.
    Meta's visits carry an arms axis (the learners' same-shape rule), and a
    curvature of 1.0 is never applied.
    """

    points: np.ndarray
    curvature: float | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim < 2 or points.shape[0] < 1 or points.shape[-1] < 1:
            raise ValueError(
                "points must have shape (m, *batch, d) with m, d >= 1, "
                f"got {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points have non-finite coordinates")
        object.__setattr__(self, "points", points)
        if (self.curvature is None) == (self.labels is None):
            raise ValueError(
                "give exactly one of curvature (quadratic) and labels (logistic)")
        if self.curvature is not None:
            object.__setattr__(self, "curvature", float(_finite("curvature", self.curvature)))
            # the gradient's multiplier as a 0-d array, which numpy takes
            # without converting a Python float on every call; None for 1.0,
            # since x * 1.0 is x for every float x
            unit = self.curvature == 1.0
            object.__setattr__(self, "_curvature", None if unit else np.asarray(self.curvature))
        else:
            labels = np.asarray(self.labels, dtype=np.float64)
            if labels.shape != points.shape[:-1]:
                raise ValueError(
                    f"labels must have shape {points.shape[:-1]}, got {labels.shape}")
            if not (np.abs(labels) == 1.0).all():
                raise ValueError("labels must be -1 or +1")
            object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        """m, the number of samples per task."""
        return self.points.shape[0]

    @property
    def batch_shape(self) -> tuple:
        return self.points.shape[1:-1]

    @property
    def dim(self) -> int:
        return self.points.shape[-1]

    def grad(self, theta, j, out=None, margins=None):
        """Gradient at theta of sample j of every task in the batch, or of
        the index tuple j into (m, *batch), written into out when given;
        logistic samples write their margins into margins when given.
        theta's last axis is not checked: the learners check it per call."""
        if self.labels is None:
            return _quadratic_grad(theta, self.points[j], self._curvature, out)
        return _logistic_grad(theta, self.points[j], self.labels[j], out, margins)

    def take(self, where) -> "TaskSamples":
        """The samples at the index tuple `where` into (m, *batch): the
        sequence a stochastic learner visits, or one task out of a batch.
        Values taken out of validated arrays are valid, so only the shape of
        the result is checked."""
        points = self.points[where]
        if points.ndim < 2 or points.shape[0] < 1 or points.shape[-1] != self.dim:
            raise ValueError(f"taking {where!r} leaves points shaped {points.shape}, "
                             f"not (m, *batch, {self.dim}) with m >= 1")
        taken = object.__new__(TaskSamples)
        taken.__dict__.update(self.__dict__, points=points)
        if self.labels is not None:
            taken.__dict__["labels"] = self.labels[where]
        return taken


def finite_diff_check(value, grad, theta, step: float = 1e-6) -> float:
    """Max relative error between an analytic gradient and central differences.

    value maps theta to a scalar loss and grad to its gradient. Returns
    max_i |g_i - (f(theta + h e_i) - f(theta - h e_i)) / 2h| / max(1, |g_i|).
    """
    theta = as_vector(theta)
    _finite("step", step)
    g = grad(theta)
    worst = 0.0
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        num = (float(value(theta + bump)) - float(value(theta - bump))) / (2.0 * step)
        err = abs(num - g[i]) / max(1.0, abs(g[i]))
        worst = max(worst, err)
    return worst
