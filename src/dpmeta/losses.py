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

from dataclasses import dataclass
import math

import numpy as np

# the regularity constants are closed forms, kept in calibration
from .calibration import (RegularityProfile, certify_smoothness,  # noqa: F401
                          logistic_regularity, quadratic_regularity,
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
    out when given; dimensions are not checked."""
    out = np.subtract(theta, anchors, out=out)
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


def sigmoid(z):
    """1 / (1 + exp(-z)), elementwise, from exp(-|z|) <= 1, so neither
    branch overflows whatever the magnitude of z."""
    e = np.exp(-np.abs(z))
    return np.where(z > _ZERO, _ONE, e) / (_ONE + e)


def softplus(z):
    """log(1 + exp(z)), elementwise, as max(z, 0) + log1p(exp(-|z|)), so
    exp never overflows whatever the magnitude of z."""
    return np.maximum(z, _ZERO) + np.log1p(np.exp(-np.abs(z)))


def logistic_excess(margins, star_margins):
    """E[loss(margin) - loss(star_margin)] over a label drawn from the
    logistic model at star_margin: the Bernoulli KL divergence
    KL(Bern(sigmoid(z*)) || Bern(sigmoid(z))), which is exactly 0 where
    z == z*. The arguments broadcast, so a star margin of a smaller shape is
    run through sigmoid and softplus only once."""
    gap = (softplus(margins) - softplus(star_margins)
           - sigmoid(star_margins) * (margins - star_margins))
    # the divergence is never negative; where z is near z* the difference
    # cancels and can round to about -1e-16 times the margins, so it is
    # clamped at 0
    return np.maximum(gap, _ZERO)


def _logistic_grad(theta, features, labels, out=None):
    """-label * sigmoid(-label <feature, theta>) * feature, broadcast over
    the leading axes, into out when given; dimensions are not checked."""
    # -(label * x) == (-label) * x exactly, so one negation serves both uses
    neg_labels = -labels
    weight = neg_labels * sigmoid(neg_labels * np.vecdot(features, theta))
    return np.multiply(weight[..., None], features, out=out)


@dataclass(frozen=True)
class TaskSamples:
    """A task's m samples of one loss family, as arrays.

    points has shape (m, *batch, d): one sample per leading index, then an
    optional batch axis that stacks several tasks step by step (batch is empty
    for a single task). Quadratic samples give anchors as points and a
    curvature > 0; logistic samples give features as points and labels of
    shape (m, *batch) in {-1, +1}. Exactly one of curvature and labels is set.
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
            if not math.isfinite(self.curvature) or self.curvature <= 0:
                raise ValueError(f"curvature must be finite and > 0, got {self.curvature}")
            object.__setattr__(self, "curvature", float(self.curvature))
            # the gradient's multiplier as a 0-d array, which numpy takes
            # without converting a Python float on every call
            object.__setattr__(self, "_curvature", np.asarray(self.curvature))
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

    def grad(self, theta, j, out=None):
        """Gradient at theta of sample j of every task in the batch, written
        into out when given. theta's last axis is not checked against the
        samples' here: the learners check it once per call."""
        if self.labels is None:
            return _quadratic_grad(theta, self.points[j], self._curvature, out)
        return _logistic_grad(theta, self.points[j], self.labels[j], out)

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
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    g = grad(theta)
    worst = 0.0
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        num = (float(value(theta + bump)) - float(value(theta - bump))) / (2.0 * step)
        err = abs(num - g[i]) / max(1.0, abs(g[i]))
        worst = max(worst, err)
    return worst
