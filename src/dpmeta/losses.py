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
estimated from samples.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .geometry import ParamDomain, as_vector, row_dot


def _check_dims(theta, points):
    if np.shape(theta)[-1:] != np.shape(points)[-1:]:
        raise ValueError(f"theta shape {np.shape(theta)} does not match the "
                         f"sample dimension of {np.shape(points)}")


def quadratic_value(theta, anchors, curvature):
    """(curvature/2) ||theta - anchor||^2 over the last axis, broadcast over
    the leading ones."""
    _check_dims(theta, anchors)
    diff = np.subtract(theta, anchors)
    return 0.5 * curvature * row_dot(diff, diff)


def quadratic_grad(theta, anchors, curvature):
    """curvature * (theta - anchor), broadcast over the leading axes."""
    _check_dims(theta, anchors)
    return curvature * np.subtract(theta, anchors)


def logistic_value(theta, features, labels):
    """log(1 + exp(-label <feature, theta>)), computed without overflow on
    either tail; labels carry the leading axes of features."""
    _check_dims(theta, features)
    return np.logaddexp(0.0, -labels * row_dot(features, theta))


def logistic_grad(theta, features, labels):
    """-label * sigmoid(-label <feature, theta>) * feature."""
    _check_dims(theta, features)
    margin = labels * row_dot(features, theta)
    # sigmoid(-margin) from exp(-|margin|) <= 1, so neither branch overflows
    e = np.exp(-np.abs(margin))
    w = np.where(margin >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
    return (-labels * w)[..., None] * features


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

    def grad(self, theta, j):
        """Gradient at theta of sample j of every task in the batch."""
        if self.labels is None:
            return quadratic_grad(theta, self.points[j], self.curvature)
        return logistic_grad(theta, self.points[j], self.labels[j])

    def take(self, where) -> "TaskSamples":
        """The samples at the index tuple `where` into (m, *batch): the
        sequence a stochastic learner visits."""
        if self.labels is None:
            return TaskSamples(self.points[where], curvature=self.curvature)
        return TaskSamples(self.points[where], labels=self.labels[where])


@dataclass(frozen=True)
class RegularityProfile:
    """Analytic constants for a loss family over a fixed domain.

    lipschitz_g bounds the gradient norm over the domain, smoothness_beta the
    gradient's Lipschitz modulus, and growth_alpha the quadratic growth of the
    population risk around its minimizer.
    """

    lipschitz_g: float
    smoothness_beta: float
    growth_alpha: float

    def __post_init__(self):
        for name in ("lipschitz_g", "smoothness_beta", "growth_alpha"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")


def quadratic_regularity(curvature: float, dom: ParamDomain) -> RegularityProfile:
    """Constants for curvature-c quadratics with anchors inside the domain.

    Worst-case gradient norm over the ball is c * diameter (parameter at one
    end, anchor at the other); smoothness and growth both equal c.
    """
    if curvature <= 0:
        raise ValueError(f"curvature must be > 0, got {curvature}")
    if dom.diameter <= 0:
        raise ValueError("gradient bound degenerates on a zero-radius domain")
    return RegularityProfile(
        lipschitz_g=curvature * dom.diameter,
        smoothness_beta=curvature,
        growth_alpha=curvature,
    )


def logistic_regularity(feature_norm: float, growth_alpha: float) -> RegularityProfile:
    """Constants for logistic losses with features on a sphere of given norm.

    Gradient norm is at most the feature norm, smoothness at most norm^2 / 4.
    Quadratic growth has no clean closed form here, so the caller supplies it.
    """
    if feature_norm <= 0:
        raise ValueError(f"feature_norm must be > 0, got {feature_norm}")
    return RegularityProfile(
        lipschitz_g=feature_norm,
        smoothness_beta=0.25 * feature_norm**2,
        growth_alpha=growth_alpha,
    )


def certify_smoothness(profile: RegularityProfile, dom: ParamDomain, m: int,
                       privacy, n: int) -> bool:
    """Check the smoothness ceiling under which the private learner's clipping
    is guaranteed inactive at gradient scale G.

    The ceiling is (G/D) * min(sqrt(m/2), eps*n / (2*sqrt(2*d*ln(1/delta)))),
    with D the domain diameter and d its dimension. Boundary is inclusive.
    """
    if dom.diameter <= 0:
        raise ValueError("smoothness certificate needs a positive-diameter domain")
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m} n={n}")
    bound = smoothness_ceiling(profile.lipschitz_g, dom, m, privacy, n)
    return profile.smoothness_beta <= bound


def smoothness_ceiling(lipschitz_g: float, dom: ParamDomain, m: int, privacy,
                       n: int) -> float:
    d = dom.dim
    private_term = privacy.epsilon * n / (2.0 * math.sqrt(2.0 * d * math.log(1.0 / privacy.delta)))
    return (lipschitz_g / dom.diameter) * min(math.sqrt(m / 2.0), private_term)


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
