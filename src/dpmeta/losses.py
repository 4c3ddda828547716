"""Convex per-sample losses with closed-form gradients and regularity constants.

Two families are provided. Quadratics ``(c/2)||theta - anchor||^2`` model
mean-estimation style tasks and admit exact risk bookkeeping. Logistic losses
``log(1 + exp(-y <x, theta>))`` cover a qualitatively different curvature
profile. Regularity constants (Lipschitz bound over the domain, smoothness,
quadratic growth) are derived analytically per family, never estimated from
samples.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .geometry import ParamDomain, as_vector


@dataclass(frozen=True)
class QuadraticLoss:
    """theta -> (curvature/2) * ||theta - anchor||^2."""

    anchor: np.ndarray
    curvature: float

    def value(self, theta) -> float:
        if np.shape(theta) != self.anchor.shape:
            raise ValueError("theta dimension does not match the anchor")
        d = theta - self.anchor
        return 0.5 * self.curvature * float(np.dot(d, d))

    def grad(self, theta) -> np.ndarray:
        # hot path: shape check only, no copy
        if np.shape(theta) != self.anchor.shape:
            raise ValueError("theta dimension does not match the anchor")
        return self.curvature * (theta - self.anchor)


@dataclass(frozen=True)
class LogisticLoss:
    """theta -> log(1 + exp(-label * <feature, theta>)), label in {-1, +1}."""

    feature: np.ndarray
    label: int

    def value(self, theta) -> float:
        if np.shape(theta) != self.feature.shape:
            raise ValueError("theta dimension does not match the feature")
        margin = self.label * float(np.dot(self.feature, theta))
        # log1p(exp(-m)) overflows for very negative margins; use the stable split
        if margin >= 0:
            return math.log1p(math.exp(-margin))
        return -margin + math.log1p(math.exp(margin))

    def grad(self, theta) -> np.ndarray:
        if np.shape(theta) != self.feature.shape:
            raise ValueError("theta dimension does not match the feature")
        margin = self.label * float(np.dot(self.feature, theta))
        # sigmoid(-margin), computed without overflow on either tail
        if margin >= 0:
            w = math.exp(-margin) / (1.0 + math.exp(-margin))
        else:
            w = 1.0 / (1.0 + math.exp(margin))
        return (-self.label * w) * self.feature


def make_quadratic(anchor, curvature, dom: ParamDomain | None = None) -> QuadraticLoss:
    anchor = as_vector(anchor)
    if not np.isfinite(curvature) or curvature <= 0:
        raise ValueError(f"curvature must be finite and > 0, got {curvature}")
    if dom is not None and not dom.contains(anchor):
        raise ValueError("anchor lies outside the domain")
    return QuadraticLoss(anchor=anchor, curvature=float(curvature))


def make_logistic(feature, label) -> LogisticLoss:
    feature = as_vector(feature)
    if label not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {label}")
    return LogisticLoss(feature=feature, label=int(label))


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


def finite_diff_check(loss, theta, step: float = 1e-6) -> float:
    """Max relative error between the analytic gradient and central differences.

    Returns max_i |g_i - (f(theta + h e_i) - f(theta - h e_i)) / 2h| / max(1, |g_i|).
    """
    theta = as_vector(theta)
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    g = loss.grad(theta)
    worst = 0.0
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        num = (loss.value(theta + bump) - loss.value(theta - bump)) / (2.0 * step)
        err = abs(num - g[i]) / max(1.0, abs(g[i]))
        worst = max(worst, err)
    return worst
