"""Euclidean ball domains and the vector primitives everything else sits on.

Parameter vectors are plain 1-D float64 numpy arrays; a batch of them stacks
vectors along leading axes, shape (..., dim). All operations here are pure
and deterministic; geometric identities are expected to hold to 1e-12
relative tolerance, not exactly, because of float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GEOM_RTOL = 1e-12


def as_vector(x, dim=None):
    """Coerce to a finite 1-D float64 array, copying so callers can't mutate it."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("expected a vector with at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    return v.copy()


def as_batch(x, dim):
    """Coerce to a finite float64 array of dim-vectors, shape (..., dim).

    Unlike as_vector this does not copy an array that already qualifies.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] != dim:
        raise ValueError(f"expected vectors of dimension {dim}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite coordinates")
    return v


@dataclass(frozen=True)
class ParamDomain:
    """Closed Euclidean ball ``{x : ||x - center|| <= radius}``.

    radius == 0 is legal and denotes the singleton {center}.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, v, rtol=GEOM_RTOL) -> bool:
        """True when v, or every vector of a batch shaped (..., dim), lies in
        the ball."""
        offset = as_batch(v, self.dim) - self.center
        norms = np.sqrt(row_dot(offset, offset))
        return bool((norms <= self.radius * (1 + rtol) + 1e-300).all())


def row_dot(a, b):
    """<a, b> over the last axis, broadcasting the leading (batch) axes.

    Each entry equals float(np.dot(a_i, b_i)) bit for bit: matmul of a
    (1, d) row by a (d, 1) column takes numpy's dot kernel, whereas
    (a * b).sum(-1) adds the products in another order.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def project(v, dom: ParamDomain):
    """Euclidean projection onto the ball: interior points pass through unchanged."""
    v = as_vector(v, dom.dim)
    offset = v - dom.center
    norm = float(np.linalg.norm(offset))
    if norm <= dom.radius:
        return v
    if norm == 0.0:  # unreachable when radius >= 0, kept for clarity
        return dom.center.copy()
    return dom.center + offset * (dom.radius / norm)


def clip_norm(v, bound):
    """Scale v down so its norm is at most bound; direction is preserved."""
    v = as_vector(v)
    if not np.isfinite(bound) or bound < 0:
        raise ValueError(f"clip bound must be finite and >= 0, got {bound}")
    norm = float(np.linalg.norm(v))
    if norm <= bound:
        return v
    return v * (bound / norm)


def dist_sq(a, b):
    """Squared Euclidean distance ||a - b||^2."""
    a = as_vector(a)
    b = as_vector(b, a.size)
    d = a - b
    return float(np.dot(d, d))
