"""Euclidean ball domains and the vector primitives everything else sits on.

Parameter vectors are plain 1-D float64 numpy arrays; a batch stacks them
along leading axes, shape (..., dim), and a bare vector is the batch of one.
project, clip_norm and dist_sq are the only code that projects, clips or
measures a squared distance. They act row by row, with squared norms from
np.vecdot, so each row equals the single-vector call bit for bit; a row is
rescaled only when its squared norm exceeds the bound squared. Geometric
identities hold to 1e-12 relative tolerance, not exactly, because of float
rounding; ball membership also allows the few ulps by which center + offset
rounds. All operations here are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

GEOM_RTOL = 1e-12

_FLOAT64 = np.dtype(np.float64)


def as_vector(x, dim=None):
    """Coerce to a finite 1-D float64 array, copying so callers can't mutate it."""
    v = as_batch(x, dim)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v.copy()


def _vectors(x, dim=None):
    """x as float64 vectors, shape (..., dim); a shape test, no pass over the
    data. A float64 ndarray comes back as it is, anything else is coerced."""
    v = x
    if type(v) is not np.ndarray or v.dtype is not _FLOAT64:
        v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] < 1 or (dim is not None and v.shape[-1] != dim):
        raise ValueError(f"expected vectors of dimension {dim or '>= 1'}, "
                         f"got shape {v.shape}")
    return v


def as_batch(x, dim):
    """Coerce to a finite float64 array of dim-vectors, shape (..., dim).

    Unlike as_vector this does not copy an array that already qualifies.
    """
    v = _vectors(x, dim)
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
        # how far rounding can carry a point of the ball outside it: each
        # coordinate of center + offset rounds by up to an ulp of the largest
        # center coordinate, however small the radius; radius 0 allows none,
        # so that ball stays the singleton {center}
        slack = 1e-300
        if self.radius > 0.0:
            ulp = float(np.spacing(np.abs(self.center).max()))
            slack += 4.0 * math.sqrt(self.dim) * ulp
        object.__setattr__(self, "_rounding_slack", slack)
        object.__setattr__(self, "_radius_sq", self.radius**2)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, v) -> bool:
        """True when v, or every vector of a batch shaped (..., dim), lies in
        the ball, up to GEOM_RTOL of the radius plus the rounding of the
        center's coordinates."""
        norms = np.sqrt(dist_sq(self.center, v))
        return bool((norms <= self.radius * (1 + GEOM_RTOL) + self._rounding_slack).all())


def _sq_norms(offset):
    """Squared norms of the rows of offset and their maximum, which doubles
    as the finiteness check: a non-finite row, or one whose squared norm
    overflows, makes it non-finite."""
    nsq = np.vecdot(offset, offset)
    top = np.maximum.reduce(nsq, None)
    if not math.isfinite(top):
        raise ValueError("vector has non-finite coordinates or a squared norm "
                         "that overflows")
    return nsq, top


def _over(nsq, limit):
    """Mask of the rows whose squared norm exceeds limit**2, and the factor
    limit / norm that puts each of them on the sphere, both shaped (..., 1)."""
    over = nsq > limit**2
    return over[..., None], (limit / np.sqrt(np.where(over, nsq, 1.0)))[..., None]


def project(v, dom: ParamDomain):
    """Euclidean projection onto the ball of v, or of every row of a batch
    shaped (..., dim): center + offset * (radius / ||offset||) for a row whose
    squared offset exceeds radius**2; other rows, and v itself when no row
    is outside, come back unchanged."""
    v = _vectors(v, dom.dim)
    offset = v - dom.center
    nsq, top = _sq_norms(offset)
    if top <= dom._radius_sq:
        return v
    over, scale = _over(nsq, dom.radius)
    return np.where(over, dom.center + offset * scale, v)


def clip_norm(v, bound):
    """Scale down v, or every vector of a batch shaped (..., dim), whose
    squared norm exceeds bound**2 to norm bound; direction is preserved, and
    v itself comes back when no row exceeds."""
    if not 0.0 <= bound < math.inf:
        raise ValueError(f"clip bound must be finite and >= 0, got {bound}")
    v = _vectors(v)
    nsq, top = _sq_norms(v)
    if top <= bound**2:
        return v
    over, scale = _over(nsq, bound)
    return np.where(over, v * scale, v)


def dist_sq(a, b):
    """Squared Euclidean distance ||a - b||^2 over the last axis: a float for
    two vectors, an array shaped (...) when a or b is a batch."""
    a = _vectors(a)
    nsq, _ = _sq_norms(a - _vectors(b, a.shape[-1]))
    return float(nsq) if nsq.ndim == 0 else nsq
