"""Euclidean ball domains and the vector primitives everything else sits on.

Parameter vectors are plain 1-D float64 numpy arrays; a batch stacks them
along leading axes, shape (..., dim), and a bare vector is the batch of one.
Projection, clipping and squared distances are coded here only. They act row
by row, with squared norms from np.vecdot, so each row equals the
single-vector call bit for bit; a row is rescaled only when its squared norm
exceeds the bound squared, and a non-finite or overflowing squared norm
raises ValueError. project_in_place and clip_norm_in_place write into the
caller's array, with a reusable RowScratch, check nothing but finiteness,
and say whether any row was rescaled. dist_sq is pure. Up to _FEW_ROWS
rows, as in a training step's one row per arm, the row rule runs on Python
floats instead of numpy calls, with the same bits, and every operand of the
in-place forms' numpy calls has the batch's shape. never_rescaled is the
rounding rule for skipping them, whether a row that exact arithmetic keeps
within a norm can still be rescaled once a run of steps' rounding is
counted; coordinate_top is the center's part of its coordinate scale.
Geometric identities hold to 1e-12 relative tolerance, because of float
rounding. The domain is calibration.Ball, whose center is a tuple of
Python floats, the one domain of config and the run path: its membership
rule allows the few ulps by which center + offset rounds. All is
deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import Ball, _square

ParamDomain = Ball  # the domain's earlier run-path name

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


def _finite_top(nsq) -> float:
    """The largest of the squared norms nsq, which doubles as the finiteness
    check: a non-finite row, or one whose squared norm overflows, makes it
    non-finite."""
    top = np.maximum.reduce(nsq, None)
    if not math.isfinite(top):
        raise ValueError("vector has non-finite coordinates or a squared norm "
                         "that overflows")
    return top


def _sq_norms(offset):
    """Squared norms of the rows of offset, checked finite."""
    nsq = np.vecdot(offset, offset)
    _finite_top(nsq)
    return nsq


# Up to this many rows the row rule runs on Python floats, which costs less
# than the numpy calls it replaces; its cost grows with the rows and passes
# numpy's near 30 of them (2-CPU Xeon, numpy 2.4), so 8 leaves a margin.
# Python's float sqrt, division and comparisons round as numpy's do, so
# both paths give the same bits.
_FEW_ROWS = 8

# what _row_scales found: no row over the bound, some rows, or every row
_NONE, _SOME, _ALL = range(3)


class RowScratch:
    """Buffers for the in-place clip and project of batches shaped
    (..., dim), to reuse across calls of one shape: intermediate vectors, the
    center on every row (filled from center_of, a domain's tuple center,
    when a call brings another tuple), the squared norms, and the rows'
    rescale factors and over-bound mask, by the learners' same-shape rule
    full-shape up to _FEW_ROWS rows (filled through one view per row), past
    that (..., 1) columns."""

    def __init__(self, shape):
        self.vectors, self.center, self.center_of = np.empty(shape), np.empty(shape), None
        self.nsq = np.empty(shape[:-1])
        self.few = self.nsq.size <= _FEW_ROWS
        # only ever holds ones and factors limit / norm <= 1, so scaling
        # every row by it, not just the rows over, cannot overflow
        self.factors = np.ones(shape if self.few else shape[:-1] + (1,))
        self.mask = np.empty(self.factors.shape, dtype=bool)
        if self.few:
            self.nsq_flat = self.nsq.reshape(-1)
            self.factor_rows = list(self.factors.reshape(-1, shape[-1]))
            self.mask_rows = list(self.mask.reshape(-1, shape[-1]))
        else:
            self.scale, self.over = self.factors[..., 0], self.mask[..., 0]


def _row_scales(x, limit, limit_sq, scratch: RowScratch) -> int:
    """The row rule: squared norms of x's rows, checked finite; then, for the
    rows whose squared norm exceeds limit_sq, the factor limit / norm in
    scratch.factors. Returns _NONE when no row is over, _ALL when every row
    is, else _SOME with the rows over marked in scratch.mask."""
    nsq = np.vecdot(x, x, out=scratch.nsq)
    if not scratch.few:
        if _finite_top(nsq) <= limit_sq:
            return _NONE
        over = np.greater(nsq, limit_sq, out=scratch.over)
        np.sqrt(nsq, out=scratch.scale, where=over)
        np.divide(limit, scratch.scale, out=scratch.scale, where=over)
        return _SOME
    rows = scratch.nsq_flat.tolist()
    # the sum is finite when every row is; when it is not, _finite_top
    # raises unless only the sum overflowed
    if not math.isfinite(sum(rows)):
        _finite_top(nsq)
    if max(rows) <= limit_sq:
        return _NONE
    found = _ALL
    for row, r in zip(scratch.factor_rows, rows):
        if r > limit_sq:
            row.fill(limit / math.sqrt(r))
        else:
            row.fill(1.0)
            found = _SOME
    if found == _SOME:
        for row, r in zip(scratch.mask_rows, rows):
            row.fill(r > limit_sq)
    return found


def project_in_place(v, dom: Ball, scratch: RowScratch) -> bool:
    """Euclidean projection onto the ball, in place: each row of v, a float64
    array shaped like scratch's buffers, whose squared offset from the
    center exceeds radius**2 becomes center + offset * (radius / ||offset||);
    the other rows are left untouched. Returns whether any row moved. Shapes
    are not checked."""
    center = scratch.center
    if scratch.center_of is not dom.center:
        center[...] = scratch.center_of = dom.center
    offset = np.subtract(v, center, out=scratch.vectors)
    found = _row_scales(offset, dom.radius, dom._radius_sq, scratch)
    if found == _NONE:
        return False
    offset *= scratch.factors
    if found == _ALL:
        np.add(offset, center, out=v)
    else:
        # every row is scaled and shifted back, but only the rows over are
        # written to v (a masked copy is cheaper than two masked ufuncs)
        offset += center
        np.copyto(v, offset, where=scratch.mask)
    return True


def clip_norm_in_place(v, bound: float, scratch: RowScratch) -> bool:
    """Norm clipping, in place: each row of v, a float64 array shaped like
    scratch's buffers, whose squared norm exceeds bound**2 is scaled to norm
    bound, direction kept; the other rows are left untouched. Returns whether
    any row was clipped. Neither the bound nor the shapes are checked."""
    found = _row_scales(v, bound, _square(bound), scratch)
    if found == _NONE:
        return False
    if found == _ALL:
        v *= scratch.factors
    else:
        np.multiply(v, scratch.factors, out=scratch.vectors)
        np.copyto(v, scratch.vectors, where=scratch.mask)
    return True


# float64's machine epsilon: one rounded operation moves its result by at
# most half of it, relative to the result
_EPS = float(np.finfo(np.float64).eps)


def never_rescaled(norm: float, bound: float, scale: float, dim: int,
                   ops: int) -> bool:
    """Whether no row whose norm exact arithmetic keeps at most norm can be
    rescaled at bound by clip_norm_in_place or project_in_place, after ops
    rounded steps in sequence on dim coordinates that never exceed scale in
    magnitude. The margin is 16 epsilons of scale per coordinate per step,
    and per coordinate once more for the squared norms (the row rule's
    subtraction, vecdot and squared bound round by at most dim + 5
    epsilons), summed over the coordinates' norm:
    norm + 16 (ops + dim) eps scale sqrt(dim) < bound. A step of a handful
    of elementwise operations on such coordinates rounds by less. A NaN or
    infinite norm or scale gives False."""
    return norm + 16.0 * (ops + dim) * _EPS * scale * math.sqrt(dim) < bound


def coordinate_top(center) -> float:
    """The largest magnitude of a coordinate of center, the part of
    never_rescaled's scale that a ball's center contributes."""
    return max(map(abs, center))


def dist_sq(a, b):
    """Squared Euclidean distance ||a - b||^2 over the last axis: a float for
    two vectors, an array shaped (...) when a or b is a batch."""
    a = _vectors(a)
    nsq = _sq_norms(a - _vectors(b, a.shape[-1]))
    return float(nsq) if nsq.ndim == 0 else nsq
