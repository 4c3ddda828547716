from fractions import Fraction
import math
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from dpmeta.calibration import Ball, ball_reach, format_value
from dpmeta.config import build_config
from dpmeta.geometry import (_FEW_ROWS, ParamDomain, RowScratch, as_vector,
                             clip_norm_in_place, dist_sq, dist_sq_into,
                             never_rescaled, project_in_place)

RTOL = 1e-12


def _project_copy(v, dom):
    out = np.array(v, dtype=np.float64)
    project_in_place(out, dom, RowScratch(out.shape))
    return out


def _clip_copy(v, bound):
    out = np.array(v, dtype=np.float64)
    clip_norm_in_place(out, bound, RowScratch(out.shape))
    return out


def _learner_batch(rng, arms, tasks, dim, center, radius):
    """Vectors shaped like the learner's iterates, (arms, tasks, dim), at
    distances from center spread over [0, 2 radius], so some rows lie inside
    the ball and some outside."""
    offsets = rng.normal(size=(arms, tasks, dim))
    offsets *= (2.0 * radius * rng.uniform(0, 1, size=(arms, tasks, 1))
                / np.linalg.norm(offsets, axis=-1, keepdims=True))
    return center + offsets


def test_project_frozen_examples():
    unit = ParamDomain(np.zeros(2), 1.0)
    assert np.allclose(_project_copy([2.0, 0.0], unit), [1.0, 0.0], rtol=RTOL, atol=0)
    # interior point passes through unchanged
    inside = _project_copy([0.3, -0.4], unit)
    assert np.array_equal(inside, [0.3, -0.4])
    shifted = ParamDomain(np.array([3.0, 0.0]), 1.0)
    assert np.allclose(_project_copy([3.0, 4.0], shifted), [3.0, 1.0], rtol=RTOL, atol=0)
    # a batch: the outside row is projected, the interior row passes through
    batch = _project_copy([[2.0, 0.0], [0.3, -0.4]], unit)
    assert np.allclose(batch[0], [1.0, 0.0], rtol=RTOL, atol=0)
    assert np.array_equal(batch[1], [0.3, -0.4])


def test_project_idempotent_and_feasible():
    rng = np.random.default_rng(1)
    dom = ParamDomain(rng.normal(size=4), 1.7)
    for _ in range(200):
        v = rng.normal(scale=5.0, size=4)
        p = _project_copy(v, dom)
        assert np.linalg.norm(p - dom.center) <= dom.radius * (1 + RTOL)
        assert np.allclose(_project_copy(p, dom), p, rtol=RTOL, atol=1e-15)


def test_project_nonexpansive():
    rng = np.random.default_rng(2)
    dom = ParamDomain(np.zeros(3), 2.0)
    for _ in range(200):
        a = rng.normal(scale=4.0, size=3)
        b = rng.normal(scale=4.0, size=3)
        da = _project_copy(a, dom)
        db = _project_copy(b, dom)
        assert dist_sq(da, db) <= dist_sq(a, b) * (1 + 1e-9) + 1e-15


def test_zero_radius_domain():
    dom = ParamDomain(np.array([1.0, 2.0]), 0.0)
    assert np.allclose(_project_copy([5.0, 5.0], dom), [1.0, 2.0], rtol=RTOL)
    assert np.allclose(_project_copy([[5.0, 5.0], [1.0, 2.0]], dom), [[1.0, 2.0]] * 2,
                       rtol=RTOL)
    assert dom.contains([1.0, 2.0])
    assert not dom.contains([1.0, 2.1])
    assert dom.contains([[1.0, 2.0], [1.0, 2.0]])
    assert not dom.contains([[1.0, 2.0], [1.0, 2.1]])


def test_clip_norm_frozen_examples():
    out = _clip_copy([3.0, 4.0], 1.0)
    assert abs(np.linalg.norm(out) - 1.0) <= RTOL
    assert np.allclose(out, [0.6, 0.8], rtol=RTOL)
    # under the bound: untouched
    assert np.array_equal(_clip_copy([0.3, 0.4], 1.0), [0.3, 0.4])
    assert np.array_equal(_clip_copy([0.0, 0.0], 1.0), [0.0, 0.0])
    batch = _clip_copy([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]], 1.0)
    assert np.allclose(batch[0], [0.6, 0.8], rtol=RTOL)
    assert np.array_equal(batch[1:], [[0.3, 0.4], [0.0, 0.0]])


def test_clip_norm_properties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(scale=3.0, size=5)
        bound = rng.uniform(0.1, 2.0)
        c = _clip_copy(v, bound)
        assert np.linalg.norm(c) <= bound * (1 + RTOL)
        # direction preserved: c is a nonnegative multiple of v
        nv = np.linalg.norm(v)
        if nv > 0:
            cos = np.dot(c, v) / (np.linalg.norm(c) * nv + 1e-300)
            assert cos >= 1 - 1e-9 or np.linalg.norm(c) == 0


def test_clip_zero_bound():
    assert np.allclose(_clip_copy([1.0, 1.0], 0.0), [0.0, 0.0], atol=1e-300)
    assert np.allclose(_clip_copy([[1.0, 1.0], [0.0, 0.0]], 0.0), 0.0, atol=1e-300)


def test_dist_sq_examples():
    assert dist_sq([0.0, 0.0], [3.0, 4.0]) == 25.0
    assert dist_sq([1.0], [1.0]) == 0.0
    assert type(dist_sq([0.0, 0.0], [3.0, 4.0])) is float
    # a batch against a vector, and a batch against a batch
    assert np.array_equal(dist_sq([[0.0, 0.0], [3.0, 5.0]], [3.0, 4.0]), [25.0, 1.0])
    assert np.array_equal(dist_sq([[0.0, 0.0]], [[1.0, 1.0], [2.0, 0.0]]), [2.0, 4.0])


def test_rows_on_the_sphere_are_left_alone():
    # v sits exactly on the sphere: its squared offset equals radius**2. Were
    # it rescaled (by exactly 1.0), center + (v - center) would round away
    # from v, so only the rule "rescale when nsq > radius**2" returns v
    dom = ParamDomain(np.array([-0.96, 1.6]), 5.24218465909014)
    v = np.array([0.41, -3.46])
    assert dist_sq(v, dom.center) == dom.radius**2
    assert not np.array_equal(dom.center + (v - dom.center), v)
    batch = np.stack([v, dom.center + 2.0 * (v - dom.center), dom.center])
    p = _project_copy(batch, dom)
    assert np.array_equal(_project_copy(v, dom), v)
    assert np.array_equal(p[[0, 2]], batch[[0, 2]])
    assert np.allclose(p[1], v, rtol=RTOL)
    # the same rule for clipping; integer offsets make the norms exact
    offsets = np.array([[3.0, 4.0], [6.0, 8.0], [0.0, -5.0]])
    c = _clip_copy(offsets, 5.0)
    assert np.array_equal(c[[0, 2]], offsets[[0, 2]])
    assert np.allclose(c[1], [3.0, 4.0], rtol=RTOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arms=st.integers(1, 3), tasks=st.integers(1, 5),
       dim=st.integers(1, 6), radius=st.floats(0.0, 3.0),
       bound=st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
def test_batch_rows_equal_single_vector_calls(seed, arms, tasks, dim, radius, bound):
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(size=dim), radius)
    v = _learner_batch(rng, arms, tasks, dim, dom.center, max(radius, 0.5))
    w = rng.normal(size=v.shape)
    projected, clipped = _project_copy(v, dom), _clip_copy(v, bound)
    dists = dist_sq(v, w)
    assert projected.shape == clipped.shape == v.shape
    assert dists.shape == v.shape[:-1]
    for i in np.ndindex(v.shape[:-1]):
        assert np.array_equal(projected[i], _project_copy(v[i], dom))
        assert np.array_equal(clipped[i], _clip_copy(v[i], bound))
        assert dists[i] == dist_sq(v[i], w[i])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arms=st.integers(1, 3), tasks=st.integers(1, 5),
       dim=st.integers(1, 6), radius=st.one_of(st.just(0.0), st.floats(0.1, 3.0)))
def test_batch_projection_properties(seed, arms, tasks, dim, radius):
    # idempotence and non-expansiveness are checked relative to the radius,
    # which the rounding of center + offset cannot meet when the radius is far
    # below the float spacing near the center; membership at every scale is
    # test_projection_is_contained_at_any_scale
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(size=dim), radius)
    a = _learner_batch(rng, arms, tasks, dim, dom.center, max(radius, 0.5))
    b = _learner_batch(rng, arms, tasks, dim, dom.center, max(radius, 0.5))
    pa, pb = _project_copy(a, dom), _project_copy(b, dom)
    assert dom.contains(pa)
    assert np.allclose(_project_copy(pa, dom), pa, rtol=RTOL, atol=1e-15)
    assert (dist_sq(pa, pb) <= dist_sq(a, b) * (1 + 1e-9) + 1e-15).all()
    inside = dist_sq(a, dom.center) <= radius**2
    assert np.array_equal(pa[inside], a[inside])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tasks=st.integers(1, 5), dim=st.integers(1, 6),
       center_norm=st.floats(0.0, 1e3),
       log_radius=st.one_of(st.none(), st.floats(-12.0, 1.0)),
       log_spread=st.floats(-13.0, 3.0))
def test_projection_is_contained_at_any_scale(seed, tasks, dim, center_norm,
                                              log_radius, log_spread):
    # center + offset rounds each coordinate to the spacing of floats near the
    # center, which a radius of 1e-12 next to a center of norm 1e3 is far below
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    center = direction * (center_norm / np.linalg.norm(direction))
    radius = 0.0 if log_radius is None else 10.0**log_radius
    dom = ParamDomain(center, radius)
    v = center + rng.normal(size=(tasks, dim)) * 10.0**log_spread
    projected = _project_copy(v, dom)
    assert dom.contains(projected)
    for row in projected:
        assert dom.contains(row)
    if radius == 0.0:
        # the zero ball stays the singleton {center}: one ulp away is outside,
        # or 1e-150 away where squared distances would underflow
        assert np.array_equal(projected, np.broadcast_to(center, v.shape))
        step = np.maximum(np.nextafter(center, np.inf) - center, 1e-150)
        assert not dom.contains(center + step)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arms=st.integers(1, 3), tasks=st.integers(1, 5),
       dim=st.integers(1, 6), bound=st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
def test_batch_clip_norm_properties(seed, arms, tasks, dim, bound):
    rng = np.random.default_rng(seed)
    v = _learner_batch(rng, arms, tasks, dim, np.zeros(dim), max(bound, 0.5))
    c = _clip_copy(v, bound)
    norms_c = np.linalg.norm(c, axis=-1)
    norms_v = np.linalg.norm(v, axis=-1)
    assert (norms_c <= bound * (1 + RTOL)).all()
    # direction preserved: each row is a nonnegative multiple of its input
    cos = np.einsum("...i,...i", c, v) / (norms_c * norms_v + 1e-300)
    assert ((cos >= 1 - 1e-9) | (norms_c == 0)).all()
    under = dist_sq(v, 0.0 * v) <= bound**2
    assert np.array_equal(c[under], v[under])
    if bound == 0.0:
        assert not c.any()


def _rescaled_rows(rows, limit):
    """rows with each row whose squared norm exceeds limit**2 multiplied by
    limit / norm, coded row by row from the definition."""
    out = rows.copy()
    for i in np.ndindex(rows.shape[:-1]):
        nsq = np.vecdot(rows[i], rows[i])
        if nsq > limit**2:
            out[i] = rows[i] * (limit / np.sqrt(nsq))
    return out


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arms=st.integers(1, 3), tasks=st.integers(1, 5),
       dim=st.integers(1, 6), radius=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
       bound=st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
def test_in_place_clip_and_project_equal_row_calls(seed, arms, tasks, dim, radius, bound):
    # batches shaped (arms, tasks, d) whose rows straddle the bound: writing
    # into the batch gives, bit for bit, each row clipped or projected alone
    # and the definition; rows under the bound keep their bits, and the
    # return value says whether any row was rescaled
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(size=dim), radius)
    v = _learner_batch(rng, arms, tasks, dim, dom.center, max(radius, 0.5))
    g = _learner_batch(rng, arms, tasks, dim, np.zeros(dim), max(bound, 0.5))
    scratch = RowScratch(v.shape)
    projected, clipped = v.copy(), g.copy()
    moved = project_in_place(projected, dom, scratch)
    cut = clip_norm_in_place(clipped, bound, scratch)
    offsets = v - dom.center
    outside = np.vecdot(offsets, offsets) > radius**2
    over = np.vecdot(g, g) > bound**2
    assert moved == outside.any() and cut == over.any()
    assert np.array_equal(projected[~outside], v[~outside])
    assert np.array_equal(clipped[~over], g[~over])
    assert np.array_equal(clipped, _rescaled_rows(g, bound))
    assert np.array_equal(projected[outside],
                          (dom.center + _rescaled_rows(offsets, radius))[outside])
    for i in np.ndindex(v.shape[:-1]):
        assert np.array_equal(projected[i], _project_copy(v[i], dom))
        assert np.array_equal(clipped[i], _clip_copy(g[i], bound))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arms=st.integers(1, 3), tasks=st.integers(1, 5),
       dim=st.integers(1, 6), radius=st.floats(0.01, 3.0))
def test_in_place_forms_on_a_reused_scratch_equal_a_fresh_one(seed, arms, tasks, dim,
                                                              radius):
    # a scratch that clipped, projected and measured other rows first leaves
    # nothing behind: each call then gives what it gives on a fresh scratch
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(size=dim), radius)
    shape = (arms, tasks, dim)
    used = RowScratch(shape)
    for _ in range(3):
        project_in_place(_learner_batch(rng, arms, tasks, dim, dom.center, 2 * radius),
                         dom, used)
        clip_norm_in_place(_learner_batch(rng, arms, tasks, dim, np.zeros(dim), radius),
                           radius, used)
    v = _learner_batch(rng, arms, tasks, dim, dom.center, radius)
    w = rng.normal(size=shape)
    for call in (lambda x, s: project_in_place(x, dom, s),
                 lambda x, s: clip_norm_in_place(x, radius, s)):
        again, fresh = v.copy(), v.copy()
        assert call(again, used) == call(fresh, RowScratch(shape))
        assert np.array_equal(again, fresh)
    assert np.array_equal(dist_sq_into(v, w, used), dist_sq(v, w))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), radius=st.floats(0.01, 3.0),
       outside=st.lists(st.booleans(), min_size=2 * _FEW_ROWS, max_size=2 * _FEW_ROWS))
def test_in_place_few_row_path_equals_many_row_path(seed, dim, radius, outside):
    # up to _FEW_ROWS rows the row rule runs on Python floats, above it on
    # numpy calls: a batch of 2 * _FEW_ROWS rows, each inside or outside as
    # drawn, gives bit for bit what its slices of _FEW_ROWS rows and of one
    # row give, whether none, some or all of a slice's rows are over
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(size=dim), radius)
    offsets = rng.normal(size=(2 * _FEW_ROWS, dim))
    offsets *= (radius * np.where(outside, rng.uniform(1.01, 3.0, size=len(outside)),
                                  rng.uniform(0.0, 0.99, size=len(outside)))
                / np.linalg.norm(offsets, axis=-1))[:, None]
    for call, rows in ((lambda x, s: project_in_place(x, dom, s), dom.center + offsets),
                       (lambda x, s: clip_norm_in_place(x, radius, s), offsets)):
        whole = rows.copy()
        assert call(whole, RowScratch(whole.shape)) == any(outside)
        for size in (_FEW_ROWS, 1):
            for start in range(0, len(rows), size):
                part = rows[start:start + size].copy()
                call(part, RowScratch(part.shape))
                assert np.array_equal(part, whole[start:start + size])


def _exact_top_norm(rows, center) -> float:
    """An upper bound on the largest exact norm of rows - center, from the
    rational offsets: the float square and sqrt round by an ulp at most."""
    top = max(sum((Fraction(x) - Fraction(c)) ** 2 for x, c in zip(row, center))
              for row in rows)
    return math.sqrt(float(top)) * (1.0 + 4.0 * np.finfo(float).eps)


def _tightest_bound(norm, scale, dim):
    """The least float bound at which never_rescaled(norm, bound, scale,
    dim, 0) holds."""
    bound = norm
    while not never_rescaled(norm, bound, scale, dim, 0):
        bound = math.nextafter(bound + (bound - norm), math.inf)
    low = norm
    while math.nextafter(low, math.inf) < bound:
        mid = 0.5 * (low + bound)
        if mid <= low or mid >= bound:
            break
        if never_rescaled(norm, mid, scale, dim, 0):
            bound = mid
        else:
            low = mid
    return bound


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), dim=st.integers(1, 8),
       center_scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
       norm=st.floats(1e-3, 1e3))
def test_interior_rule_at_its_edge_leaves_rows_alone(seed, rows, dim, center_scale, norm):
    # rows at most a norm from the center, against the tightest bound the
    # rule certifies for them without any steps: the row rule's own
    # rounding (its subtraction, vecdot and squared bound) must not tip a
    # row over, in either in-place form
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=center_scale, size=dim)
    offsets = rng.normal(size=(rows, dim))
    offsets *= norm / np.sqrt(np.vecdot(offsets, offsets))[:, None]
    points = center + offsets
    scale = float(max(np.abs(points).max(), np.abs(center).max()))
    top = _exact_top_norm(points, center)
    radius = _tightest_bound(top, scale, dim)
    assert never_rescaled(top, radius, scale, dim, 0)
    assert not project_in_place(points.copy(), ParamDomain(center, radius),
                                RowScratch(points.shape))
    top = _exact_top_norm(offsets, np.zeros(dim))
    bound = _tightest_bound(top, float(np.abs(offsets).max()), dim)
    assert not clip_norm_in_place(offsets.copy(), bound, RowScratch(offsets.shape))


def test_interior_rule_counts_steps_and_refuses_non_finite():
    # the margin grows with the steps, so a norm certified for a few steps
    # is refused for many; a NaN or infinite norm or scale is refused
    eps = np.finfo(float).eps
    assert never_rescaled(1.0 - 1e-12, 1.0, 1.0, 2, 100)
    assert not never_rescaled(1.0 - 1e-12, 1.0, 1.0, 2, 10**6)
    assert never_rescaled(0.5, 1.0, 1.0, 3, int(0.01 / eps))
    for args in ((math.nan, 1.0, 1.0), (math.inf, math.inf, 1.0),
                 (0.5, 1.0, math.inf), (0.5, 1.0, math.nan), (0.5, math.nan, 1.0)):
        assert not never_rescaled(*args, 2, 1)


def test_in_place_forms_raise_before_writing():
    # a non-finite or overflowing row raises ValueError and leaves v as it was
    dom = ParamDomain(np.zeros(2), 1.0)
    scratch = RowScratch((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for bad in (np.nan, np.inf, 1e200):
            v = np.array([[2.0, 0.0], [bad, 0.0]])
            for call in (lambda: project_in_place(v, dom, scratch),
                         lambda: clip_norm_in_place(v, 1.0, scratch)):
                with pytest.raises(ValueError):
                    call()
                assert np.array_equal(v, [[2.0, 0.0], [bad, 0.0]], equal_nan=True)
    # squared norms whose sum, but no one of them, overflows are finite
    v = np.array([[1e154, 0.0], [0.0, -1e154]])
    assert clip_norm_in_place(v, 1.0, scratch)
    assert np.array_equal(v, [[1.0, 0.0], [0.0, -1.0]])
    # a bound whose Python square overflows binds no finite row
    v = np.array([[3.0, 4.0]])
    assert not clip_norm_in_place(v, 1e300, RowScratch((1, 2)))
    assert np.array_equal(v, [[3.0, 4.0]])


def test_dimension_mismatch_errors():
    dom = ParamDomain(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        dist_sq([1.0, 2.0], [1.0, 2.0, 3.0])
    # a batch with the wrong last axis
    with pytest.raises(ValueError):
        dom.contains(np.zeros((2, 5, 2)))
    with pytest.raises(ValueError):
        dist_sq(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        dist_sq(np.zeros((3, 0)), np.zeros((3, 0)))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        ParamDomain(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        ParamDomain(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])
    # a non-finite coordinate in one row of a batch
    dom = ParamDomain(np.zeros(2), 1.0)
    for bad in (np.inf, -np.inf, np.nan):
        batch = np.zeros((2, 3, 2))
        batch[1, 2, 0] = bad
        with pytest.raises(ValueError):
            _project_copy(batch, dom)
        with pytest.raises(ValueError):
            _clip_copy(batch, 1.0)
        with pytest.raises(ValueError):
            dist_sq(batch, np.zeros(2))
        with pytest.raises(ValueError):
            dom.contains(batch)
    # finite coordinates whose squared norm overflows raise too
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError):
            _project_copy([[0.5, 0.0], [1e200, 0.0]], dom)
        with pytest.raises(ValueError):
            _clip_copy([[0.5, 0.0], [1e200, 0.0]], 1.0)


_COORDS = st.sampled_from([0.0, 1.0, -3.5, 1e8, -7e12, 2.5e15]) | st.floats(-1e16, 1e16)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 10), data=st.data(),
       radius=st.sampled_from([0.0, 1e-9]) | st.floats(1e-12, 1e6))
def test_config_and_param_domain_agree_on_membership(dim, data, radius):
    # config decides ball membership on Python floats (calibration.Ball,
    # which build_config checks phi_init and planted_center with), the run
    # path with ParamDomain.contains; both must give one answer, so a config
    # that validates never fails on the run path. Along a ray from the
    # center, bisection finds where the config's answer flips, at about the
    # reach radius * (1 + GEOM_RTOL) + slack; the points a few ulps of the
    # ray's length either side of it are checked, around centers whose large
    # coordinates make the rounding slack matter
    center = data.draw(st.lists(_COORDS, min_size=dim, max_size=dim))
    direction = data.draw(st.lists(st.integers(-1000, 1000), min_size=dim, max_size=dim))
    if not any(direction):
        direction[0] = 1
    ball, dom = Ball(tuple(center), radius), ParamDomain(np.array(center), radius)

    def at(t):
        return [c + u * t for c, u in zip(center, direction)]

    lo, hi = 0.0, 4.0 * ball_reach(center, radius)
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if ball.contains(at(mid)) else (lo, mid)
    ts = [lo]
    for _ in range(4):
        ts = [math.nextafter(ts[0], 0.0)] + ts + [math.nextafter(ts[-1], math.inf)]
    for t in ts:
        point = at(t)
        inside = dom.contains(np.array(point))
        assert ball.contains(point) == inside
        if radius > 0:
            items = {"dim": str(dim), "domain_radius": format_value(radius),
                     "domain_center": ",".join(map(format_value, center)),
                     "phi_init": ",".join(map(format_value, point)),
                     "similarity_v": "0", "samples_per_task": "10", "t_train": "1",
                     "epsilon": "1", "delta": "0.1", "master_seed": "1"}
            try:
                build_config(items)
                accepted = True
            except ValueError as exc:
                assert exc.violations == ["phi_init lies outside the domain"]
                accepted = False
            assert accepted == inside
    # the batch form holds exactly when every point of the batch is inside:
    # the points straddling the flip, and those of them the ball contains
    points = [at(t) for t in ts]
    assert dom.contains(np.array(points)) == all(ball.contains(p) for p in points)
    kept = [p for p in points if ball.contains(p)]
    if kept:
        assert dom.contains(np.array(kept).reshape(len(kept), 1, dim))


def test_as_vector_copies():
    src = np.array([1.0, 2.0])
    v = as_vector(src)
    v[0] = 99.0
    assert src[0] == 1.0
