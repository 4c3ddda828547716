import copy
import math
import tracemalloc
import zlib

from hypothesis import event, given, settings, strategies as st
import numpy as np
import pytest

from dpmeta import task_env
from dpmeta.calibration import Ball, Environment
from dpmeta.geometry import ParamDomain, dist_sq
from dpmeta.losses import logistic_excess
from dpmeta.task_env import (EnvSpec, derive_seed, draw_tasks,
                             empirical_task_variance, generate_losses, population_risk_gap, sample_task,
                             substream, substreams)

BIG_DOM = ParamDomain(np.zeros(4), 50.0)


def quad_env(**overrides):
    base = dict(domain=BIG_DOM, planted_center=np.zeros(4), similarity_v=1.0,
                samples_per_task=20, curvature=1.0, sample_noise_std=0.0)
    base.update(overrides)
    return EnvSpec(**base)


def test_zero_similarity_pins_minimizer():
    env = quad_env(similarity_v=0.0, planted_center=np.array([1.0, 2.0, 0.0, 0.0]))
    for seed in range(5):
        task = sample_task(env, substream(seed, "t"))
        assert np.array_equal(task.theta_star, [1.0, 2.0, 0.0, 0.0])


def test_stream_layout_independent_of_similarity():
    # the task draw consumes the same randomness whether or not V is zero,
    # so downstream draws stay aligned across V values
    rng_a = substream(123, "layout")
    rng_b = substream(123, "layout")
    sample_task(quad_env(similarity_v=0.0), rng_a)
    sample_task(quad_env(similarity_v=1.0), rng_b)
    assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)


def test_dispersion_matches_similarity_squared():
    v = 1.5
    env = quad_env(similarity_v=v)
    rng = substream(7, "dispersion")
    draws = [sample_task(env, rng).theta_star for _ in range(10000)]
    realized = empirical_task_variance(draws, env.planted_center)
    # E||theta* - center||^2 = V^2; radius 50 makes projection irrelevant
    se = math.sqrt(2.0 / env.dim) * v**2 / math.sqrt(len(draws))
    assert abs(realized - v**2) < 5 * se


def test_sample_task_respects_domain():
    dom = ParamDomain(np.zeros(2), 1.0)
    env = EnvSpec(domain=dom, planted_center=np.array([0.9, 0.0]),
                  similarity_v=1.0, samples_per_task=5)
    rng = substream(3, "proj")
    for _ in range(200):
        assert dom.contains(sample_task(env, rng).theta_star)


def test_noiseless_anchors_equal_minimizer():
    env = quad_env(similarity_v=0.5, samples_per_task=8)
    task = sample_task(env, substream(1, "a"))
    samples = generate_losses(task, env, substream(1, "b"))
    assert samples.points.shape == (8, 4)
    for anchor in samples.points:
        assert np.array_equal(anchor, task.theta_star)
    assert samples.curvature == env.curvature


def test_noisy_anchors_center_on_minimizer():
    env = quad_env(similarity_v=0.0, samples_per_task=4000, sample_noise_std=0.3)
    task = sample_task(env, substream(2, "a"))
    samples = generate_losses(task, env, substream(2, "b"))
    anchors = samples.points
    mean_anchor = anchors.mean(axis=0)
    se = 0.3 / math.sqrt(4000)
    assert np.all(np.abs(mean_anchor - task.theta_star) < 5 * se)
    # gradient of the empirical loss vanishes exactly at the mean anchor
    grad_sum = sum(samples.grad(mean_anchor, j) for j in range(samples.count))
    assert np.max(np.abs(grad_sum)) < 1e-9
    assert abs(anchors.std() - 0.3) < 0.02


def test_losses_deterministic_per_stream():
    env = quad_env(sample_noise_std=0.2)
    task = sample_task(env, substream(9, "t"))
    a = generate_losses(task, env, substream(9, "l"))
    b = generate_losses(task, env, substream(9, "l"))
    for la, lb in zip(a.points, b.points):
        assert np.array_equal(la, lb)
    c = generate_losses(task, env, substream(10, "l"))
    assert not np.array_equal(a.points[0], c.points[0])


def _onto_ball(rows, dom):
    """rows, shaped (..., d), projected onto dom row by row from the
    definition: a row whose squared offset from the center exceeds radius**2
    becomes center + offset * (radius / norm); the other rows are kept."""
    out = np.array(rows, dtype=np.float64)
    for i in np.ndindex(out.shape[:-1]):
        offset = out[i] - dom.center
        nsq = np.vecdot(offset, offset)
        if nsq > dom.radius**2:
            out[i] = dom.center + offset * (dom.radius / np.sqrt(nsq))
    return out


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@pytest.mark.parametrize("noise_std", [0.0, 0.7, 0.05])
@pytest.mark.parametrize("kept", [False, True, "zeros"])
def test_draw_tasks_equals_single_task_draws(family, noise_std, kept, monkeypatch):
    # a pass of tasks drawn at once must equal sample_task and
    # generate_losses task by task, bit for bit; radius 1 and anchor noise
    # 0.7 make the projection bind on some minimizers and anchors, not all.
    # Anchor noise 0.05 leaves some tasks' anchors certified inside the
    # ball and projects the others', in one pass. A task that keeps only
    # its sample 0 draws a single anchor row
    dom = ParamDomain(np.array([0.2, 0.0, -0.1]), 1.0)
    env = EnvSpec(domain=dom, planted_center=np.array([0.6, 0.1, -0.1]),
                  similarity_v=0.9, samples_per_task=9, loss_family=family,
                  sample_noise_std=noise_std, feature_norm=1.5)
    tasks = 6
    keep = None
    if kept == "zeros":
        keep = np.zeros((tasks, 4), dtype=np.int64)
    elif kept:
        keep = np.random.default_rng(3).integers(0, 9, size=(tasks, 4))
    verdicts = []
    real_rule = task_env.never_rescaled

    def spy_rule(*args):
        verdicts.append(real_rule(*args))
        return verdicts[-1]

    monkeypatch.setattr(task_env, "never_rescaled", spy_rule)
    stars, batch = draw_tasks(env, (substream(5, "t", t) for t in range(tasks)),
                              (substream(5, "s", t) for t in range(tasks)), keep)
    monkeypatch.undo()
    if family == "quadratic" and noise_std == 0.05:
        assert 0 < sum(verdicts) < tasks == len(verdicts)
    assert stars.shape == (tasks, 3)
    assert batch.points.shape == (4 if kept else 9, tasks, 3)
    for t in range(tasks):
        task = sample_task(env, substream(5, "t", t))
        one = generate_losses(task, env, substream(5, "s", t))
        rows = slice(None) if keep is None else keep[t]
        assert stars[t].tobytes() == task.theta_star.tobytes()
        assert batch.points[:, t].tobytes() == one.points[rows].tobytes()
        if family == "logistic":
            assert batch.labels[:, t].tobytes() == one.labels[rows].tobytes()
            continue
        assert batch.curvature == one.curvature == env.curvature
        # the quadratic model written out, one task at a time
        rng = substream(5, "t", t)
        star = _onto_ball(env.planted_center + 0.9 / math.sqrt(3) * rng.normal(size=3), dom)
        rng = substream(5, "s", t)
        offsets = rng.normal(0.0, noise_std, size=(9, 3)) if noise_std else 0.0
        anchors = _onto_ball(np.broadcast_to(star + offsets, (9, 3)), dom)
        assert star.tobytes() == stars[t].tobytes()
        assert anchors[rows].tobytes() == batch.points[:, t].tobytes()
    if family == "quadratic" and noise_std and kept != "zeros":
        on_sphere = np.isclose(np.sqrt(dist_sq(dom.center, batch.points)), dom.radius,
                               rtol=1e-12, atol=0.0)
        assert 0 < on_sphere.sum() < on_sphere.size
    # with an arms axis, every arm's rows are the pass's anchors; logistic
    # samples take no arms axis
    def layered():
        return draw_tasks(env, (substream(5, "t", t) for t in range(tasks)),
                          (substream(5, "s", t) for t in range(tasks)), keep, arms=3)[1]

    if family == "logistic":
        with pytest.raises(ValueError, match="arms axis"):
            layered()
        return
    arms = layered().points
    assert arms.shape == batch.points.shape[:2] + (3, 3)
    for a in range(3):
        assert arms[:, :, a].tobytes() == batch.points.tobytes()


@pytest.mark.numpy_floor
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       center_scale=st.sampled_from([0.0, 1.0, 1e3]), radius=st.floats(0.3, 5.0),
       v_share=st.floats(0.0, 1.0), noise_std=st.floats(0.01, 1.0),
       kept=st.booleans())
def test_interior_anchors_skip_only_idle_projections(seed, dim, center_scale, radius,
                                                     v_share, noise_std, kept):
    # a task whose anchors are certified inside the ball skips their
    # projection; drawn with every projection called instead, the same
    # task's projection moves no row, and every anchor has the same bits
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=center_scale, size=dim)
    env = EnvSpec(domain=ParamDomain(center, radius),
                  planted_center=center + 0.3 * radius * rng.uniform(-1, 1, size=dim) / math.sqrt(dim),
                  similarity_v=v_share * radius, samples_per_task=20,
                  sample_noise_std=noise_std)
    tasks = 5
    keep = rng.integers(0, 20, size=(tasks, 6)) if kept else None

    def draw():
        return draw_tasks(env, substreams(seed, "t", count=tasks),
                          substreams(seed, "s", count=tasks), keep)

    verdicts, moved = [], []
    with pytest.MonkeyPatch.context() as mp:
        real_rule = task_env.never_rescaled

        def spy_rule(*args):
            verdicts.append(real_rule(*args))
            return verdicts[-1]

        mp.setattr(task_env, "never_rescaled", spy_rule)
        stars, batch = draw()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(task_env, "never_rescaled", lambda *args: False)
        real_project = task_env.project_in_place

        def spy_project(v, *args):
            moved.append(real_project(v, *args))
            return moved[-1]

        mp.setattr(task_env, "project_in_place", spy_project)
        ref_stars, ref_batch = draw()
    assert stars.tobytes() == ref_stars.tobytes()
    assert batch.points.tobytes() == ref_batch.points.tobytes()
    # the first projection is the minimizers', then one per task
    assert len(verdicts) == tasks and len(moved) == tasks + 1
    assert not any(certified and acted for certified, acted in zip(verdicts, moved[1:]))
    event(f"tasks certified: {sum(verdicts)} of {tasks}")


@pytest.mark.numpy_floor
def test_interior_anchors_skip_projection_well_inside():
    # criterion 09's anchors (noise 0.05 about the center of the unit ball)
    # are certified for every task, and a ball they overflow for none
    seen = []
    for radius, noise_std in ((1.0, 0.05), (1.0, 5.0)):
        env = EnvSpec(domain=ParamDomain(np.zeros(2), radius), planted_center=np.zeros(2),
                      similarity_v=0.0, samples_per_task=1900, sample_noise_std=noise_std)
        verdicts = []
        real_rule = task_env.never_rescaled

        def spy_rule(*args):
            verdicts.append(real_rule(*args))
            return verdicts[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(task_env, "never_rescaled", spy_rule)
            draw_tasks(env, substreams(1, "t", count=4), substreams(1, "s", count=4), None)
        seen.append(verdicts)
    assert seen == [[True] * 4, [False] * 4]


@pytest.mark.numpy_floor
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40),
       m=st.sampled_from([1, 2, 100, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]))
def test_bounded_indices_are_generator_integers(seed, n, m):
    # on twin generators, ceil(n / 2) raw words through _bounded_indices
    # give the indices Generator.integers(0, m, size=n) gives, unless the
    # task is flagged, and the standard normals drawn next are the same.
    # For m in [2, 2**32) a task is flagged exactly where integers read
    # more than n 32-bit halves (Lemire's redraw): more words, or for odd n
    # the last word's high half, which PCG64 keeps for its next 32-bit
    # output. Outside that range every task is flagged. m = 2**31 + 1
    # redraws about half the draws
    words, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    raw = words.bit_generator.random_raw((n + 1) // 2)
    indices, flagged = task_env._bounded_indices(raw[None], m, n)
    assert indices.shape == (1, n) and indices.dtype == np.int64 and flagged.shape == (1,)
    want = ref.integers(0, m, size=n)
    state = ref.bit_generator.state
    read_n_halves = (words.bit_generator.state["state"] == state["state"]
                     and state["has_uint32"] == n % 2)
    if 2 <= m < 2**32:
        assert bool(flagged[0]) == (not read_n_halves)
    else:
        assert flagged[0]
    event(f"m = {m}: {'flagged' if flagged[0] else 'taken'}, n {'odd' if n % 2 else 'even'}")
    if not flagged[0]:
        assert indices[0].tobytes() == want.tobytes()
        assert words.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


def test_draw_tasks_validates_kept_indices():
    env = quad_env(samples_per_task=5)
    for keep in ([[0, 5]], [[-1, 0]], [[0, 1], [1, 2]], [[]], [0, 1]):
        with pytest.raises(ValueError):
            draw_tasks(env, [substream(0, "t")], [substream(0, "s")], keep)


def test_quadratic_risk_gap_closed_form():
    env = quad_env(similarity_v=0.0, curvature=2.0,
                   planted_center=np.array([1.0, 0.0, 0.0, 0.0]))
    stars = np.stack([sample_task(env, substream(0, "t")).theta_star])
    assert np.array_equal(population_risk_gap(env, stars, stars), [0.0])
    gap = population_risk_gap(env, stars, np.array([[3.0, 0.0, 0.0, 0.0]]))
    assert gap.shape == (1,)
    assert abs(gap[0] - 0.5 * 2.0 * 4.0) < 1e-12


def test_logistic_generation_shape():
    dom = ParamDomain(np.zeros(3), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0, 0.0]),
                  similarity_v=0.2, samples_per_task=500,
                  loss_family="logistic", feature_norm=2.5)
    task = sample_task(env, substream(4, "t"))
    samples = generate_losses(task, env, substream(4, "l"))
    assert samples.points.shape == (500, 3)
    assert samples.labels.shape == (500,)
    labels = set()
    for feature, label in zip(samples.points, samples.labels):
        assert abs(np.linalg.norm(feature) - 2.5) < 1e-12
        labels.add(label)
    assert labels == {1.0, -1.0}


def test_logistic_labels_follow_model():
    # along a strong minimizer, positive-margin features should mostly get +1
    dom = ParamDomain(np.zeros(2), 3.0)
    env = EnvSpec(domain=dom, planted_center=np.array([3.0, 0.0]),
                  similarity_v=0.0, samples_per_task=4000,
                  loss_family="logistic", feature_norm=3.0)
    task = sample_task(env, substream(5, "t"))
    samples = generate_losses(task, env, substream(5, "l"))
    margins = np.array([label * float(feature @ task.theta_star)
                        for feature, label in zip(samples.points, samples.labels)])
    # mean of label*margin is positive and matches E[tanh(|margin|/2)|margin|]
    # well away from zero
    assert margins.mean() > 1.0


def test_logistic_labels_saturate_without_overflow():
    # margins past 710 overflow exp(-margin); the label draw must still read
    # sigmoid(margin) as 0 or 1 there, with no RuntimeWarning (an error here)
    dom = ParamDomain(np.zeros(2), 10.0)
    env = EnvSpec(domain=dom, planted_center=np.array([9.0, 0.0]),
                  similarity_v=0.5, samples_per_task=400,
                  loss_family="logistic", feature_norm=100.0)
    task = sample_task(env, substream(8, "t"))
    samples = generate_losses(task, env, substream(8, "l"))
    margins = samples.points @ task.theta_star
    assert (np.abs(margins) > 710).any()
    far = np.abs(margins) > 40
    assert np.array_equal(samples.labels[far], np.sign(margins[far]))


def test_logistic_risk_gap_paired_zero_at_optimum():
    dom = ParamDomain(np.zeros(2), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 1.0]),
                  similarity_v=0.0, samples_per_task=5,
                  loss_family="logistic")
    stars = np.stack([sample_task(env, substream(6, "t")).theta_star])
    est = population_risk_gap(env, stars, stars, 100, substream(6, "mc"))
    assert np.array_equal(est, [0.0])
    # the minimizer among other points, at any row of the product
    points = np.stack([np.zeros((1, 2)), stars, [[1.0, -1.0]], -stars, stars,
                       np.full((1, 2), 0.5)])
    est = population_risk_gap(env, stars, points, 100, substream(6, "mc"))
    assert np.array_equal(est[[1, 4]], [[0.0], [0.0]])
    assert (np.delete(est, [1, 4]) > 0.0).all()
    est2 = population_risk_gap(env, stars, np.zeros((1, 2)), 20000,
                               substream(6, "mc2"))
    assert est2[0] > 0.0


def test_risk_gap_batch_equals_separate_calls():
    # scoring several points against one draw gives each point exactly what a
    # separate call with an identically seeded generator gives it
    dom = ParamDomain(np.zeros(3), 2.0)
    thetas = substream(8, "points").uniform(-1, 1, size=(2, 3, 1, 3))
    for family in ("quadratic", "logistic"):
        env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0, 0.0]),
                      similarity_v=0.3, samples_per_task=5, loss_family=family)
        stars = np.stack([sample_task(env, substream(8, "t")).theta_star])
        mc = dict(mc_samples=500) if family == "logistic" else {}
        batch = population_risk_gap(env, stars, thetas, rng=substream(8, "mc"), **mc)
        assert batch.shape == (2, 3, 1)
        for i in range(2):
            for j in range(3):
                one = population_risk_gap(env, stars, thetas[i, j],
                                          rng=substream(8, "mc"), **mc)
                assert batch[i, j] == one


def _eval_tasks(family, count):
    """An environment and the minimizers of count tasks drawn from it."""
    dom = ParamDomain(np.zeros(3), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0, 0.0]),
                  similarity_v=0.5, samples_per_task=5, loss_family=family,
                  curvature=1.5)
    return env, np.stack([sample_task(env, substream(21, "t", e)).theta_star
                          for e in range(count)])


@pytest.mark.parametrize("tasks", [1, 2, 4])
@pytest.mark.parametrize("arms", [1, 3])
@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_task_batch_equals_separate_calls(family, arms, tasks):
    # every task is scored over the one feature sample of the call, so
    # column e is exactly the call for task e alone with an identically
    # seeded generator, whatever the number of tasks beside it
    env, stars = _eval_tasks(family, tasks)
    thetas = substream(21, "points").uniform(-1, 1, size=(arms, tasks, 3))
    mc = dict(mc_samples=400) if family == "logistic" else {}
    batch = population_risk_gap(env, stars, thetas, rng=substream(21, "mc"), **mc)
    assert batch.shape == (arms, tasks)
    for e in range(tasks):
        one = population_risk_gap(env, stars[e:e + 1], thetas[:, e:e + 1],
                                  rng=substream(21, "mc"), **mc)
        assert np.array_equal(batch[:, e:e + 1], one)


@pytest.mark.numpy_floor
def test_logistic_risk_allocates_one_workspace_whatever_the_task_count():
    # the margins of one task, a block of (points + 1) * mc_samples floats,
    # and its workspace are allocated once per call and overwritten task by
    # task. The call's peak is then about three blocks (margins, the result
    # and one scratch array, plus the star rows and the features); a form
    # that allocates the margins and the temporaries of the excess per task
    # peaks above four blocks here. Growth with the task count is bounded by
    # the call's own copy of theta and its result
    points, dim, mc = 15, 2, 2000
    env = EnvSpec(domain=ParamDomain(np.zeros(dim), 2.0), planted_center=np.zeros(dim),
                  similarity_v=0.5, samples_per_task=5, loss_family="logistic")
    block = (points + 1) * mc * 8

    def peak(tasks):
        draw = substream(4, "points", tasks)
        stars = draw.uniform(-0.5, 0.5, (tasks, dim))
        thetas = draw.uniform(-0.5, 0.5, (points, tasks, dim))
        rng = substream(4, "mc")
        tracemalloc.start()
        try:
            population_risk_gap(env, stars, thetas, mc, rng)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, many = peak(1), peak(50)
    assert many <= 3.75 * block
    assert abs(many - one) <= 50 * points * (dim + 1) * 8


def test_task_batch_validation():
    env, stars = _eval_tasks("logistic", 6)
    thetas = np.zeros((2, 6, 3))
    rng = substream(0, "mc")
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, thetas, 1, rng)
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, thetas, 2.5, rng)
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, thetas)
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, thetas, 100)
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, thetas[:, :5], 100, rng)
    with pytest.raises(ValueError):
        population_risk_gap(env, stars[:5], thetas, 100, rng)
    with pytest.raises(ValueError):
        population_risk_gap(env, stars[:, :2], thetas[..., :2], 100, rng)
    with pytest.raises(ValueError):
        population_risk_gap(env, stars[0], thetas[:, 0], 100, rng)


def _label_sampling_gaps(env, theta_star, thetas, count, rng):
    """The label-sampling Monte Carlo estimator, written out: per draw, a
    feature uniform on the sphere, a label from the logistic model at
    theta_star, and the loss gap of each theta; returns each theta's mean
    gap and its standard error."""
    raw = rng.standard_normal((count, env.dim))
    features = env.feature_norm * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    star_margins = features @ theta_star
    labels = np.where(rng.random(count) < 1.0 / (1.0 + np.exp(-star_margins)),
                      1.0, -1.0)
    star_losses = np.logaddexp(0.0, -labels * star_margins)
    gaps = np.logaddexp(0.0, -labels * (features @ thetas.T).T) - star_losses
    return gaps.mean(axis=-1), gaps.std(axis=-1, ddof=1) / math.sqrt(count)


@pytest.mark.numpy_floor
@pytest.mark.parametrize("dim, feature_norm", [(2, 1.0), (5, 1.0), (5, 4.0)])
def test_logistic_risk_gap_agrees_with_label_sampling(dim, feature_norm):
    # integrating the label out changes the estimator, not what it
    # estimates: both means agree within their combined standard error, and
    # the integrated one is the mean of logistic_excess over the features
    dom = ParamDomain(np.zeros(dim), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.r_[1.0, np.zeros(dim - 1)],
                  similarity_v=0.5, samples_per_task=5, loss_family="logistic",
                  feature_norm=feature_norm)
    star = sample_task(env, substream(31, "t", dim)).theta_star
    points = np.stack([np.zeros(dim), -star, star + 0.3,
                       substream(31, "points", dim).uniform(-1, 1, size=dim)])
    count = 200_000
    rng = substream(31, "mc", dim)
    features = task_env._sphere_features(env, count, copy.deepcopy(rng))
    gaps = population_risk_gap(env, star[None], points[:, None], count, rng)[:, 0]
    per_draw = logistic_excess(np.stack([features @ p for p in points]), features @ star)
    assert np.allclose(gaps, per_draw.mean(axis=-1), rtol=1e-12, atol=0.0)
    stderr = per_draw.std(axis=-1, ddof=1) / math.sqrt(count)
    sampled, sampled_stderr = _label_sampling_gaps(env, star, points, count,
                                                   substream(31, "labels", dim))
    assert (gaps > 0).all()
    assert (np.abs(gaps - sampled) <= 4 * np.hypot(stderr, sampled_stderr)).all()
    # the label's variance is gone: the integrated estimate is the tighter
    assert (stderr < sampled_stderr).all()


@pytest.mark.parametrize("feature_norm", [1.0, 2.5])
def test_logistic_draw_matches_the_reference_formula(feature_norm):
    # the draw uses standard_normal, an unrolled norm and in-place scaling;
    # it must equal the plain formula on the same stream bit for bit
    dom = ParamDomain(np.zeros(4), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, -0.5, 0.0, 0.3]),
                  similarity_v=0.4, samples_per_task=5, loss_family="logistic",
                  feature_norm=feature_norm)
    task = sample_task(env, substream(12, "t"))
    rng = substream(12, "draw")
    ref_rng = copy.deepcopy(rng)
    features, labels = task_env._logistic_draw(env, task.theta_star, 3000, rng)
    raw = ref_rng.normal(0.0, 1.0, size=(3000, 4))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    ref_features = feature_norm * raw / norms
    ref_margins = ref_features @ task.theta_star
    p_plus = 1.0 / (1.0 + np.exp(-ref_margins))
    ref_labels = np.where(ref_rng.random(3000) < p_plus, 1.0, -1.0)
    assert features.tobytes() == ref_features.tobytes()
    assert labels.tobytes() == ref_labels.tobytes()
    assert set(labels) == {1.0, -1.0}
    # both generators consumed the same number of draws
    assert rng.random() == ref_rng.random()


def test_logistic_gap_needs_mc_arguments():
    dom = ParamDomain(np.zeros(2), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.zeros(2), similarity_v=0.0,
                  samples_per_task=5, loss_family="logistic")
    stars = np.stack([sample_task(env, substream(0, "t")).theta_star])
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, np.zeros((1, 2)), rng=substream(0, "mc"))
    with pytest.raises(ValueError):
        population_risk_gap(env, stars, np.zeros((1, 2)), 1, substream(0, "mc"))


def test_empirical_task_variance_examples():
    stars = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    assert empirical_task_variance(stars, np.zeros(2)) == 1.0
    assert empirical_task_variance(stars, np.array([1.0, 0.0])) == 2.0
    with pytest.raises(ValueError):
        empirical_task_variance([], np.zeros(2))


def test_substreams_stable_and_distinct():
    a = substream(42, "train-task", 3).integers(0, 2**63)
    b = substream(42, "train-task", 3).integers(0, 2**63)
    assert a == b
    others = {
        substream(42, "train-task", 4).integers(0, 2**63),
        substream(42, "train-losses", 3).integers(0, 2**63),
        substream(43, "train-task", 3).integers(0, 2**63),
    }
    assert a not in others
    assert len(others) == 3


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(42, "sweep", "V", "0.5")
    assert s1 == derive_seed(42, "sweep", "V", "0.5")
    assert 0 <= s1 < 2**64
    assert s1 != derive_seed(42, "sweep", "V", "1.0")
    assert s1 != derive_seed(43, "sweep", "V", "0.5")


@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("tags", [(), ("train-noise", 17), ("eval-risk", 2**32 + 5),
                                  ("t", -3), ("t", 0, 2**64 - 1)])
def test_substreams_equal_seed_sequences_of_python_ints(master_seed, tags):
    # the uint32 words handed to SeedSequence seed exactly the streams of the
    # Python ints [master_seed, *tags], strings taken by crc32 and ints mod
    # 2**64, as SeedSequence splits them itself
    ints = [master_seed] + [zlib.crc32(t.encode("utf-8")) if isinstance(t, str)
                            else t % 2**64 for t in tags]
    expected = np.random.default_rng(np.random.SeedSequence(ints))
    assert substream(master_seed, *tags).bit_generator.state == \
        expected.bit_generator.state
    assert derive_seed(master_seed, *tags) == int(
        np.random.SeedSequence(ints).generate_state(1, np.uint64)[0])


@pytest.mark.numpy_floor
@pytest.mark.parametrize("count", [0, 1, 2, 13])
@pytest.mark.parametrize("tags", [("train-noise",), ("sweep", "V"), (7,), (2**40, "x"),
                                  ("a", "b", "c", 2**50)])
@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_batched_substreams_equal_substream_calls(master_seed, tags, count):
    # the batch mixes SeedSequence's arithmetic on uint32 arrays; the last
    # two tag tuples make the entropy wider than SeedSequence's 4-word pool
    batch = [g.bit_generator.state for g in substreams(master_seed, *tags, count=count)]
    assert batch == [substream(master_seed, *tags, i).bit_generator.state
                     for i in range(count)]


@pytest.mark.numpy_floor
def test_batched_substreams_are_lazy_and_checked(monkeypatch):
    def unexpected(entropy):
        raise AssertionError("seeded before the first next()")

    monkeypatch.setattr(task_env, "_seed_states", unexpected)
    substreams(3, "eval-risk", count=5)  # a generator: nothing runs yet
    with pytest.raises(AssertionError):
        next(substreams(3, "eval-risk", count=5))
    monkeypatch.undo()
    for count in (-1, 1.5, 2**32 + 1):
        with pytest.raises(ValueError):
            next(substreams(3, "eval-risk", count=count))
    rng = next(substreams(3, "eval-risk", count=1))
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.generate_state(8)


def test_env_spec_validation():
    with pytest.raises(ValueError):
        quad_env(similarity_v=-0.5)
    with pytest.raises(ValueError):
        quad_env(similarity_v=60.0)  # exceeds radius
    with pytest.raises(ValueError):
        quad_env(samples_per_task=0)
    with pytest.raises(ValueError):
        quad_env(curvature=0.0)
    with pytest.raises(ValueError):
        quad_env(sample_noise_std=-0.1)
    with pytest.raises(ValueError):
        quad_env(loss_family="linear")
    with pytest.raises(ValueError):
        quad_env(planted_center=np.full(4, 40.0))  # norm 80 > radius 50
    bad = [("feature_norm", 0.0), ("feature_norm", math.inf)]
    bad += [(name, value) for name in ("similarity_v", "curvature", "sample_noise_std")
            for value in (math.nan, math.inf)]
    for name, value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be finite and "):
            quad_env(**{name: value})
    # tuple planted centers, as config passes them: of the wrong dimension,
    # not 1-D, non-finite, or on a domain with a tuple center
    for center in [(0.0, 0.0, 0.0), (0.0,) * 5]:
        with pytest.raises(ValueError, match="^expected vectors of dimension 4, got "):
            quad_env(planted_center=center)
    with pytest.raises(ValueError, match="^planted_center must be a 1-D vector of numbers"):
        quad_env(planted_center=((0.0,) * 4,))
    with pytest.raises(ValueError, match="^vector has non-finite coordinates"):
        quad_env(planted_center=(math.nan, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^expected vectors of dimension 2, got "):
        Environment(Ball((0.0, 0.0), 1.0), (0.0, 0.0, 0.0), 0.1, 10)
