import math
import tracemalloc

from hypothesis import event, given, settings, strategies as st
import numpy as np
import pytest

import dpmeta.learners
from dpmeta.geometry import (ParamDomain, RowScratch, clip_norm_in_place, dist_sq,
                             project_in_place)
from dpmeta.learners import (LearnerOutput, OgdConfig, StepWorkspace,
                             adaptation_step_size, idle_calls, noisy_sgd_run,
                             noisy_sgd_steps, ogd_run, private_step_scale)
from dpmeta.losses import (TaskSamples, logistic_regularity, quadratic_regularity,
                           quadratic_value, sigmoid)
from dpmeta.privacy import NoisySgdPlan, PrivacyParams, sample_step_noise

DOM = ParamDomain(np.zeros(2), 10.0)


def quad(anchors, curvature=1.0):
    return TaskSamples(np.array(anchors, dtype=float), curvature=curvature)


def _stepped(visits, init, plan, dom, noise, shape, **flags) -> LearnerOutput:
    """noisy_sgd_steps in a fresh workspace of iterates shaped shape: the
    average it wrote and returned, and the theta_n it left in the
    workspace."""
    work = StepWorkspace(shape, dom, plan.step_size)
    average = noisy_sgd_steps(visits, init, plan, dom, noise, work, np.empty(shape),
                              **flags)
    return LearnerOutput(averaged_iterate=average, final_iterate=work.theta)


def test_ogd_minimizer_is_fixed_point():
    # start at the shared anchor: every gradient vanishes, nothing moves
    anchor = np.array([0.5, -0.5])
    samples = quad([anchor] * 10)
    out = ogd_run(samples, anchor, OgdConfig(0.1, 10), DOM)
    assert np.allclose(out.averaged_iterate, anchor, rtol=1e-12)
    assert np.allclose(out.final_iterate, anchor, rtol=1e-12)


def test_ogd_single_loss_average_is_init():
    # the average covers only the points gradients were evaluated at
    init = np.array([2.0, 0.0])
    out = ogd_run(quad([[0.0, 0.0]]), init, OgdConfig(0.5, 1), DOM)
    assert np.array_equal(out.averaged_iterate, init)
    assert np.allclose(out.final_iterate, [1.0, 0.0], rtol=1e-12)


def test_ogd_two_step_hand_rolled():
    dom1 = ParamDomain(np.zeros(1), 10.0)
    out = ogd_run(quad([[0.0], [0.0]]), [1.0], OgdConfig(0.5, 2), dom1)
    # iterates visited: 1.0, then 1 - 0.5*1 = 0.5; average 0.75
    assert np.allclose(out.averaged_iterate, [0.75], rtol=1e-12)
    assert np.allclose(out.final_iterate, [0.25], rtol=1e-12)


def test_ogd_projection_keeps_iterates_feasible():
    # step 0.9 at curvature 5 overshoots the anchor every step; the endpoint of
    # every prefix is that prefix's last iterate, so all of them must be feasible
    dom = ParamDomain(np.zeros(2), 1.0)
    anchors = np.tile([0.9, 0.0], (30, 1))
    for k in range(1, len(anchors) + 1):
        out = ogd_run(quad(anchors[:k], 5.0), [-0.9, 0.1], OgdConfig(0.9, k), dom)
        assert np.linalg.norm(out.final_iterate) <= dom.radius * (1 + 1e-12)
        assert np.linalg.norm(out.averaged_iterate) <= dom.radius * (1 + 1e-12)


def test_ogd_validation():
    with pytest.raises(ValueError):
        ogd_run(quad(np.empty((0, 2))), [0.0, 0.0], OgdConfig(0.1), DOM)
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0]]), [0.0, 0.0],
                OgdConfig(0.1, 5), DOM)  # num_steps mismatch
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0]]), [20.0, 0.0],
                OgdConfig(0.1, 1), DOM)  # init outside
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0]]), [[0.0, 0.0], [20.0, 0.0]],
                OgdConfig(0.1, 1), DOM)  # one init of a batch outside
    with pytest.raises(ValueError):
        ogd_run(quad([[0.0, 0.0, 0.0]]), [0.0, 0.0],
                OgdConfig(0.1, 1), DOM)  # samples of another dimension
    with pytest.raises(ValueError):
        OgdConfig(0.0)
    with pytest.raises(ValueError):
        OgdConfig(0.1, 0)


def test_noisy_sgd_zero_noise_fixed_point():
    anchor = np.array([1.0, 1.0])
    samples = quad([anchor] * 5)
    plan = NoisySgdPlan(steps_n=4, step_size=0.3, noise_variance_sigma_sq=0.0,
                        clip_bound=10.0)
    out = noisy_sgd_run(samples, anchor, plan, DOM, np.random.default_rng(0))
    assert np.allclose(out.averaged_iterate, anchor, rtol=1e-12)


def test_noisy_sgd_deterministic_given_seed():
    rng = np.random.default_rng(22)
    samples = quad(rng.normal(size=(8, 2)))
    plan = NoisySgdPlan(steps_n=12, step_size=0.2, noise_variance_sigma_sq=0.5,
                        clip_bound=3.0)
    a = noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(99))
    b = noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(99))
    assert np.array_equal(a.averaged_iterate, b.averaged_iterate)
    assert np.array_equal(a.final_iterate, b.final_iterate)


def test_noisy_sgd_zero_noise_matches_plain_sgd_oracle():
    # independently coded projected SGD over a pinned index sequence
    rng = np.random.default_rng(23)
    dom = ParamDomain(np.zeros(3), 1.5)
    for trial in range(5):
        anchors = rng.normal(scale=0.5, size=(10, 3))
        init = rng.normal(scale=0.3, size=3)
        idx = rng.integers(0, 10, size=7)
        plan = NoisySgdPlan(steps_n=7, step_size=0.15,
                            noise_variance_sigma_sq=0.0, clip_bound=2.5)
        out = noisy_sgd_run(quad(anchors, 2.0), init, plan, dom,
                            np.random.default_rng(0), index_sequence=idx)

        theta = init.copy()
        visited = []
        for i in idx:
            visited.append(theta.copy())
            g = 2.0 * (theta - anchors[int(i)])
            norm = np.linalg.norm(g)
            if norm > 2.5:
                g = g * (2.5 / norm)
            theta = theta - 0.15 * g
            if np.linalg.norm(theta) > 1.5:
                theta = theta * (1.5 / np.linalg.norm(theta))
        oracle_avg = np.mean(visited, axis=0)
        assert np.allclose(out.averaged_iterate, oracle_avg, rtol=1e-12, atol=1e-15)
        assert np.allclose(out.final_iterate, theta, rtol=1e-12, atol=1e-15)


def test_noisy_sgd_clipping_binds_exactly():
    # far anchor makes the raw gradient exceed the clip bound; with zero noise
    # and no projection the realized step length is step_size * clip_bound
    dom = ParamDomain(np.zeros(2), 100.0)
    plan = NoisySgdPlan(steps_n=1, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=2.0)
    out = noisy_sgd_run(quad([[50.0, 0.0]]), [0.0, 0.0], plan, dom,
                        np.random.default_rng(0))
    step_len = np.linalg.norm(out.final_iterate - np.zeros(2))
    assert abs(step_len - 0.1 * 2.0) < 1e-12


def test_noisy_sgd_noise_actually_perturbs():
    samples = quad(np.zeros((4, 2)))
    plan = NoisySgdPlan(steps_n=10, step_size=0.1, noise_variance_sigma_sq=1.0,
                        clip_bound=5.0)
    a = noisy_sgd_run(samples, [1.0, 0.0], plan, DOM, np.random.default_rng(1))
    b = noisy_sgd_run(samples, [1.0, 0.0], plan, DOM, np.random.default_rng(2))
    assert not np.array_equal(a.averaged_iterate, b.averaged_iterate)


def test_noisy_sgd_index_sequence_validation():
    samples = quad(np.zeros((3, 2)))
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[0, 1, 2, 3])  # 3 out of range
    with pytest.raises(ValueError):
        noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                      index_sequence=[-1, 0, 1, 2])  # negative
    # only integer arrays and lists or tuples of Python ints are indices:
    # nothing is rounded, parsed, wrapped or overflows into one
    for bad in ([0.7, 1.9, 2.2, 0.0], [True, False, True, False], ["1", "0", "2", "0"],
                np.array([0.0, 1.0, 2.0, 0.0]), np.array([True, False, True, False]),
                [0, np.int64(1), 2, 0], "0120", 3, [[0, 1], [2, 0]],
                [0, 1, 2, 2**63], [0, 1, 2, 2**64],
                np.array([0, 1, 2, 2**63], dtype=np.uint64),
                np.array([0, 1, 2, -1], dtype=np.int8)):
        with pytest.raises(ValueError, match="index_sequence"):
            noisy_sgd_run(samples, [0.0, 0.0], plan, DOM, np.random.default_rng(0),
                          index_sequence=bad)
    spread = quad([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    runs = [noisy_sgd_run(spread, [1.0, 0.0], plan, DOM, np.random.default_rng(0),
                          index_sequence=good).averaged_iterate
            for good in ([0, 1, 2, 0], (0, 1, 2, 0), np.array([0, 1, 2, 0]),
                         np.array([0, 1, 2, 0], dtype=np.uint64),
                         np.array([0, 1, 2, 0], dtype=np.int8))]
    assert all(np.array_equal(run, runs[0]) for run in runs)
    # one task from one init only: two inits, or a batch of tasks, make
    # more than one problem, with or without a pinned index sequence
    tasks = quad(np.zeros((3, 2, 2)))
    for two, init in ((samples, [[0.0, 0.0]] * 2), (tasks, [0.0, 0.0])):
        for pinned in (None, [0, 1, 2, 0]):
            with pytest.raises(ValueError, match="one problem"):
                noisy_sgd_run(two, init, plan, DOM, np.random.default_rng(0),
                              index_sequence=pinned)


def test_ogd_regret_bound_small():
    # small-scale version of the averaged-iterate suboptimality certificate
    rng = np.random.default_rng(24)
    dom = ParamDomain(np.zeros(3), 1.0)
    G = 2.0 * dom.diameter
    eta = adaptation_step_size(0.5, 2.0, G, 50)
    for _ in range(20):
        star = rng.normal(size=3)
        star = star / np.linalg.norm(star) * rng.uniform(0, 1.0)
        samples = quad(np.stack([np.clip(star + rng.normal(scale=0.2, size=3), -1, 1)
                                 * 0.5 for _ in range(50)]), 2.0)
        init = rng.normal(size=3)
        init = init / np.linalg.norm(init) * rng.uniform(0, 1.0)
        out = ogd_run(samples, init, OgdConfig(eta, 50), dom)
        emp = lambda th: float(np.mean(quadratic_value(th, samples.points, 2.0)))
        sub = emp(out.averaged_iterate) - emp(star)
        bound = dist_sq(init, star) / (2 * eta * 50) + eta * G**2 / 2
        assert sub <= bound


def test_private_step_scale_frozen_examples():
    priv = PrivacyParams(1.0, 1e-5)
    assert abs(private_step_scale(1.0, 1.0, 10, 800, priv)
               - 4.242640687119285) < 1e-12
    tight = PrivacyParams(0.01, 1e-5)
    assert abs(private_step_scale(1.0, 1.0, 10, 800, tight)
               - 160.94745197170104) < 1e-10
    # scale is inversely proportional to the growth constant
    assert abs(private_step_scale(1.0, 2.0, 10, 800, priv)
               - 4.242640687119285 / 2) < 1e-12


def test_private_step_scale_variants():
    priv = PrivacyParams(1.0, 1e-5)
    # with G = 1 the variants coincide; with G != 1 they differ in the
    # statistical branch
    assert (private_step_scale(1.0, 1.0, 10, 800, priv, "sqrt_m")
            == private_step_scale(1.0, 1.0, 10, 800, priv, "g_sqrt_m"))
    a = private_step_scale(4.0, 1.0, 2, 10000, priv, "sqrt_m")
    b = private_step_scale(4.0, 1.0, 2, 10000, priv, "g_sqrt_m")
    assert a == 4 * b  # statistical branch dominates at large m, small d
    with pytest.raises(ValueError):
        private_step_scale(1.0, 1.0, 10, 800, priv, "bogus")


def test_adaptation_step_size_frozen_examples():
    assert adaptation_step_size(0.5, 1.0, 1.0, 100) == 0.06
    assert adaptation_step_size(0.0, 1.0, 1.0, 100) == 0.01
    assert abs(adaptation_step_size(0.5, 2.0, 1.0, 100) - 0.055) < 1e-15
    # eta scales inversely with G
    assert abs(adaptation_step_size(0.5, 1.0, 2.0, 100) - 0.03) < 1e-15
    with pytest.raises(ValueError):
        adaptation_step_size(-0.1, 1.0, 1.0, 100)


def _batch_and_singles(family, rng, tasks, m, dim, feature_norm=3.0):
    """Samples of `tasks` tasks stacked step-major, plus each task alone."""
    if family == "quadratic":
        points = rng.normal(scale=2.0, size=(m, tasks, dim))
        batch = TaskSamples(points, curvature=1.5)
        singles = [TaskSamples(points[:, t].copy(), curvature=1.5) for t in range(tasks)]
    else:
        raw = rng.normal(size=(m, tasks, dim))
        points = feature_norm * raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        labels = np.where(rng.random((m, tasks)) < 0.5, 1.0, -1.0)
        batch = TaskSamples(points, labels=labels)
        singles = [TaskSamples(points[:, t].copy(), labels=labels[:, t].copy())
                   for t in range(tasks)]
    return batch, singles


@pytest.mark.numpy_floor
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["quadratic", "logistic"]),
       arms=st.integers(1, 3), dim=st.integers(1, 4), steps=st.integers(1, 9))
def test_reused_step_workspace_equals_fresh(seed, family, arms, dim, steps):
    # a workspace that stepped other tasks from other inits first gives, on
    # a new task, exactly what a fresh workspace gives; radius 0.7 and clip
    # bound 0.5 make projection and clipping bind on some steps
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(scale=0.1, size=dim), 0.7)
    plan = NoisySgdPlan(steps_n=steps, step_size=0.6, noise_variance_sigma_sq=0.3,
                        clip_bound=0.5)

    def task():
        visits = _batch_and_singles(family, rng, 1, steps, dim)[1][0]
        init = dom.center + 0.4 * rng.uniform(-1, 1, size=(arms, dim)) / math.sqrt(dim)
        return visits, init, rng.normal(scale=0.5, size=(steps, arms, dim))

    work, out = StepWorkspace((arms, dim), dom, plan.step_size), np.empty((arms, dim))
    for _ in range(2):
        other, other_init, other_noise = task()
        noisy_sgd_steps(other, other_init, plan, dom, other_noise, work, out)
    visits, init, noise = task()
    before = init.copy()
    again = noisy_sgd_steps(visits, init, plan, dom, noise, work, out)
    fresh = _stepped(visits, init, plan, dom, noise, (arms, dim))
    assert np.array_equal(again, fresh.averaged_iterate)
    assert np.array_equal(work.theta, fresh.final_iterate)
    assert again is out
    assert np.array_equal(init, before)


def _keyword_out_steps(seq, theta, step_size, dom, clip_bound=None, noise=None,
                       final_step=True, interior=False, task=None):
    """The step loop in its per-step form: rows (j, task) indexed on every
    step, each gradient through TaskSamples.grad, and every ufunc given
    out= by keyword. Returns the average of the visited iterates and the
    final iterate."""
    theta = np.array(theta, dtype=np.float64)
    grad, margins = np.empty(theta.shape), np.empty(theta.shape[:-1])
    scratch, total = RowScratch(theta.shape), np.zeros(theta.shape)
    step = np.asarray(step_size, dtype=np.float64)
    for j in range(seq.count if final_step else seq.count - 1):
        at = j if task is None else (j, task)
        np.add(total, theta, out=total)
        seq.grad(theta, at, grad, margins)
        if clip_bound is not None:
            clip_norm_in_place(grad, clip_bound, scratch)
        if noise is not None:
            np.add(grad, noise[at], out=grad)
        np.multiply(grad, step, out=grad)
        np.subtract(theta, grad, out=theta)
        if not interior:
            project_in_place(theta, dom, scratch)
    if not final_step:
        np.add(total, theta, out=total)
    total /= seq.count
    return total, theta


@pytest.mark.numpy_floor
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["quadratic", "logistic"]),
       curvature=st.sampled_from([1.0, 0.5, 2.5]), arms=st.integers(1, 3),
       tasks=st.integers(1, 3), dim=st.integers(1, 3), steps=st.integers(1, 8),
       step=st.floats(0.05, 1.5), spread=st.sampled_from([0.1, 2.0]),
       clip=st.booleans(), noisy=st.booleans(), interior=st.booleans())
def test_step_loop_equals_the_keyword_out_loop(seed, family, curvature, arms, tasks, dim,
                                               steps, step, spread, clip, noisy, interior):
    # the loop takes a call's rows once and steps with bound ufuncs and
    # positional out: ogd_run, noisy_sgd_steps on a pass's task t and on
    # task t's rows alone, and noisy_sgd_run give the per-step loop's bits,
    # with clips and projections that act on some steps and not on others
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(scale=0.3, size=dim), 1.0)
    shape = (steps, tasks, arms, dim)
    if family == "quadratic":
        visits = TaskSamples(dom.center + spread * rng.uniform(-1, 1, size=shape) / math.sqrt(dim),
                             curvature=curvature)
    else:
        labels = np.where(rng.random(shape[:-1]) < 0.5, 1.0, -1.0)
        visits = TaskSamples(2.0 * spread * rng.normal(size=shape), labels=labels)
    noise = rng.normal(scale=0.5, size=shape) if noisy else None
    init = dom.center + 0.9 * rng.uniform(-1, 1, size=(arms, dim)) / math.sqrt(dim)
    plan = NoisySgdPlan(steps_n=steps, step_size=step, noise_variance_sigma_sq=0.25,
                        clip_bound=0.5)
    clip_bound = plan.clip_bound if clip else None
    flags = dict(interior=interior, clip_idle=not clip)
    out = np.empty((arms, dim))
    for t in range(tasks):
        average, final = _keyword_out_steps(visits, init, step, dom, clip_bound, noise,
                                            final_step=False, interior=interior, task=t)
        work = StepWorkspace((arms, dim), dom, step)
        noisy_sgd_steps(visits, init, plan, dom, noise, work, out, task=t, **flags)
        assert out.tobytes() == average.tobytes()
        assert work.theta.tobytes() == final.tobytes()
        # a workspace made for another step size takes this one
        alone = visits.take((slice(None), t))
        work = StepWorkspace((arms, dim), dom, step + 1.0)
        noisy_sgd_steps(alone, init, plan, dom, None if noise is None else noise[:, t],
                        work, out, **flags)
        assert out.tobytes() == average.tobytes()
        assert work.theta.tobytes() == final.tobytes()

    # eval: every arm's init on every task, projected unless certified
    samples = visits.take((slice(None), slice(None), 0))
    starts = init[:, None, :]
    certified = idle_calls(samples, starts, step, dom)[0]
    event(f"ogd_run interior: {certified}")
    average, final = _keyword_out_steps(samples, np.broadcast_to(starts, (arms, tasks, dim)),
                                        step, dom, interior=certified)
    run = ogd_run(samples, starts, OgdConfig(step), dom)
    assert run.averaged_iterate.tobytes() == average.tobytes()
    assert run.final_iterate.tobytes() == final.tobytes()

    # the one-problem reference takes the last step, clipped and noised
    one = visits.take((slice(None), 0, 0))
    pinned = list(range(steps))
    noise_one = sample_step_noise(np.random.default_rng(seed), dim,
                                  plan.noise_variance_sigma_sq, count=steps)
    average, final = _keyword_out_steps(one, init[0], step, dom, plan.clip_bound, noise_one)
    run = noisy_sgd_run(one, init[0], plan, dom, np.random.default_rng(seed),
                        index_sequence=pinned)
    assert run.averaged_iterate.tobytes() == average.tobytes()
    assert run.final_iterate.tobytes() == final.tobytes()


@pytest.mark.numpy_floor
@pytest.mark.parametrize("spread", [0.3, 3.0], ids=["interior", "projected"])
def test_eval_adaptation_allocates_nothing_per_step(spread):
    # criterion 09's eval shape, one arm on 100 tasks at d = 2: ogd_run's
    # traced peak is its workspace, the average it returns and temporaries
    # the size of a few iterates (idle_calls' box, numpy's masked-call
    # buffers), at m = 50 as at m = 400, so no step keeps anything; anchors
    # spread over [-3, 3] leave the unit ball, so the steps project
    dom = ParamDomain(np.zeros(2), 1.0)
    starts = np.zeros((1, 1, 2))
    work = StepWorkspace((1, 100, 2), dom, 0.5)
    iterate = work.theta.nbytes
    # the workspace's arrays and the average, an iterate
    held = iterate + sum(a.nbytes for a in (
        work.theta, work.grad, work.margins, work.scratch.vectors, work.scratch.center,
        work.scratch.nsq, work.scratch.factors, work.scratch.mask))
    excess = []
    for m in (50, 400):
        rng = np.random.default_rng(m)
        samples = TaskSamples(rng.uniform(-spread, spread, size=(m, 100, 2)), curvature=1.0)
        assert idle_calls(samples, starts, 0.5, dom)[0] == (spread < 1.0)
        ogd_run(samples, starts, OgdConfig(0.5), dom)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ogd_run(samples, starts, OgdConfig(0.5), dom)
            excess.append(tracemalloc.get_traced_memory()[1] - base - held)
        finally:
            tracemalloc.stop()
    assert excess[0] < 4 * iterate
    assert excess[1] <= excess[0] + iterate / 4


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_ogd_batch_matches_batch_of_one_calls(family):
    # 3 inits x 4 tasks in one call give exactly the 12 separate runs, for
    # every prefix of the samples; radius 1.8 and step 0.8 leave some
    # problems on the boundary and others inside after the same step
    rng = np.random.default_rng(31)
    dom = ParamDomain(np.array([0.2, -0.1, 0.0]), 1.8)
    batch, singles = _batch_and_singles(family, rng, 4, 25, 3)
    inits = dom.center + 0.6 * rng.uniform(-1, 1, size=(3, 1, 3))
    projected = 0
    for k in range(1, 26):
        prefix = batch.take(slice(k))
        out = ogd_run(prefix, inits, OgdConfig(0.8, k), dom)
        assert out.averaged_iterate.shape == out.final_iterate.shape == (3, 4, 3)
        for a in range(3):
            for t in range(4):
                one = ogd_run(singles[t].take(slice(k)), inits[a, 0],
                              OgdConfig(0.8, k), dom)
                assert np.array_equal(out.averaged_iterate[a, t], one.averaged_iterate)
                assert np.array_equal(out.final_iterate[a, t], one.final_iterate)
                projected += np.isclose(np.linalg.norm(one.final_iterate - dom.center),
                                        dom.radius)
    assert 0 < projected < 25 * 12


@pytest.mark.numpy_floor
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["quadratic", "logistic"]),
       curvature=st.sampled_from([0.5, 1.0, 3.0]), tasks=st.integers(1, 12),
       dim=st.integers(1, 4), m=st.integers(1, 12), step=st.floats(0.05, 1.0))
def test_ogd_from_one_arm_starts_equals_the_run_from_task_starts(seed, family, curvature,
                                                                 tasks, dim, m, step):
    # starts shaped (1, tasks, d) read the samples through a view with a
    # leading size-1 axis, so every operand has the iterates' shape; starts
    # shaped (tasks, d) read them as they are: both give the same bits, on
    # both sides of geometry's few-rows path, with anchors and steps that
    # leave the unit ball, so projections act
    rng = np.random.default_rng(seed)
    dom = ParamDomain(rng.normal(size=dim), 1.0)
    batch = _batch_and_singles(family, rng, tasks, m, dim)[0]
    if family == "quadratic":
        batch = TaskSamples(dom.center + batch.points, curvature=curvature)
    starts = dom.center + 0.9 * rng.uniform(-1, 1, size=(tasks, dim)) / math.sqrt(dim)
    flat = ogd_run(batch, starts, OgdConfig(step), dom)
    one_arm = ogd_run(batch, starts[None], OgdConfig(step), dom)
    assert one_arm.averaged_iterate.shape == (1, tasks, dim)
    assert one_arm.averaged_iterate.tobytes() == flat.averaged_iterate.tobytes()
    assert one_arm.final_iterate.tobytes() == flat.final_iterate.tobytes()


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_learners_leave_caller_arrays_untouched(family):
    # the step loop writes its iterate and gradient buffer in place; none of
    # that may reach init (a bare vector, an (arms, 1, d) stack or a full
    # (arms, tasks, d) one), the samples, a pinned index sequence, or visits
    # and noise drawn ahead. Radius 0.7, step 0.6 and clip bound 0.5 make
    # projection and clipping bind
    rng = np.random.default_rng(33)
    dom = ParamDomain(np.zeros(2), 0.7)
    batch, singles = _batch_and_singles(family, rng, 3, 9, 2)
    plan = NoisySgdPlan(steps_n=14, step_size=0.6, noise_variance_sigma_sq=0.3,
                        clip_bound=0.5)
    index_sequence = rng.integers(0, 9, size=14)
    visits = batch.take(rng.integers(0, 9, size=14))
    samples = [batch, singles[0], visits]
    inputs = [index_sequence] + [a for t in samples for a in (t.points, t.labels)
                                 if a is not None]
    for init in (np.array([0.3, -0.2]), 0.4 * rng.uniform(-1, 1, size=(2, 1, 2)),
                 0.4 * rng.uniform(-1, 1, size=(2, 3, 2))):
        problems = np.broadcast_shapes(init.shape[:-1], (3,))
        noise = rng.normal(scale=0.5, size=(14,) + problems + (2,))
        before = [a.copy() for a in inputs + [init, noise]]
        outputs = [ogd_run(batch, init, OgdConfig(0.6), dom),
                   _stepped(visits, init, plan, dom, noise, problems + (2,))]
        shapes = [problems + (2,)] * 2
        if init.ndim == 1:
            outputs += [noisy_sgd_run(singles[0], init, plan, dom, np.random.default_rng(0)),
                        noisy_sgd_run(singles[0], init, plan, dom, np.random.default_rng(0),
                                      index_sequence=index_sequence)]
            shapes += [(2,)] * 2
        for a, b in zip(inputs + [init, noise], before):
            assert np.array_equal(a, b)
        for out, shape in zip(outputs, shapes, strict=True):
            for result in (out.averaged_iterate, out.final_iterate):
                assert result.shape == shape
                assert not any(np.shares_memory(result, a)
                               for a in inputs + [init, noise])


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_overflowing_step_raises(family):
    # curvature 1e300 makes the first step's squared norm overflow: both
    # learners must raise, not project the overflowed point onto the ball
    m = 4
    if family == "quadratic":
        samples = TaskSamples(np.full((m, 2), 0.5), curvature=1e300)
        init = np.array([-0.5, 0.0])
    else:
        # logistic gradients are bounded by the feature norm, so a finite
        # overflowing step needs features near float max
        samples = TaskSamples(np.full((m, 2), 1e300), labels=np.ones(m))
        init = np.zeros(2)
    plan = NoisySgdPlan(steps_n=3, step_size=1.0, noise_variance_sigma_sq=0.0,
                        clip_bound=1e300)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError):
            ogd_run(samples, init, OgdConfig(1.0), DOM)
        with pytest.raises(ValueError):
            noisy_sgd_run(samples, init, plan, DOM, np.random.default_rng(0))


def _oracle_ogd(points, labels, curvature, init, eta, center, radius):
    """Projected OGD on one task, coded from the definitions with scalars."""
    theta = [float(v) for v in init]
    visited = []
    for j, x in enumerate(points):
        visited.append(list(theta))
        if labels is None:
            g = [curvature * (th - xi) for th, xi in zip(theta, x)]
        else:
            y = float(labels[j])
            margin = y * sum(xi * th for xi, th in zip(x, theta))
            w = 1.0 / (1.0 + math.exp(margin))
            g = [-y * w * xi for xi in x]
        theta = [th - eta * gi for th, gi in zip(theta, g)]
        off = [th - c for th, c in zip(theta, center)]
        norm = math.sqrt(sum(o * o for o in off))
        if norm > radius:
            theta = [c + o * radius / norm for c, o in zip(center, off)]
    avg = [sum(col) / len(visited) for col in zip(*visited)]
    return np.array(avg), np.array(theta)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["quadratic", "logistic"]),
       dim=st.integers(1, 4), m=st.integers(1, 12), tasks=st.integers(1, 3),
       arms=st.integers(1, 3), radius=st.floats(0.1, 3.0),
       eta=st.floats(0.01, 2.0))
def test_batched_ogd_matches_independent_loop(seed, family, dim, m, tasks, arms,
                                              radius, eta):
    rng = np.random.default_rng(seed)
    center = rng.normal(size=dim)
    dom = ParamDomain(center, radius)
    batch, singles = _batch_and_singles(family, rng, tasks, m, dim, feature_norm=2.0)
    offsets = rng.normal(size=(arms, 1, dim))
    offsets *= radius * rng.uniform(0, 1, size=(arms, 1, 1)) / np.linalg.norm(
        offsets, axis=-1, keepdims=True)
    inits = center + offsets
    out = ogd_run(batch, inits, OgdConfig(eta, m), dom)
    for a in range(arms):
        for t in range(tasks):
            avg, final = _oracle_ogd(singles[t].points, singles[t].labels,
                                     singles[t].curvature, inits[a, 0], eta,
                                     center, radius)
            assert np.allclose(out.averaged_iterate[a, t], avg, rtol=1e-12, atol=1e-15)
            assert np.allclose(out.final_iterate[a, t], final, rtol=1e-12, atol=1e-15)


def _uncertified(run, spied=("clip_norm_in_place", "project_in_place")):
    """run() with both verdicts of idle_calls declined everywhere and the
    calls named in spied (the clip and the projection) spied: run's output
    and whether each call rescaled."""
    rescaled = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpmeta.learners, "idle_calls", lambda *args, **kw: (False, False))
        for name in spied:
            real = getattr(dpmeta.learners, name)

            def spy(v, *args, real=real):
                acted = real(v, *args)
                rescaled.append(acted)
                return acted

            mp.setattr(dpmeta.learners, name, spy)
        return run(), rescaled


def _same_bits(a: LearnerOutput, b: LearnerOutput) -> bool:
    return (a.averaged_iterate.tobytes() == b.averaged_iterate.tobytes()
            and a.final_iterate.tobytes() == b.final_iterate.tobytes())


@pytest.mark.numpy_floor
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), arms=st.integers(1, 3),
       tasks=st.integers(1, 3), steps=st.integers(1, 30),
       center_scale=st.sampled_from([0.0, 1.0, 1e3]),
       curvature=st.sampled_from([0.25, 1.0, 3.0, 8.0]),
       h=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
       spread=st.floats(0.001, 0.3), noise_std=st.floats(0.0, 0.3),
       clip_bound=st.floats(0.1, 10.0), on_sphere=st.booleans())
def test_interior_certificate_is_sound(seed, dim, arms, tasks, steps, center_scale,
                                       curvature, h, spread, noise_std, clip_bound,
                                       on_sphere):
    # whenever the certificate holds, the loop it lets skip the clip and the
    # projection gives the bits of the loop that calls them, and every call
    # there rescales nothing; the center may sit far from the origin, h is 1
    # exactly at step 1 / curvature (these curvatures divide 1 exactly or
    # multiply back to 1), and anchors projected onto the sphere must be
    # declined, since an iterate can follow them there
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=center_scale, size=dim)
    dom = ParamDomain(center, 1.0)
    step = h / curvature
    if h == 1.0:
        assert step * curvature == 1.0
    mean = center + 0.5 * rng.uniform(-1, 1, size=dim) / math.sqrt(dim)
    anchors = mean + spread * rng.normal(size=(steps, tasks, dim))
    if on_sphere:
        anchors[0, 0] = center + np.ones(dim) * 2.0
    project_in_place(anchors, dom, RowScratch(anchors.shape))
    samples = TaskSamples(anchors, curvature=curvature)
    inits = center + 0.5 * rng.uniform(-1, 1, size=(arms, 1, dim)) / math.sqrt(dim)
    noise = rng.normal(scale=noise_std, size=(steps, arms, tasks, dim))
    plan = NoisySgdPlan(steps_n=steps, step_size=step, noise_variance_sigma_sq=0.0,
                        clip_bound=clip_bound)

    ogd_ok, ogd_clip_idle = idle_calls(samples, inits, step, dom)
    assert ogd_clip_idle
    out = ogd_run(samples, inits, OgdConfig(step), dom)
    ref, rescaled = _uncertified(lambda: ogd_run(samples, inits, OgdConfig(step), dom))
    assert _same_bits(out, ref)
    assert not (ogd_ok and any(rescaled))

    sgd_ok, clip_idle = idle_calls(samples, inits, step, dom, clip_bound, noise)
    shape = (arms, tasks, dim)
    out = _stepped(samples, inits, plan, dom, noise, shape, interior=sgd_ok,
                clip_idle=clip_idle)
    ref, rescaled = _uncertified(lambda: _stepped(samples, inits, plan, dom, noise, shape))
    assert _same_bits(out, ref)
    assert not (sgd_ok and any(rescaled))
    # a clip can only tighten what the projection alone certifies, and an
    # interior pass has an idle clip
    assert ogd_ok or not sgd_ok
    assert clip_idle or not sgd_ok
    event(f"certified: ogd {ogd_ok}, noisy sgd {sgd_ok}")
    if on_sphere:
        assert not ogd_ok


@pytest.mark.numpy_floor
def test_interior_certificate_holds_well_inside():
    # a tight cluster of anchors near the center, a small step and a start
    # inside: both checks pass with room to spare, and fail once the
    # clip bound or the radius is too small for them
    anchors = quad(np.tile([0.1, -0.1], (20, 1)) + 0.01 * np.arange(20)[:, None])
    dom = ParamDomain(np.zeros(2), 1.0)
    assert idle_calls(anchors, [0.3, 0.3], 0.5, dom)[0]
    assert idle_calls(anchors, [0.3, 0.3], 0.5, dom, clip_bound=1.0)[0]
    assert not idle_calls(anchors, [0.3, 0.3], 0.5, dom, clip_bound=0.3)[0]
    assert not idle_calls(anchors, [0.3, 0.3], 0.5, ParamDomain(np.zeros(2), 0.4))[0]
    # the noise widens the radius by its largest norm over the curvature
    noise = np.zeros((20, 2))
    noise[7] = [0.0, 0.8]
    assert not idle_calls(anchors, [0.3, 0.3], 0.5, dom, noise=noise)[0]


@pytest.mark.numpy_floor
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40),
       batch=st.lists(st.integers(1, 4), max_size=2), dim=st.integers(1, 6),
       center_scale=st.sampled_from([0.0, 1.0, 1e3]), spread=st.floats(1e-3, 1.0),
       radius=st.floats(0.1, 10.0), clip_bound=st.one_of(st.none(), st.floats(0.1, 10.0)),
       fortran=st.booleans())
def test_interior_box_matches_the_multi_axis_reduce(seed, steps, batch, dim, center_scale,
                                                    spread, radius, clip_bound, fortran):
    # the certificate reduces the step axis first and the batch axes of that
    # result next; max and min are exact, so its box is the one a single
    # reduce over all leading axes gives. With the starts at the center and
    # no noise, the radius it checks is that box's norm A, and every check
    # and the verdict are those of the same certificate on the box's two
    # corners taken as the samples
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=center_scale, size=dim)
    points = center + spread * rng.normal(size=(steps, *batch, dim))
    if fortran:
        points = np.asfortranarray(points)
    samples = TaskSamples(points, curvature=1.0)
    dom = ParamDomain(center, radius)
    leading = tuple(range(points.ndim - 1))
    high, low = np.maximum.reduce(points, axis=leading), np.minimum.reduce(points, axis=leading)
    box = np.maximum(high - center, -(low - center))
    checks = []
    real = dpmeta.learners.never_rescaled

    def spy(*args):
        checks.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpmeta.learners, "never_rescaled", spy)
        verdict = idle_calls(samples, center, 0.5, dom, clip_bound)
        assert checks[0][0] == math.sqrt(np.vecdot(box, box))
        own = list(checks)
        checks.clear()
        corners = TaskSamples(np.stack([high, low]), curvature=1.0)
        assert idle_calls(corners, center, 0.5, dom, clip_bound, steps=steps) == verdict
    assert checks == own
    event(f"certified: {verdict}")


@pytest.mark.numpy_floor
def test_interior_certificate_allocates_nothing_the_size_of_the_samples():
    # criterion 09's eval pass shape: the box's temporaries are (*batch, d),
    # 1/m of the samples, so the traced peak stays far below them
    rng = np.random.default_rng(9)
    samples = TaskSamples(rng.uniform(-0.5, 0.5, size=(1900, 100, 2)), curvature=1.0)
    dom = ParamDomain(np.zeros(2), 2.0)
    starts = np.zeros((3, 1, 2))
    tracemalloc.start()
    try:
        assert idle_calls(samples, starts, 0.5, dom) == (True, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples.points.nbytes / 10


@pytest.mark.numpy_floor
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), steps=st.integers(1, 20),
       h=st.floats(1.01, 100.0), step=st.floats(1e-6, 10.0))
def test_interior_certificate_declines_logistic_and_h_over_one(seed, dim, steps, h, step):
    # however large the ball and however tight the samples, a logistic pass
    # and a quadratic pass with step x curvature > 1 are never certified
    # interior; both are declined before any array is read, so starts of
    # None pass when there is no clip to certify, and with a clip bound only
    # the whole-ball clip verdict reads the starts: noise that cannot be
    # read is never read
    rng = np.random.default_rng(seed)
    dom = ParamDomain(np.zeros(dim), 1e6)
    quadratic = TaskSamples(1e-3 * rng.normal(size=(steps, dim)), curvature=h / step)
    assert step * quadratic.curvature > 1.0
    assert idle_calls(quadratic, None, step, dom) == (False, True)
    logistic = _batch_and_singles("logistic", rng, 2, steps, dim, feature_norm=1e-3)[0]
    assert idle_calls(logistic, None, step, dom) == (False, True)
    for samples in (quadratic, logistic):
        assert not idle_calls(samples, dom.center, step, dom, clip_bound=1e6,
                              noise="unread")[0]


def _clip_verdict(samples, starts, dom, clip_bound):
    """idle_calls' whole-ball clip verdict alone: at step x curvature 2 the
    projection verdict declines before it reads anything, and the
    whole-ball bound holds at any step size."""
    step = 1.0 if samples.curvature is None else 2.0 / samples.curvature
    interior, clip_idle = idle_calls(samples, starts, step, dom, clip_bound)
    assert not interior
    return clip_idle


def _clip_verdict_pass(samples, inits, dom, plan, noise):
    """The whole-ball clip verdict on a noisy pass, the pass stepped with
    it, and the same pass with it declined and the clip spied: (verdict,
    output, reference output, whether each clip acted). The projection runs
    in both."""
    shape = np.broadcast_shapes(np.shape(inits)[:-1], samples.batch_shape) + (samples.dim,)
    verdict = _clip_verdict(samples, inits, dom, plan.clip_bound)
    out = _stepped(samples, inits, plan, dom, noise, shape, clip_idle=verdict)
    ref, clipped = _uncertified(lambda: _stepped(samples, inits, plan, dom, noise, shape),
                                spied=("clip_norm_in_place",))
    return verdict, out, ref, clipped


@pytest.mark.numpy_floor
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), arms=st.integers(1, 3),
       tasks=st.integers(1, 3), steps=st.integers(1, 30),
       center_scale=st.sampled_from([0.0, 1.0, 1e3]),
       curvature=st.sampled_from([0.25, 1.0, 3.0, 8.0]),
       h=st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 4.0)),
       radius=st.floats(0.1, 5.0), spread=st.floats(0.0, 1.5),
       noise_std=st.floats(0.0, 1.0), slack=st.floats(0.5, 3.0),
       inits_on_sphere=st.booleans())
def test_clip_verdict_is_sound_on_quadratic_passes(seed, dim, arms, tasks, steps,
                                                   center_scale, curvature, h, radius,
                                                   spread, noise_std, slack,
                                                   inits_on_sphere):
    # the clip verdict bounds the gradient over the whole ball, so at any
    # step size, h > 1 with the projection acting included, the pass that
    # skips the clip gives the bits of the pass that calls it, and there no
    # clip acts. Clip bounds around c R meet verdicts either way; inits
    # projected onto the sphere may round an ulp outside it
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=center_scale, size=dim)
    dom = ParamDomain(center, radius)
    anchors = center + radius * spread * rng.uniform(-1, 1, size=(steps, tasks, dim))
    project_in_place(anchors, dom, RowScratch(anchors.shape))
    samples = TaskSamples(anchors, curvature=curvature)
    inits = center + radius * rng.uniform(-1, 1, size=(arms, 1, dim)) / math.sqrt(dim)
    if inits_on_sphere:
        inits = center + 2.0 * (inits - center)
        project_in_place(inits, dom, RowScratch(inits.shape))
    noise = rng.normal(scale=noise_std * curvature * radius, size=(steps, arms, tasks, dim))
    plan = NoisySgdPlan(steps_n=steps, step_size=h / curvature, noise_variance_sigma_sq=0.0,
                        clip_bound=slack * curvature * radius)
    verdict, out, ref, clipped = _clip_verdict_pass(samples, inits, dom, plan, noise)
    assert _same_bits(out, ref)
    assert not (verdict and any(clipped))
    event(f"clip verdict {verdict}, h > 1: {h > 1.0}, a clip acted: {any(clipped)}")


@pytest.mark.numpy_floor
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), arms=st.integers(1, 3),
       tasks=st.integers(1, 3), steps=st.integers(1, 30),
       center_scale=st.sampled_from([0.0, 0.5, 3.0]), radius=st.floats(0.1, 5.0),
       feature_norm=st.floats(0.01, 10.0), step=st.floats(0.01, 10.0),
       noise_std=st.floats(0.0, 1.0), slack=st.floats(0.5, 1.5))
def test_clip_verdict_is_sound_on_logistic_passes(seed, dim, arms, tasks, steps,
                                                  center_scale, radius, feature_norm,
                                                  step, noise_std, slack):
    # logistic gradients are at most sigmoid(F (||center|| + R)) F over the
    # ball, whatever F, R and the center; clip bounds around that bound meet
    # verdicts either way, and a certified pass is the clipping pass's bits
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=center_scale, size=dim)
    dom = ParamDomain(center, radius)
    raw = rng.normal(size=(steps, tasks, dim))
    lengths = feature_norm * rng.uniform(0.5, 1.0, size=(steps, tasks, 1))
    features = lengths * raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    labels = np.where(rng.random((steps, tasks)) < 0.5, 1.0, -1.0)
    samples = TaskSamples(features, labels=labels)
    inits = center + radius * rng.uniform(-1, 1, size=(arms, 1, dim)) / math.sqrt(dim)
    noise = rng.normal(scale=noise_std * feature_norm, size=(steps, arms, tasks, dim))
    margin = feature_norm * (np.linalg.norm(center) + radius)
    plan = NoisySgdPlan(steps_n=steps, step_size=step, noise_variance_sigma_sq=0.0,
                        clip_bound=slack * feature_norm * float(sigmoid(margin)))
    verdict, out, ref, clipped = _clip_verdict_pass(samples, inits, dom, plan, noise)
    assert _same_bits(out, ref)
    assert not (verdict and any(clipped))
    event(f"clip verdict {verdict}, a clip acted: {any(clipped)}")


@pytest.mark.numpy_floor
def test_clip_verdict_declines_a_loose_anchor_box():
    # anchors at (R, 0) and (0, R): their box's corner is (R, R), so
    # A = R sqrt(2) >= R, and c (R + A) exceeds the calibrated clip bound
    # c x diameter = 2 c R, which the verdict must decline; it holds once the
    # clip bound clears c (R + A) by more than never_rescaled's margin, and
    # declines within that margin
    radius, curvature = 2.0, 1.5
    dom = ParamDomain(np.zeros(2), radius)
    samples = TaskSamples(np.array([[radius, 0.0], [0.0, radius]] * 5), curvature=curvature)
    start = np.zeros(2)
    clip_bound = quadratic_regularity(curvature, dom).lipschitz_g
    assert clip_bound == 2.0 * curvature * radius
    assert not _clip_verdict(samples, start, dom, clip_bound)
    bound = curvature * (radius + math.sqrt(2.0 * radius * radius))
    assert _clip_verdict(samples, start, dom, bound * (1.0 + 1e-9))
    assert bound * (1.0 + 1e-15) > bound
    assert not _clip_verdict(samples, start, dom, bound * (1.0 + 1e-15))


@pytest.mark.numpy_floor
def test_clip_verdict_declines_a_saturated_sigmoid():
    # a logistic pass whose margin bound F (||center|| + R) is 40: the
    # sigmoid rounds to 1, so the bound is F itself, the calibrated clip
    # bound, and the verdict must decline; at logistic_mc's shape (F = 1,
    # ||center|| = 1, R = 2) the bound is sigmoid(3) F < F, and it holds
    rng = np.random.default_rng(4)
    for feature_norm, center, radius, holds in ((4.0, [3.0, 4.0], 5.0, False),
                                                (1.0, [1.0, 0.0], 2.0, True)):
        dom = ParamDomain(np.array(center), radius)
        assert (feature_norm * (np.linalg.norm(dom.center) + radius) >= 40.0) != holds
        raw = rng.normal(size=(20, 3, 2))
        features = feature_norm * raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        samples = TaskSamples(features, labels=np.where(raw[..., 0] > 0, 1.0, -1.0))
        clip_bound = logistic_regularity(feature_norm, 0.5).lipschitz_g
        assert clip_bound == feature_norm
        assert _clip_verdict(samples, dom.center, dom, clip_bound) == holds


@pytest.mark.numpy_floor
def test_clip_verdict_counts_a_start_outside_the_ball():
    # the whole-ball bound reaches rho = max(R, ||start - center||), so a
    # start at distance 3 from the center of a unit ball, anchored there,
    # puts the gradient bound at c x 3 = 3, not c R = 1
    dom = ParamDomain(np.zeros(2), 1.0)
    samples = TaskSamples(np.zeros((10, 2)), curvature=1.0)
    start = np.array([3.0, 0.0])
    assert not _clip_verdict(samples, start, dom, 2.0)
    assert _clip_verdict(samples, start, dom, 3.5)
    assert _clip_verdict(samples, dom.center, dom, 2.0)


@pytest.mark.numpy_floor
def test_clip_verdict_bounds_the_whole_ball_at_h_over_one():
    # at h = 3 each step sends the iterate to twice its distance from the
    # anchor on the other side, until the projection stops it on the
    # sphere, so gradients grow past the start's and the anchors' reach of
    # 0.2; a clip at 0.5 acts, and the verdict, which bounds gradients by
    # c (R + A) = 1.1, declines it, and holds at a clip of 1.2, where none
    # acts
    dom = ParamDomain(np.zeros(2), 1.0)
    samples = TaskSamples(np.tile([0.1, 0.0], (12, 1)), curvature=1.0)
    init = np.array([0.2, 0.0])
    for clip_bound, holds in ((0.5, False), (1.2, True)):
        plan = NoisySgdPlan(steps_n=12, step_size=3.0, noise_variance_sigma_sq=0.0,
                            clip_bound=clip_bound)
        verdict, out, ref, clipped = _clip_verdict_pass(samples, init, dom, plan,
                                                        np.zeros((12, 2)))
        assert verdict == holds
        assert any(clipped) != holds
        assert _same_bits(out, ref)


@pytest.mark.numpy_floor
@pytest.mark.parametrize("interior, clip_idle", [(False, False), (True, False),
                                                 (False, True), (True, True)])
def test_interior_and_clip_idle_flags_each_skip_one_call(interior, clip_idle):
    # noisy_sgd_steps' interior skips the projection alone and clip_idle the
    # clip alone; on a certified pass either way gives the same bits
    anchors = quad(np.tile([0.1, -0.1], (8, 1)) + 0.01 * np.arange(8)[:, None])
    dom = ParamDomain(np.zeros(2), 1.0)
    plan = NoisySgdPlan(steps_n=8, step_size=0.5, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    noise = np.zeros((8, 2))
    assert idle_calls(anchors, [0.3, 0.3], 0.5, dom, plan.clip_bound, noise) == (True, True)

    def run(**flags):
        return _stepped(anchors, [0.3, 0.3], plan, dom, noise, (2,), **flags)

    ref = run()
    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("clip_norm_in_place", "project_in_place"):
            real = getattr(dpmeta.learners, name)

            def spy(*args, real=real, name=name):
                counts[name] = counts.get(name, 0) + 1
                return real(*args)

            mp.setattr(dpmeta.learners, name, spy)
        out = run(interior=interior, clip_idle=clip_idle)
    assert _same_bits(out, ref)
    assert counts == {name: 7 for name, skipped in (("clip_norm_in_place", clip_idle),
                                                    ("project_in_place", interior))
                      if not skipped}
