import math
import tracemalloc

from hypothesis import event, given, settings, strategies as st
import numpy as np
import pytest

import dpmeta.learners
from dpmeta.geometry import ParamDomain
from dpmeta.learners import noisy_sgd_run
from dpmeta.meta import meta_step, new_state, run_meta_training, surrogate_loss
from dpmeta.privacy import NoisySgdPlan
from dpmeta.task_env import EnvSpec, generate_losses, sample_task, substream


def test_first_step_replaces_initializer():
    state = new_state(np.array([5.0, -3.0]))
    nxt = meta_step(state, np.array([1.0, 2.0]))
    # t = 1: the update weight on the initializer is zero
    assert np.array_equal(nxt.phi_current, [1.0, 2.0])
    assert nxt.task_count == 1


def test_running_mean_identity():
    rng = np.random.default_rng(31)
    bars = [rng.normal(size=4) for _ in range(25)]
    state = new_state(rng.normal(size=4))
    for b in bars:
        state = meta_step(state, b)
    assert np.allclose(state.phi_current, np.mean(bars, axis=0), rtol=1e-12)


def test_phi_hat_averages_pre_update_iterates():
    state = new_state(np.array([4.0]))
    phis = []
    for b in ([2.0], [0.0], [1.0]):
        phis.append(state.phi_current.copy())
        state = meta_step(state, np.array(b))
    assert np.allclose(state.phi_hat(), np.mean(phis, axis=0), rtol=1e-12)
    # hand check: phi sequence 4, 2, 1 -> phi_hat = 7/3
    assert abs(state.phi_hat()[0] - 7.0 / 3.0) < 1e-15


def test_phi_hat_requires_at_least_one_step():
    with pytest.raises(ValueError):
        new_state(np.zeros(2)).phi_hat()


def test_meta_step_immutable_inputs():
    state = new_state(np.array([1.0, 1.0]))
    bar = np.array([3.0, 3.0])
    nxt = meta_step(state, bar)
    bar[:] = 0.0
    assert np.array_equal(nxt.phi_current, [3.0, 3.0])
    assert np.array_equal(state.phi_current, [1.0, 1.0])


def test_meta_step_rejects_a_mismatched_output():
    state = new_state(np.zeros(2))
    for bad in (np.ones(1), np.ones(3), np.ones((1, 2)), np.ones((3, 2))):
        with pytest.raises(ValueError):
            meta_step(state, bad)
    # one state per arm: a stack of initializations is not a state
    with pytest.raises(ValueError):
        new_state(np.zeros((3, 2)))


def test_surrogate_loss_value():
    assert surrogate_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5
    assert surrogate_loss(np.zeros(3), np.zeros(3)) == 0.0


def test_meta_iterates_contract_toward_planted_center():
    # exact within-task learners: theta_bar lands near the planted optimum,
    # so the running mean approaches it at the averaged harmonic rate
    dom = ParamDomain(np.zeros(3), 10.0)
    center = np.array([2.0, -1.0, 0.5])
    env = EnvSpec(domain=dom, planted_center=center, similarity_v=0.0,
                  samples_per_task=40, curvature=1.0, sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=25, step_size=0.5, noise_variance_sigma_sq=0.0,
                        clip_bound=1e6)
    phi_init = np.array([9.0, 0.0, 0.0])
    T = 50
    trained = run_meta_training(env, T, (plan,), phi_init, 11)
    start = np.linalg.norm(phi_init - center)
    end = np.linalg.norm(trained.phi_hat[0] - center)
    assert end <= start * (1 + math.log(T)) / T * 2
    assert trained.phi_hat.shape == (1, 3)
    assert trained.surrogate_losses.shape == (1, T)
    assert trained.theta_stars.shape == (T, 3)


def test_meta_training_deterministic():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0]),
                  similarity_v=0.5, samples_per_task=30, curvature=1.0,
                  sample_noise_std=0.1)
    plan = NoisySgdPlan(steps_n=10, step_size=0.2, noise_variance_sigma_sq=0.3,
                        clip_bound=5.0)
    a = run_meta_training(env, 12, (plan,), np.zeros(2), 77)
    b = run_meta_training(env, 12, (plan,), np.zeros(2), 77)
    assert np.array_equal(a.phi_hat, b.phi_hat)
    assert np.array_equal(a.surrogate_losses, b.surrogate_losses)
    c = run_meta_training(env, 12, (plan,), np.zeros(2), 78)
    assert not np.array_equal(a.phi_hat, c.phi_hat)


def test_meta_update_sees_only_private_output(monkeypatch):
    # the state that leaves a task must be a function of the noisy learner's
    # averaged iterate alone; the exact per-task adaptation must not leak in.
    # Each per-task private step call returns one (arms, d) row per arm.
    captured = []
    real_noisy = dpmeta.learners.noisy_sgd_steps

    def spy_noisy(*args, **kwargs):
        out = real_noisy(*args, **kwargs)
        captured.append(out.copy())
        return out

    def poisoned_ogd(samples, init, cfg, dom):
        poisoned = dom.center + dom.radius * 0.9 * np.ones(dom.dim) / math.sqrt(dom.dim)
        return dpmeta.learners.LearnerOutput(
            averaged_iterate=poisoned, final_iterate=poisoned)

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_noisy)
    monkeypatch.setattr(dpmeta.learners, "ogd_run", poisoned_ogd)

    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([1.0, 0.0]),
                  similarity_v=0.3, samples_per_task=20, curvature=1.0,
                  sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=8, step_size=0.2, noise_variance_sigma_sq=0.1,
                        clip_bound=5.0)
    quiet = plan.replace(noise_variance_sigma_sq=0.0)
    trained = run_meta_training(env, 6, (plan, quiet), np.zeros(2), 5)
    assert len(captured) == 6
    assert all(rows.shape == (2, 2) for rows in captured)
    # replay each arm's meta recursion from its captured private outputs only
    for a in range(2):
        replay = new_state(np.zeros(2))
        for t, rows in enumerate(captured):
            assert trained.surrogate_losses[a, t] == surrogate_loss(
                replay.phi_current, rows[a])
            replay = meta_step(replay, rows[a])
        assert np.array_equal(replay.phi_hat(), trained.phi_hat[a])


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_shared_training_equals_separate_passes(family, monkeypatch):
    # training a private arm and its zero-noise twin in one pass must give
    # each arm exactly what training it alone gives; clip bound 0.3 and
    # radius 0.8 make clipping and projection bind on some steps, not all;
    # the in-place forms say whether they rescaled a row
    binds = {"clip_norm_in_place": [], "project_in_place": []}
    for name, calls in binds.items():
        real = getattr(dpmeta.learners, name)

        def spy(v, *args, real=real, calls=calls):
            rescaled = real(v, *args)
            calls.append(rescaled)
            return rescaled

        monkeypatch.setattr(dpmeta.learners, name, spy)
    # every private step call's outputs, one (arms, d) row set per task
    bars = []
    real_noisy = dpmeta.learners.noisy_sgd_steps

    def spy_noisy(*args, **kwargs):
        out = real_noisy(*args, **kwargs)
        bars.append(out.copy())
        return out

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_noisy)
    # idle_calls must decline both verdicts for these passes, or the loop
    # would skip the very clips and projections counted here
    verdicts = []
    real_idle_calls = dpmeta.learners.idle_calls

    def spy_idle_calls(*args, **kwargs):
        verdicts.append(real_idle_calls(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(dpmeta.learners, "idle_calls", spy_idle_calls)
    dom = ParamDomain(np.array([0.1, -0.2]), 0.8)
    env = EnvSpec(domain=dom, planted_center=np.array([0.4, -0.2]),
                  similarity_v=0.3, samples_per_task=12, loss_family=family,
                  sample_noise_std=0.5, feature_norm=2.0)
    plan = NoisySgdPlan(steps_n=7, step_size=0.5, noise_variance_sigma_sq=0.2,
                        clip_bound=0.3)
    quiet = plan.replace(noise_variance_sigma_sq=0.0)
    phi_init = np.array([0.7, -0.5])
    shared = run_meta_training(env, 15, (plan, quiet), phi_init, 21)
    shared_bars = np.stack(bars)
    assert verdicts == [(False, False)]
    for calls in binds.values():
        assert 0 < sum(calls) < len(calls)
    assert shared_bars.shape == (15, 2, 2)
    for a, arm_plan in enumerate((plan, quiet)):
        bars.clear()
        alone = run_meta_training(env, 15, (arm_plan,), phi_init, 21)
        assert np.array_equal(shared.phi_hat[a], alone.phi_hat[0])
        assert np.array_equal(shared_bars[:, a], np.stack(bars)[:, 0])
        assert np.array_equal(shared.surrogate_losses[a], alone.surrogate_losses[0])
        assert np.array_equal(shared.theta_stars, alone.theta_stars)
    # the noise reaches the private arm only
    assert not np.array_equal(shared.phi_hat[0], shared.phi_hat[1])


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_noisy_arms_share_one_noise_generator(family):
    # the arms of a pass draw each task's indices and noise from one shared
    # generator, so two noisy arms of different variances must still each
    # get exactly the noise that training alone gives them, and the pass
    # must equal the task-by-task reference: generate_losses, then
    # one noisy_sgd_run per arm, each from an identically seeded generator
    dom = ParamDomain(np.array([0.1, -0.2]), 0.8)
    env = EnvSpec(domain=dom, planted_center=np.array([0.4, -0.2]),
                  similarity_v=0.3, samples_per_task=12, loss_family=family,
                  sample_noise_std=0.5, feature_norm=2.0)
    plan = NoisySgdPlan(steps_n=7, step_size=0.5, noise_variance_sigma_sq=0.2,
                        clip_bound=0.3)
    plans = (plan, plan.replace(noise_variance_sigma_sq=0.0),
             plan.replace(noise_variance_sigma_sq=0.05))
    phi_init = np.array([0.7, -0.5])
    shared = run_meta_training(env, 9, plans, phi_init, 21)
    for a, arm_plan in enumerate(plans):
        alone = run_meta_training(env, 9, (arm_plan,), phi_init, 21)
        assert np.array_equal(shared.phi_hat[a], alone.phi_hat[0])
        assert np.array_equal(shared.surrogate_losses[a], alone.surrogate_losses[0])
    assert len({tuple(row) for row in shared.phi_hat}) == 3

    states = [new_state(phi_init) for _ in plans]
    for t in range(9):
        task = sample_task(env, substream(21, "train-task", t))
        samples = generate_losses(task, env, substream(21, "train-losses", t))
        assert np.array_equal(shared.theta_stars[t], task.theta_star)
        for a, arm_plan in enumerate(plans):
            phi = states[a].phi_current
            bar = noisy_sgd_run(samples, phi, arm_plan, dom,
                                substream(21, "train-noise", t)).averaged_iterate
            assert shared.surrogate_losses[a, t] == surrogate_loss(phi, bar)
            states[a] = meta_step(states[a], bar)
    for a, state in enumerate(states):
        assert np.array_equal(shared.phi_hat[a], state.phi_hat())


def test_training_plans_must_agree_on_the_schedule():
    # the arms of one pass share the step schedule and the clip bound and
    # may differ only in noise variance
    env = EnvSpec(domain=ParamDomain(np.zeros(2), 5.0), planted_center=np.zeros(2),
                  similarity_v=0.3, samples_per_task=12, curvature=1.0,
                  sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.5,
                        clip_bound=1.0)
    for field, value in (("steps_n", 5), ("step_size", 0.2), ("clip_bound", 2.0)):
        with pytest.raises(ValueError):
            run_meta_training(env, 2, (plan, plan.replace(**{field: value})),
                              np.zeros(2), 0)
    with pytest.raises(ValueError):
        run_meta_training(env, 2, (), np.zeros(2), 0)
    quiet = plan.replace(noise_variance_sigma_sq=0.0)
    assert run_meta_training(env, 2, (plan, quiet), np.zeros(2), 0).phi_hat.shape == (2, 2)


def test_single_task_phi_hat_is_initializer():
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.zeros(2), similarity_v=0.0,
                  samples_per_task=10, curvature=1.0, sample_noise_std=0.0)
    plan = NoisySgdPlan(steps_n=4, step_size=0.1, noise_variance_sigma_sq=0.0,
                        clip_bound=1.0)
    phi_init = np.array([2.0, 2.0])
    trained = run_meta_training(env, 1, (plan,), phi_init, 3)
    assert np.array_equal(trained.phi_hat, [phi_init])


def test_record_fields_consistent(monkeypatch):
    bars = []
    real_noisy = dpmeta.learners.noisy_sgd_steps

    def spy_noisy(*args, **kwargs):
        out = real_noisy(*args, **kwargs)
        bars.append(out[0].copy())
        return out

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_noisy)
    dom = ParamDomain(np.zeros(2), 5.0)
    env = EnvSpec(domain=dom, planted_center=np.array([0.5, 0.5]),
                  similarity_v=0.2, samples_per_task=15, curvature=2.0,
                  sample_noise_std=0.05)
    plan = NoisySgdPlan(steps_n=6, step_size=0.1, noise_variance_sigma_sq=0.05,
                        clip_bound=5.0)
    trained = run_meta_training(env, 5, (plan,), np.zeros(2), 13)
    # each surrogate scores the task's output against the phi it started from
    state = new_state(np.zeros(2))
    for bar, loss, star in zip(bars, trained.surrogate_losses[0],
                               trained.theta_stars, strict=True):
        assert loss == surrogate_loss(state.phi_current, bar)
        assert dom.contains(star)
        state = meta_step(state, bar)
    assert np.array_equal(trained.phi_hat[0], state.phi_hat())


def test_hindsight_initializer_beats_surrogate_average():
    # running-mean iterates must be competitive with the best fixed
    # initializer in hindsight for the surrogate objective
    rng = np.random.default_rng(41)
    dom = ParamDomain(np.zeros(2), 4.0)
    bars = [rng.normal(size=2) for _ in range(60)]
    state = new_state(np.array([3.0, -2.0]))
    total = 0.0
    for b in bars:
        total += surrogate_loss(state.phi_current, b)
        state = meta_step(state, b)
    best = np.mean(bars, axis=0)
    hindsight = sum(surrogate_loss(best, b) for b in bars)
    T = len(bars)
    D = dom.diameter
    # surrogate is 1-strongly convex; running mean = follow-the-leader, whose
    # average regret decays like (1 + ln T) / T with unit curvature
    slack = (4 * D) ** 2 * (1 + math.log(T)) / (2 * T)
    assert total / T <= hindsight / T + slack


@pytest.mark.numpy_floor
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       center_scale=st.sampled_from([0.0, 1.0, 1e3]), tasks=st.integers(5, 40),
       curvature=st.sampled_from([0.5, 1.0, 4.0]), h=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       sample_noise_std=st.floats(0.0, 0.2), sigma_sq=st.floats(0.0, 0.05),
       clip_bound=st.floats(0.2, 5.0))
def test_interior_certified_training_is_sound(seed, dim, center_scale, tasks, curvature,
                                               h, sample_noise_std, sigma_sq, clip_bound):
    # multi-arm noisy training over many tasks: whenever the pass is
    # certified interior, every phi_t and every iterate stays where the clip
    # and the projection leave it, so the pass that skips them gives the bits
    # of the pass that calls them, and there every call rescales nothing;
    # a pass certified clip idle alone skips its clips with the same bits
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=center_scale, size=dim)
    env = EnvSpec(domain=ParamDomain(center, 1.0),
                  planted_center=center + 0.3 * rng.uniform(-1, 1, size=dim) / math.sqrt(dim),
                  similarity_v=0.2, samples_per_task=30, curvature=curvature,
                  sample_noise_std=sample_noise_std)
    plan = NoisySgdPlan(steps_n=6, step_size=h / curvature,
                        noise_variance_sigma_sq=sigma_sq, clip_bound=clip_bound)
    plans = (plan, plan.replace(noise_variance_sigma_sq=0.0),
             plan.replace(noise_variance_sigma_sq=sigma_sq / 4))
    phi_init = center + 0.4 * rng.uniform(-1, 1, size=dim) / math.sqrt(dim)
    verdicts, rescaled = [], []
    with pytest.MonkeyPatch.context() as mp:
        real_idle_calls = dpmeta.learners.idle_calls

        def spy_idle_calls(*args, **kwargs):
            verdicts.append(real_idle_calls(*args, **kwargs))
            return verdicts[-1]

        mp.setattr(dpmeta.learners, "idle_calls", spy_idle_calls)
        trained = run_meta_training(env, tasks, plans, phi_init, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpmeta.learners, "idle_calls", lambda *args, **kw: (False, False))
        for name in ("clip_norm_in_place", "project_in_place"):
            real = getattr(dpmeta.learners, name)

            def spy(v, *args, real=real):
                acted = real(v, *args)
                rescaled.append(acted)
                return acted

            mp.setattr(dpmeta.learners, name, spy)
        reference = run_meta_training(env, tasks, plans, phi_init, seed)
    assert len(verdicts) == 1
    assert trained.phi_hat.tobytes() == reference.phi_hat.tobytes()
    assert trained.surrogate_losses.tobytes() == reference.surrogate_losses.tobytes()
    interior, clip_idle = verdicts[0]
    assert not (interior and any(rescaled))
    assert clip_idle or not interior
    event(f"interior {interior}, clip idle {clip_idle}")


def _spy_steps(monkeypatch):
    """Record, per noisy_sgd_steps call of a pass, copies of the inits it
    stepped from and of the averaged iterate it returned."""
    calls = []
    real_steps = dpmeta.learners.noisy_sgd_steps

    def spy(visits, init, *args, **kwargs):
        out = real_steps(visits, init, *args, **kwargs)
        calls.append((np.array(init, copy=True), out.copy()))
        return out

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy)
    return calls


@pytest.mark.numpy_floor
@pytest.mark.parametrize("tasks, dim, arms", [(1, 3, 2), (2, 3, 2), (9, 3, 2), (40, 1, 1)])
@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_fold_bookkeeping_equals_a_meta_step_replay(family, tasks, dim, arms, monkeypatch):
    # the pass keeps every phi_t and theta_bar_t and scores them after its
    # loop; each arm's own (d,) MetaState, replayed with meta_step and
    # surrogate_loss on the outputs the learner returned, gives the same
    # bytes: every task's init, the surrogate losses and phi_hat. phi_init's
    # -0.0 coordinate is kept by phi_1, but MetaState's running sum starts
    # at +0.0, so at T = 1 phi_hat holds +0.0 there. With one arm in one
    # dimension the sum of the phi_t runs along a single axis, where a
    # reduce, unlike MetaState, would add pairwise
    center = np.array([0.1, 0.0, -0.2])[:dim]
    dom = ParamDomain(center, 1.5)
    env = EnvSpec(domain=dom, planted_center=center + np.array([0.5, 0.2, 0.0])[:dim],
                  similarity_v=0.4, samples_per_task=20, loss_family=family,
                  curvature=1.0, sample_noise_std=0.3, feature_norm=1.2)
    plan = NoisySgdPlan(steps_n=5, step_size=0.7, noise_variance_sigma_sq=0.04,
                        clip_bound=1.0)
    plans = (plan, plan.replace(noise_variance_sigma_sq=0.0))[:arms]
    phi_init = np.array([0.4, -0.0, 0.1])[-dim:]
    calls = _spy_steps(monkeypatch)
    trained = run_meta_training(env, tasks, plans, phi_init, 21)
    assert len(calls) == tasks
    for arm in range(len(plans)):
        state, losses = new_state(phi_init), []
        for init, bars in calls:
            assert init[arm].tobytes() == state.phi_current.tobytes()
            losses.append(surrogate_loss(state.phi_current, bars[arm]))
            state = meta_step(state, bars[arm])
        assert trained.surrogate_losses[arm].tobytes() == np.array(losses).tobytes()
        assert trained.phi_hat[arm].tobytes() == state.phi_hat().tobytes()
    if dim > 1:
        assert np.signbit(calls[0][0][:, 1]).all()
    if tasks == 1:
        assert not np.signbit(trained.phi_hat[:, 1]).any()


# an infinite output flows into later steps, whose inf - inf numpy warns
# about on its way to the ValueError
@pytest.mark.numpy_floor
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad_task", [0, 3])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_fold_bookkeeping_refuses_a_non_finite_output(bad_task, bad_value, monkeypatch):
    # the pass is certified, so the steps neither clip nor project and a
    # non-finite theta_bar_t flows through every later task; the check of
    # the surrogate losses after the loop still raises ValueError, for the
    # last task's output as for an earlier one
    dom = ParamDomain(np.zeros(2), 2.0)
    env = EnvSpec(domain=dom, planted_center=np.array([0.2, 0.1]), similarity_v=0.1,
                  samples_per_task=20, curvature=1.0, sample_noise_std=0.05)
    plan = NoisySgdPlan(steps_n=5, step_size=0.5, noise_variance_sigma_sq=0.0,
                        clip_bound=4.0)
    verdicts, calls = [], []
    real_idle_calls = dpmeta.learners.idle_calls
    real_steps = dpmeta.learners.noisy_sgd_steps

    def spy_idle_calls(*args, **kwargs):
        verdicts.append(real_idle_calls(*args, **kwargs))
        return verdicts[-1]

    def poisoned(*args, **kwargs):
        out = real_steps(*args, **kwargs)
        if len(calls) == bad_task:
            out[0, 1] = bad_value
        calls.append(out)
        return out

    monkeypatch.setattr(dpmeta.learners, "idle_calls", spy_idle_calls)
    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", poisoned)
    with pytest.raises(ValueError, match="non-finite"):
        run_meta_training(env, 4, (plan,), np.zeros(2), 5)
    assert verdicts == [(True, True)] and len(calls) == 4


@pytest.mark.numpy_floor
@pytest.mark.parametrize("family, arms", [
    pytest.param("quadratic", 1, id="1"), pytest.param("quadratic", 2, id="2"),
    pytest.param("logistic", 1, id="logistic-1")])
def test_training_pass_allocates_nothing_per_step(family, arms, monkeypatch):
    # the pass draws its blocks ahead, so a task's call allocates no array:
    # at d = 128 an array shaped like the (arms, d) iterates holds 1 KiB or
    # more, and a call's traced memory never rises by that, at 4 steps per
    # task as at 32; one logistic arm takes the one-margin gradient. The
    # pass's peak is at most the blocks it held before its anchors had an
    # arms axis (the visits, the standard normals and the noise, T n
    # (2 + arms) d floats, and T n logistic labels) plus that anchors block
    # (T n arms d floats, none for one arm, whose visits are a view), and two
    # of a task's (m, d) sample draws with their labels. A logistic step's
    # numpy calls hold up to about 2 KiB of buffers whatever d, so that pass
    # runs at d = 512, where an iterate holds 4 KiB
    tasks, m = 6, 50
    dim, center, labels = (128, 0.05, 0) if family == "quadratic" else (512, 0.02, 1)
    dom = ParamDomain(np.zeros(dim), 1.0)
    env = EnvSpec(domain=dom, planted_center=np.full(dim, center), similarity_v=0.3,
                  samples_per_task=m, loss_family=family, curvature=1.0,
                  sample_noise_std=0.3)
    rises = []
    real_steps = dpmeta.learners.noisy_sgd_steps

    def spy(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real_steps(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy)
    for n in (4, 32):
        plan = NoisySgdPlan(steps_n=n, step_size=1.5, noise_variance_sigma_sq=0.04,
                            clip_bound=1.0)
        plans = (plan, plan.replace(noise_variance_sigma_sq=0.0))[:arms]
        run_meta_training(env, tasks, plans, np.zeros(dim), 3)
        rises.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_meta_training(env, tasks, plans, np.zeros(dim), 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(rises) == tasks
        assert max(rises) < 8 * arms * dim
        blocks = tasks * n * ((2 + arms + (arms if arms > 1 else 0)) * dim + labels)
        assert peak <= 8 * (blocks + 2 * m * (dim + labels))


@pytest.mark.numpy_floor
@pytest.mark.parametrize("tasks", [1, 3, 7])
def test_idle_calls_decides_each_training_pass_once(tasks, monkeypatch):
    # at h = 0.7 with anchors projected onto the sphere the pass is declined
    # interior but certified clip idle; one idle_calls call decides both,
    # on phi_init, every task's visits and the whole noise block, for the
    # pass's tasks x (steps_n + 1) steps, and the steps get its verdicts
    dom = ParamDomain(np.zeros(2), 0.5)
    env = EnvSpec(domain=dom, planted_center=np.array([0.45, 0.0]), similarity_v=0.4,
                  samples_per_task=20, curvature=1.0, sample_noise_std=0.3)
    plan = NoisySgdPlan(steps_n=5, step_size=0.7, noise_variance_sigma_sq=0.01,
                        clip_bound=4.0)
    calls, flags = [], []
    real_idle_calls = dpmeta.learners.idle_calls
    real_steps = dpmeta.learners.noisy_sgd_steps

    def spy_idle_calls(*args, **kwargs):
        calls.append((args, kwargs, real_idle_calls(*args, **kwargs)))
        return calls[-1][-1]

    def spy_steps(*args, interior, clip_idle, task):
        flags.append((interior, clip_idle))
        return real_steps(*args, interior=interior, clip_idle=clip_idle, task=task)

    monkeypatch.setattr(dpmeta.learners, "idle_calls", spy_idle_calls)
    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_steps)
    run_meta_training(env, tasks, (plan,), np.zeros(2), 8)
    assert len(calls) == 1
    (visits, starts, step, domain, clip_bound, noise), kwargs, got = calls[0]
    assert got == (False, True)
    assert visits.points.shape == (plan.steps_n, tasks, 2)
    assert np.array_equal(starts, np.zeros(2)) and domain is dom
    assert (step, clip_bound) == (plan.step_size, plan.clip_bound)
    assert noise.shape == (plan.steps_n, tasks, 1, 2)
    assert kwargs == {"steps": tasks * (plan.steps_n + 1)}
    assert flags == [got] * tasks
