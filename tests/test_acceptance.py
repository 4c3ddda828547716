"""End-to-end acceptance checks for the private meta-learning experiments.

Each numbered criterion is one test that prints a single
``[PASS] criterion NN (label)`` line; run with ``pytest -s`` to see the lines
as they complete. Every check has a wall-clock budget asserted alongside its
substance, so a pathological slowdown also fails acceptance.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from dpmeta.config import build_config
from dpmeta.geometry import ParamDomain, dist_sq
from dpmeta.harness import (ARM_META, ARM_NO_META, calibrate,
                            csv_bytes_excluding_wall_clock, run_experiment,
                            sweep, write_csv)
from dpmeta.learners import (OgdConfig, adaptation_step_size, noisy_sgd_run,
                             ogd_run, private_step_scale)
from dpmeta.losses import (RegularityProfile, TaskSamples, certify_smoothness,
                           quadratic_value)
from dpmeta.meta import meta_step, new_state
from dpmeta.privacy import (NoisySgdPlan, PrivacyParams, group_dp, make_plan,
                            noise_variance, sample_step_noise)
from dpmeta.task_env import EnvSpec, generate_losses, sample_task, substream


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    done = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {num} blew its {budget_s}s budget: {elapsed:.1f}s")
        done = True
        print(f"[PASS] criterion {num:02d} ({label}) {elapsed:.2f}s")
    finally:
        if not done:
            print(f"[FAIL] criterion {num:02d} ({label})")


def nondecreasing_with_slack(means, stderrs):
    return all(means[i + 1] >= means[i] - 2 * (stderrs[i] + stderrs[i + 1])
               for i in range(len(means) - 1))


def nonincreasing_with_slack(means, stderrs):
    return all(means[i + 1] <= means[i] + 2 * (stderrs[i] + stderrs[i + 1])
               for i in range(len(means) - 1))


CALIBRATION_ITEMS = {
    "dim": "10", "domain_radius": "1.0", "similarity_v": "0.5",
    "samples_per_task": "800", "t_train": "1", "epsilon": "1.0",
    "delta": "1e-5", "master_seed": "0", "lipschitz_g": "1.0",
    "growth_alpha": "1.0",
}

SIMILARITY_SWEEP_ITEMS = {
    "dim": "5", "domain_radius": "3.0", "similarity_v": "0.0",
    "samples_per_task": "100", "t_train": "400", "t_eval": "500",
    "epsilon": "1.0", "delta": "1e-5", "curvature": "1.0",
    "sample_noise_std": "0.2", "baseline_no_meta": "true",
    "phi_init": "1.5,0,0,0,0", "master_seed": "101",
}


def test_criterion_01_calibration_constants():
    with criterion(1, "calibration exactness", 1.0):
        cal = calibrate(build_config(CALIBRATION_ITEMS))
        assert cal.steps_n == 100
        assert abs(cal.sigma_sq - 0.0143911) <= 1e-7
        assert abs(cal.step_scale - 4.24264) <= 1e-5
        assert adaptation_step_size(0.5, 1.0, 1.0, 100) == 0.06


def test_criterion_02_noise_statistics():
    with criterion(2, "noise statistical soundness", 10.0):
        priv = PrivacyParams(1.0, 1e-5)
        sigma_sq = noise_variance(100, 800, 1.0, priv)
        count, dim = 100_000, 10
        draws = sample_step_noise(substream(12345, "noise-check"), dim,
                                  sigma_sq, count=count)
        assert draws.shape == (count, dim)
        per_coord_var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(per_coord_var - sigma_sq) <= 0.05 * sigma_sq)
        mean_bound = 4 * math.sqrt(sigma_sq) / math.sqrt(count * dim)
        assert abs(draws.mean()) <= mean_bound


def test_criterion_03_adaptation_regret_certificate():
    with criterion(3, "within-task regret certificate", 30.0):
        dom = ParamDomain(np.zeros(5), 2.0)
        env = EnvSpec(domain=dom, planted_center=np.zeros(5), similarity_v=1.0,
                      samples_per_task=100, curvature=1.0, sample_noise_std=0.3)
        G = env.curvature * dom.diameter
        eta = adaptation_step_size(env.similarity_v, env.curvature, G, 100)
        violations = 0
        for t in range(200):
            task = sample_task(env, substream(42, "c3-task", t))
            samples = generate_losses(task, env, substream(42, "c3-losses", t))
            init_rng = substream(42, "c3-init", t)
            z = init_rng.normal(size=5)
            z = z / np.linalg.norm(z) * init_rng.uniform(0, dom.radius)
            out = ogd_run(samples, z, OgdConfig(eta, 100), dom)

            def emp(theta):
                return float(np.mean(quadratic_value(theta, samples.points,
                                                     samples.curvature)))

            sub = emp(out.averaged_iterate) - emp(task.theta_star)
            bound = dist_sq(z, task.theta_star) / (2 * eta * 100) + eta * G**2 / 2
            violations += sub > bound
        assert violations == 0


def test_criterion_04_zero_noise_degeneration():
    with criterion(4, "noisy SGD degenerates to plain SGD", 30.0):
        dom = ParamDomain(np.zeros(3), 1.5)
        steps, m = 15, 10
        for seed in range(50):
            rng = np.random.default_rng(5000 + seed)
            anchors = rng.normal(scale=0.5, size=(m, 3))
            samples = TaskSamples(anchors, curvature=2.0)
            init = rng.normal(size=3)
            init = init / np.linalg.norm(init) * rng.uniform(0, dom.radius)
            idx = rng.integers(0, m, size=steps)

            # independently coded projected SGD with gradient clipping
            theta = init.copy()
            trajectory = [theta.copy()]
            for i in idx:
                g = 2.0 * (theta - anchors[int(i)])
                norm = np.linalg.norm(g)
                if norm > 2.5:
                    g = g * (2.5 / norm)
                theta = theta - 0.15 * g
                if np.linalg.norm(theta) > dom.radius:
                    theta = theta * (dom.radius / np.linalg.norm(theta))
                trajectory.append(theta.copy())

            for k in range(1, steps + 1):
                plan_k = NoisySgdPlan(steps_n=k, step_size=0.15,
                                      noise_variance_sigma_sq=0.0,
                                      clip_bound=2.5)
                out = noisy_sgd_run(samples, init, plan_k, dom,
                                    np.random.default_rng(0),
                                    index_sequence=idx[:k])
                assert np.allclose(out.final_iterate, trajectory[k],
                                   rtol=1e-12, atol=1e-15)
            full = NoisySgdPlan(steps_n=steps, step_size=0.15,
                                noise_variance_sigma_sq=0.0, clip_bound=2.5)
            out = noisy_sgd_run(samples, init, full, dom,
                                np.random.default_rng(0), index_sequence=idx)
            assert np.allclose(out.averaged_iterate,
                               np.mean(trajectory[:-1], axis=0),
                               rtol=1e-12, atol=1e-15)


def test_criterion_05_private_risk_certificate():
    with criterion(5, "private averaged-iterate risk certificate", 300.0):
        dom = ParamDomain(np.zeros(10), 1.0)
        env = EnvSpec(domain=dom, planted_center=np.zeros(10), similarity_v=0.5,
                      samples_per_task=800, curvature=1.0, sample_noise_std=0.2)
        priv = PrivacyParams(1.0, 1e-5)
        G = env.curvature * dom.diameter
        gamma = private_step_scale(G, env.curvature, 10, 800, priv)
        plan = make_plan(800, priv, 10, G, gamma)
        profile = RegularityProfile(lipschitz_g=G, smoothness_beta=env.curvature,
                                    growth_alpha=env.curvature)
        assert certify_smoothness(profile, dom, 800, priv, plan.steps_n)
        stat_term = max(math.sqrt(10 * math.log(1e5)) / (1.0 * 800),
                        1 / math.sqrt(800))
        phi = np.zeros(10)
        lhs, rhs = [], []
        for t in range(500):
            task = sample_task(env, substream(7, "c5-task", t))
            samples = generate_losses(task, env, substream(7, "c5-losses", t))
            bar = noisy_sgd_run(samples, phi, plan, dom,
                                substream(7, "c5-noise", t))
            lhs.append(0.5 * env.curvature
                       * dist_sq(bar.averaged_iterate, task.theta_star))
            rhs.append(5 * G * (dist_sq(phi, task.theta_star) / gamma + gamma)
                       * stat_term)
        assert float(np.mean(lhs)) <= float(np.mean(rhs))


def test_criterion_06_meta_update_identities():
    with criterion(6, "meta-update identities", 10.0):
        rng = substream(2024, "meta-ident")
        bars = rng.normal(scale=2.0, size=(1000, 4))
        state = new_state(rng.normal(size=4))
        phis = []
        for t in range(1000):
            phis.append(state.phi_current)
            state = meta_step(state, bars[t])
            want = bars[: t + 1].mean(axis=0)
            err = np.max(np.abs(state.phi_current - want))
            assert err <= 1e-12 * max(1.0, np.max(np.abs(want)))
        want_hat = np.mean(phis, axis=0)
        err = np.max(np.abs(state.phi_hat() - want_hat))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(want_hat)))

        # brute-force descent on the summed surrogate at T = 20
        target = bars[:20]
        phi = np.zeros(4)
        for _ in range(5000):
            grad = (phi - target).sum(axis=0)
            phi = phi - 0.01 * grad
        assert np.max(np.abs(phi - target.mean(axis=0))) <= 1e-10


def test_criterion_07_similarity_scaling():
    with criterion(7, "risk grows with task dispersion", 600.0):
        cfg = build_config(SIMILARITY_SWEEP_ITEMS)
        reports = sweep(cfg, "V", [0.0, 0.25, 0.5, 1.0])
        means = [r.arms[ARM_META].mean_excess for r in reports]
        ses = [r.arms[ARM_META].stderr_excess for r in reports]
        assert nondecreasing_with_slack(means, ses)
        no_meta = reports[0].arms[ARM_NO_META].mean_excess
        assert no_meta >= 2 * means[0]


def test_criterion_08_task_count_convergence():
    with criterion(8, "risk shrinks with training tasks", 900.0):
        items = dict(SIMILARITY_SWEEP_ITEMS)
        items["similarity_v"] = "0.1"
        del items["baseline_no_meta"]
        reports = sweep(build_config(items), "T_train", [10, 50, 200, 800])
        means = [r.arms[ARM_META].mean_excess for r in reports]
        ses = [r.arms[ARM_META].stderr_excess for r in reports]
        assert nonincreasing_with_slack(means, ses)


def test_criterion_09_privacy_budget_scaling():
    with criterion(9, "noise and risk track the privacy budget", 600.0):
        items = {
            "dim": "2", "domain_radius": "1.0", "similarity_v": "0.0",
            "samples_per_task": "1900", "t_train": "25", "t_eval": "500",
            "epsilon": "1.0", "delta": "0.1", "curvature": "1.0",
            "sample_noise_std": "0.05", "master_seed": "101",
        }
        reports = sweep(build_config(items), "epsilon", [0.1, 0.5, 2.0])
        cals = [r.calibration for r in reports]
        # the step budget must sit on its sample cap so sigma^2 is a pure
        # 1/epsilon^2 law across the sweep
        assert {c.steps_n for c in cals} == {1900 // 8}
        products = [c.sigma_sq * c.epsilon**2 for c in cals]
        for p in products[1:]:
            assert abs(p - products[0]) <= 1e-12 * products[0]
        assert cals[0].sigma_sq > cals[1].sigma_sq > cals[2].sigma_sq
        means = [r.arms[ARM_META].mean_excess for r in reports]
        ses = [r.arms[ARM_META].stderr_excess for r in reports]
        assert nonincreasing_with_slack(means, ses)


def test_criterion_10_group_privacy_arithmetic():
    with criterion(10, "group privacy conversion", 1.0):
        eps_g, delta_g = group_dp(PrivacyParams(0.5, 1e-6, group_size=3))
        assert eps_g == 1.5
        assert abs(delta_g - 8.15485e-6) <= 1e-11


def test_criterion_11_byte_identical_reruns(tmp_path):
    with criterion(11, "reruns are byte identical", 300.0):
        cfg = build_config(SIMILARITY_SWEEP_ITEMS)
        paths = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            write_csv(run_experiment(cfg), str(path))
            paths.append(str(path))
        assert (csv_bytes_excluding_wall_clock(paths[0])
                == csv_bytes_excluding_wall_clock(paths[1]))
