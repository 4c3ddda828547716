import ast
import json
import os
from pathlib import Path
import re
import subprocess
import sys

import numpy as np
import pytest

import dpmeta
import dpmeta.cli
import dpmeta.config
import dpmeta.learners
from dpmeta.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from dpmeta.config import (KEYS, REQUIRED, ConfigError, build_config,
                           load_config, parse_config_text)
from dpmeta.harness import (ARM_META, ARM_NO_META, ARM_NONPRIVATE,
                            CSV_COLUMNS, CalibrationRecord,
                            InternalInvariantError, MetricsReport,
                            WALL_CLOCK_COLUMN, calibrate,
                            csv_bytes_excluding_wall_clock, read_csv_rows,
                            report_rows, run_experiment, sweep, write_csv)
from dpmeta.learners import OgdConfig, adaptation_step_size, ogd_run
from dpmeta.meta import run_meta_training
from dpmeta.privacy import sample_step_noise
from dpmeta.task_env import (generate_losses, population_risk_gap, sample_task,
                             substream)

# m = 50 gives 3 private steps; with 1 step a training pass returns its start,
# so a training arm's surrogate losses would all be 0 and a row mix-up between
# training arms would go unseen
BASE_ITEMS = {
    "dim": "2",
    "domain_radius": "2.0",
    "similarity_v": "0.3",
    "samples_per_task": "50",
    "sample_noise_std": "0.1",
    "t_train": "6",
    "t_eval": "8",
    "epsilon": "1.0",
    "delta": "1e-5",
    "master_seed": "123",
}


def make_cfg(**overrides):
    items = dict(BASE_ITEMS)
    items.update({k: str(v) for k, v in overrides.items()})
    return build_config(items)


def write_cfg_file(path, **overrides):
    items = dict(BASE_ITEMS)
    items.update({k: str(v) for k, v in overrides.items()})
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    return str(path)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("DPMETA_SEED", raising=False)


def test_parse_config_text():
    items = parse_config_text(
        "# leading comment\n"
        "dim = 3   # trailing comment\n"
        "\n"
        "epsilon=0.5\n"
        "  # indented comment\n"
        "output_path = runs/v#2.csv\n")
    assert items == {"dim": "3", "epsilon": "0.5", "output_path": "runs/v#2.csv"}
    # '#' starts a comment only at a line's start or after whitespace, so a
    # '#' glued to a value stays in it and is judged with it
    with pytest.raises(ConfigError) as exc:
        build_config(dict(BASE_ITEMS, **parse_config_text("dim = 5#x\n")))
    assert exc.value.violations == ["dim: expected an integer, got '5#x'"]


def test_parse_config_rejects_garbage_and_duplicates():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("dim = 2\nnot a setting\ndim = 3\n = 3\n")
    msgs = "\n".join(exc.value.violations)
    assert "line 2" in msgs
    assert "duplicate" in msgs
    assert "line 4: empty key" in msgs


def test_build_config_reports_every_violation():
    with pytest.raises(ConfigError) as exc:
        build_config({"dim": "2", "mystery_key": "1", "epsilon": "-1",
                      "delta": "0.5", "similarity_v": "abc", "curvature": "inf",
                      "loss_family": "cubic", "phi_init": "1,x"})
    msgs = "\n".join(exc.value.violations)
    assert "unknown key 'mystery_key'" in msgs
    assert "epsilon" in msgs
    assert "similarity_v" in msgs
    assert "missing required key" in msgs
    assert "curvature: must be finite, got inf" in msgs
    assert "loss_family: must be one of ['logistic', 'quadratic'], got 'cubic'" in msgs
    assert "phi_init: expected comma-separated numbers, got '1,x'" in msgs
    assert len(exc.value.violations) >= 8


def test_build_config_reports_regularity_violations_beside_environment_ones():
    # similarity_v above the radius keeps the environment from being built;
    # the malformed regularity override must be reported all the same
    with pytest.raises(ConfigError) as exc:
        make_cfg(domain_radius=1.0, similarity_v=5.0, lipschitz_g="abc")
    msgs = "\n".join(exc.value.violations)
    assert "similarity_v=5.0 exceeds the domain radius" in msgs
    assert "lipschitz_g: expected a number, got 'abc'" in msgs
    # logistic tasks have no closed-form growth constant to fall back on
    with pytest.raises(ConfigError) as exc:
        make_cfg(loss_family="logistic", lipschitz_g="abc")
    assert exc.value.violations == [
        "lipschitz_g: expected a number, got 'abc'",
        "growth_alpha is required for logistic tasks (no closed form)"]


def test_config_defaults():
    cfg = build_config(BASE_ITEMS)
    assert cfg.t_eval == 8
    assert np.array_equal(cfg.env.planted_center, np.zeros(2))
    assert np.array_equal(cfg.phi_init, np.zeros(2))
    assert cfg.step_scale_variant == "sqrt_m"
    assert not cfg.baseline_no_meta
    # quadratic regularity is derived from curvature and diameter
    assert cfg.regularity.lipschitz_g == 1.0 * cfg.env.domain.diameter
    assert cfg.regularity.growth_alpha == 1.0
    items = {k: v for k, v in BASE_ITEMS.items() if k != "t_eval"}
    assert build_config(items).t_eval == 500


def test_config_overrides_regularity():
    cfg = make_cfg(lipschitz_g=1.0, growth_alpha=2.0)
    assert cfg.regularity.lipschitz_g == 1.0
    assert cfg.regularity.growth_alpha == 2.0


def test_config_validates_geometry():
    with pytest.raises(ConfigError):
        make_cfg(phi_init="5,5")  # outside radius-2 ball
    with pytest.raises(ConfigError):
        make_cfg(planted_center="5,5")
    with pytest.raises(ConfigError):
        make_cfg(phi_init="1,2,3")  # wrong dimension
    with pytest.raises(ConfigError):
        make_cfg(similarity_v="3.0")  # exceeds radius
    with pytest.raises(ConfigError) as exc:
        make_cfg(phi_init="nan,0")
    assert exc.value.violations == ["phi_init: coordinates must be finite"]


def test_config_reports_an_overflowing_offset(tmp_path, capsys):
    # in a radius-1e200 ball the squared offset of phi_init or planted_center
    # 1e199 from the center overflows; each is a violation, named alike,
    # and calibrate exits 2 instead of raising
    big = {"domain_radius": "1e200", "phi_init": "1e199,0", "planted_center": "0,1e199"}
    with pytest.raises(ConfigError) as exc:
        make_cfg(**big)
    overflow = "vector has non-finite coordinates or a squared norm that overflows"
    assert exc.value.violations == [f"phi_init: {overflow}", overflow]
    cfg_file = write_cfg_file(tmp_path / "c.txt", **big)
    assert main(["calibrate", "--config", cfg_file]) == EXIT_CONFIG
    assert overflow in capsys.readouterr().err


@pytest.mark.parametrize("key, text, value", [("planted_center", "3,0", (3.0, 0.0)),
                                               ("similarity_v", "2.5", 2.5)])
def test_config_and_env_spec_reject_an_environment_alike(key, text, value):
    # the two environment checks a config reaches past its KEYS readers,
    # which reject every other bad environment value first: config reports
    # the text its Environment, which the run path reads, raises for the
    # same values (radius 2)
    with pytest.raises(ConfigError) as exc:
        make_cfg(**{key: text})
    with pytest.raises(ValueError) as spec_exc:
        make_cfg().env.replace(**{key: value})
    assert exc.value.violations == [str(spec_exc.value)]


def test_malformed_baseline_flags_are_violations(tmp_path, capsys):
    bad = {"baseline_no_meta": "maybe", "baseline_nonprivate_meta": "maybe"}
    with pytest.raises(ConfigError) as exc:
        make_cfg(**bad)
    msgs = "\n".join(exc.value.violations)
    assert "baseline_no_meta: expected true/false, got 'maybe'" in msgs
    assert "baseline_nonprivate_meta: expected true/false, got 'maybe'" in msgs
    cfg_file = write_cfg_file(tmp_path / "c.txt", **bad)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "baseline_no_meta" in err and "baseline_nonprivate_meta" in err
    assert not out.exists()


def test_master_seed_must_fit_64_bits(tmp_path, capsys, monkeypatch):
    assert make_cfg(master_seed=0).master_seed == 0
    assert make_cfg(master_seed=2**64 - 1).master_seed == 2**64 - 1
    for seed, why in ((-1, "must be >= 0"), (2**64, f"must be < {2**64}")):
        with pytest.raises(ConfigError) as exc:
            make_cfg(master_seed=seed)
        assert exc.value.violations == [f"master_seed: {why}, got {seed}"]
    # --seed and DPMETA_SEED are held to the same range
    cfg_file = write_cfg_file(tmp_path / "c.txt")
    out = str(tmp_path / "o.csv")
    assert main(["run", "--config", cfg_file, "--out", out,
                 "--seed", "-1"]) == EXIT_CONFIG
    monkeypatch.setenv("DPMETA_SEED", str(2**64))
    assert main(["run", "--config", cfg_file, "--out", out]) == EXIT_CONFIG
    assert "master_seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def readme_table_rows(heading):
    """The cells of each body row of the README table under heading."""
    readme_path = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme_path.read_text(encoding="utf-8")
    table = readme.split(heading, 1)[1].split("\n\n", 2)[1]
    return [row.split("|")[1:-1] for row in table.splitlines()[2:]]


def test_readme_config_table_matches_keys():
    names, required, literals = [], set(), {}
    for key_cell, required_cell, default_cell, _ in readme_table_rows("### Config keys"):
        row_names = re.findall(r"`([^`]+)`", key_cell)
        names += row_names
        if required_cell.strip() == "yes":
            required.update(row_names)
        literal = re.fullmatch(r"`([^`]+)`", default_cell.strip())
        for name in row_names:
            literals[name] = literal and literal.group(1)
    assert sorted(names) == sorted(KEYS)
    assert required == {k for k, (_, default) in KEYS.items() if default is REQUIRED}
    for name, literal in literals.items():
        read, default = KEYS[name]
        if literal is None:
            # a concrete default must be written in the table
            assert default is None or default is REQUIRED, name
        else:
            assert read(literal) == default and type(read(literal)) is type(default), name


def test_readme_calibration_table_matches_record():
    rows = readme_table_rows("### Calibration record")
    assert tuple(re.fullmatch(r" `(\w+)` ", name).group(1)
                 for name, _ in rows) == CalibrationRecord.fields
    assert all(meaning.strip() for _, meaning in rows)


LOGISTIC_BASE_ITEMS = dict(BASE_ITEMS, loss_family="logistic", growth_alpha="0.5")
# domain_center moves against a fixed phi_init and planted_center, so the run
# changes shape and not only position
CENTERED_BASE_ITEMS = dict(BASE_ITEMS, phi_init="0,0", planted_center="0,0")

# key -> (base items, a second legal value)
KEY_ALTERNATIVES = {
    "dim": (BASE_ITEMS, "3"),
    "domain_radius": (BASE_ITEMS, "3.0"),
    "domain_center": (CENTERED_BASE_ITEMS, "1,0"),
    "similarity_v": (BASE_ITEMS, "0.5"),
    "samples_per_task": (BASE_ITEMS, "60"),
    "loss_family": (LOGISTIC_BASE_ITEMS, "quadratic"),
    "curvature": (BASE_ITEMS, "2.0"),
    "sample_noise_std": (BASE_ITEMS, "0.2"),
    "feature_norm": (LOGISTIC_BASE_ITEMS, "2.0"),
    "t_train": (BASE_ITEMS, "7"),
    "t_eval": (BASE_ITEMS, "9"),
    "epsilon": (BASE_ITEMS, "2.0"),
    "delta": (BASE_ITEMS, "1e-4"),
    "lipschitz_g": (BASE_ITEMS, "5.0"),
    "growth_alpha": (BASE_ITEMS, "2.0"),
    "step_scale_variant": (BASE_ITEMS, "g_sqrt_m"),
    "master_seed": (BASE_ITEMS, "124"),
    "phi_init": (BASE_ITEMS, "0.5,0.5"),
    "planted_center": (BASE_ITEMS, "0.5,0"),
    "baseline_no_meta": (BASE_ITEMS, "true"),
    "baseline_nonprivate_meta": (BASE_ITEMS, "true"),
    "mc_eval_samples": (LOGISTIC_BASE_ITEMS, "100"),
}


def test_every_config_key_changes_the_run():
    # a key that leaves every CSV value as it was is a knob with no effect;
    # output_path only says where the CSV goes
    assert set(KEY_ALTERNATIVES) == set(KEYS) - {"output_path"}

    def csv_rows(items):
        # run_id hashes the raw settings, so it differs whenever they do
        rows = report_rows(run_experiment(build_config(items)))
        return [row[1:WALL_CLOCK_COLUMN] for row in rows]

    base_rows = {}
    for key, (base, value) in KEY_ALTERNATIVES.items():
        assert base.get(key) != value, key
        if id(base) not in base_rows:
            base_rows[id(base)] = csv_rows(base)
        assert csv_rows(dict(base, **{key: value})) != base_rows[id(base)], key


def test_calibrate_reference_point():
    cfg = make_cfg(dim=10, domain_radius=1.0, samples_per_task=800,
                   similarity_v=0.5, lipschitz_g=1.0, growth_alpha=1.0)
    cal = calibrate(cfg)
    assert cal.steps_n == 100
    assert cal.sigma_sq == pytest.approx(0.014391156831212785, abs=1e-15)
    assert cal.step_scale == pytest.approx(4.242640687119285, abs=1e-12)
    assert cal.sgd_step_size == pytest.approx(cal.step_scale / (1.0 * 10.0),
                                              abs=1e-14)
    assert cal.eta == adaptation_step_size(0.5, 1.0, 1.0, 800)
    assert cal.smoothness_ceiling == pytest.approx(1.6475255724556521, abs=1e-12)
    assert cal.smoothness_ok  # quadratic beta = 1 sits under the ceiling


# keys that could change no CSV value: every task is visited once (no
# sequential composition), group privacy is library arithmetic
# (privacy.group_dp), the environment serves any number of tasks, and the
# smoothness constant is always derived
@pytest.mark.parametrize("key", ["visits_per_task", "group_size", "task_budget",
                                 "smoothness_beta"])
def test_deleted_key_is_an_unknown_key(key, tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        make_cfg(**{key: 1})
    assert exc.value.violations == [f"unknown key {key!r}"]
    cfg_file = write_cfg_file(tmp_path / "c.txt", **{key: 1})
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# criterion 07's items (criteria 08 and the train_heavy bench shape share its
# plan), criterion 01's and criterion 09's
CRITERION_07_ITEMS = {
    "dim": "5", "domain_radius": "3.0", "similarity_v": "0.0",
    "samples_per_task": "100", "t_train": "400", "t_eval": "500",
    "epsilon": "1.0", "delta": "1e-5", "sample_noise_std": "0.2",
    "baseline_no_meta": "true", "phi_init": "1.5,0,0,0,0", "master_seed": "101",
}
CRITERION_01_ITEMS = {
    "dim": "10", "domain_radius": "1.0", "similarity_v": "0.5",
    "samples_per_task": "800", "t_train": "1", "epsilon": "1.0",
    "delta": "1e-5", "master_seed": "0", "lipschitz_g": "1.0",
    "growth_alpha": "1.0",
}
CRITERION_09_ITEMS = {
    "dim": "2", "domain_radius": "1.0", "similarity_v": "0.0",
    "samples_per_task": "1900", "t_train": "25", "t_eval": "500",
    "epsilon": "1.0", "delta": "0.1", "sample_noise_std": "0.05",
    "master_seed": "101",
}


@pytest.mark.parametrize("items", [
    dict(CRITERION_07_ITEMS, similarity_v=v, t_train="100", t_eval="100",
         baseline_nonprivate_meta="true") for v in ("0", "0.5", "1")
] + [dict(CRITERION_09_ITEMS, epsilon="0.5", t_eval="100", phi_init="0.5,0",
          baseline_no_meta="true", baseline_nonprivate_meta="true"),
      dict(BASE_ITEMS, dim="3", loss_family="logistic", growth_alpha="0.1",
           similarity_v="0.2", samples_per_task="60", t_train="40", t_eval="30",
           epsilon="2.0", planted_center="1,0,0", feature_norm="1.5",
           baseline_no_meta="true", baseline_nonprivate_meta="true")],
    ids=["criterion_07_V0", "criterion_07_V0.5", "criterion_07_V1", "criterion_09",
         "logistic"])
def test_every_arm_meets_the_online_to_batch_certificate(items):
    # OGD at step eta for m steps from start phi on G-Lipschitz convex losses
    # leaves an averaged iterate with expected excess risk at most
    # ||phi - theta*||^2 / (2 eta m) + eta G^2 / 2; averaged over the eval
    # tasks, each arm's mean excess must sit under the mean bound, up to
    # three standard errors
    cfg = build_config(items)
    report = run_experiment(cfg)
    cal, env = report.calibration, cfg.env
    quiet = cal.plan.replace(noise_variance_sigma_sq=0.0)
    phi_hat = run_meta_training(env, cfg.t_train, [cal.plan, quiet], cfg.phi_init,
                                cfg.master_seed).phi_hat
    starts = {ARM_META: phi_hat[0], ARM_NO_META: cfg.phi_init,
              ARM_NONPRIVATE: phi_hat[1]}
    stars = np.array([sample_task(env, substream(cfg.master_seed, "eval-task", e)).theta_star
                      for e in range(cfg.t_eval)])
    m = env.samples_per_task
    assert set(report.arms) == set(starts)
    for arm, result in report.arms.items():
        dist_sq = ((stars - starts[arm]) ** 2).sum(axis=1)
        bound = dist_sq.mean() / (2 * cal.eta * m) + cal.eta * cal.lipschitz_g**2 / 2
        assert result.mean_excess <= bound + 3 * result.stderr_excess, arm


@pytest.mark.parametrize("items", [
    dict(CRITERION_07_ITEMS, similarity_v="1", t_train="100", t_eval="10",
         baseline_nonprivate_meta="true"),
    dict(CRITERION_09_ITEMS, epsilon="0.5", t_eval="10", phi_init="0.5,0",
         baseline_no_meta="true", baseline_nonprivate_meta="true"),
    dict(BASE_ITEMS, dim="3", loss_family="logistic", growth_alpha="0.1",
         similarity_v="0.2", samples_per_task="60", t_train="40", t_eval="6",
         epsilon="2.0", planted_center="1,0,0", feature_norm="1.5",
         mc_eval_samples="2000", baseline_no_meta="true",
         baseline_nonprivate_meta="true", master_seed="7"),
], ids=["criterion_07_V1", "criterion_09", "logistic"])
def test_eval_adaptation_matches_a_separate_run_per_task(items):
    # the certificate above cannot tell the averaged iterate from the final
    # one, nor eta from a multiple of it; this pins both: each arm's excess
    # risk on an eval task is exactly the risk of the averaged iterate of OGD
    # at the calibrated eta, run from the arm's start on that task alone
    cfg = build_config(items)
    report = run_experiment(cfg)
    cal, env, seed = report.calibration, cfg.env, cfg.master_seed
    quiet = cal.plan.replace(noise_variance_sigma_sq=0.0)
    phi_hat = run_meta_training(env, cfg.t_train, [cal.plan, quiet], cfg.phi_init,
                                seed).phi_hat
    starts = {ARM_META: phi_hat[0], ARM_NO_META: cfg.phi_init,
              ARM_NONPRIVATE: phi_hat[1]}
    assert set(report.arms) == set(starts)
    step = OgdConfig(step_size=cal.eta, num_steps=env.samples_per_task)
    expected = {arm: [] for arm in starts}
    for e in range(3):
        task = sample_task(env, substream(seed, "eval-task", e))
        samples = generate_losses(task, env, substream(seed, "eval-losses", e))
        for arm, start in starts.items():
            theta = ogd_run(samples, start, step, env.domain).averaged_iterate
            gap = population_risk_gap(env, task.theta_star[None], theta[None],
                                      cfg.mc_eval_samples,
                                      substream(seed, "eval-risk"))
            expected[arm].append(float(gap[0]))
    assert {arm: list(report.arms[arm].excess_risks[:3]) for arm in starts} == expected


@pytest.mark.parametrize("items", [
    dict(CRITERION_09_ITEMS, epsilon="0.5", phi_init="0.5,0", similarity_v=v,
         baseline_no_meta="true", baseline_nonprivate_meta="true") for v in ("0", "0.05", "0.2")
] + [dict(CRITERION_09_ITEMS, epsilon="0.5", phi_init="0.5,0", similarity_v="0.1",
          curvature="3.0", sample_noise_std="0.1", baseline_no_meta="true",
          baseline_nonprivate_meta="true")],
    ids=["criterion_09_V0", "criterion_09_V0.05", "criterion_09_V0.2", "curvature_3"])
def test_every_arm_matches_the_closed_form_expected_risk(items):
    # on a stable quadratic plan whose iterates stay well inside the ball,
    # nothing is projected, so OGD at step eta from phi is linear in the
    # draws: with r = 1 - eta c, the averaged iterate theta_1 .. theta_m is
    # theta* + A (phi - theta*) + eta c sum_{j=1}^{m-1} B_j w_j, where
    # A = (1/m) sum_{k<m} r^k and B_j = (1/m) sum_{l<=m-1-j} r^l. Over
    # theta* = c0 + N(0, V^2/d I) and anchor noise w_j ~ N(0, s^2 I):
    #   E[excess | phi] = (c/2)[A^2 (||phi - c0||^2 + V^2) + (eta c)^2 s^2 d sum_j B_j^2]
    cfg = build_config(items)
    report = run_experiment(cfg)
    cal, env = report.calibration, cfg.env
    quiet = cal.plan.replace(noise_variance_sigma_sq=0.0)
    phi_hat = run_meta_training(env, cfg.t_train, [cal.plan, quiet], cfg.phi_init,
                                cfg.master_seed).phi_hat
    starts = {ARM_META: phi_hat[0], ARM_NO_META: cfg.phi_init,
              ARM_NONPRIVATE: phi_hat[1]}
    assert set(report.arms) == set(starts)
    c, m, d = env.curvature, env.samples_per_task, env.dim
    v, s = env.similarity_v, env.sample_noise_std
    # partial[k] = (1/m) sum_{l<=k} r^l, so A = partial[m-1] and B_j = partial[m-1-j]
    partial = np.cumsum((1.0 - cal.eta * c) ** np.arange(m)) / m
    a, b = partial[m - 1], partial[:m - 1]
    noise = (cal.eta * c) ** 2 * s**2 * d * (b**2).sum()
    for arm, result in report.arms.items():
        offset_sq = ((np.asarray(starts[arm]) - env.planted_center) ** 2).sum()
        expected = c / 2 * (a**2 * (offset_sq + v**2) + noise)
        assert abs(result.mean_excess - expected) <= 4 * result.stderr_excess, arm


@pytest.mark.parametrize("items,step_times_beta,noop", [
    (CRITERION_07_ITEMS, 5.366563145999495, False),
    (dict(CRITERION_07_ITEMS, epsilon="0.5"), 18.209125552621757, True),
    (CRITERION_01_ITEMS, 0.42426406871192845, False),
    (CRITERION_09_ITEMS, 0.17882583951826908, False),
], ids=["criterion_07", "criterion_07_eps_0.5", "criterion_01", "criterion_09"])
def test_calibrate_flags_unstable_and_noop_plans(items, step_times_beta, noop,
                                                  tmp_path, capsys):
    cal = calibrate(build_config(items))
    assert cal.step_times_beta == pytest.approx(step_times_beta, rel=1e-12)
    assert cal.step_times_beta == cal.sgd_step_size * cal.smoothness_beta
    assert cal.training_is_noop == noop == (cal.steps_n == 1)
    cfg_file = tmp_path / "c.txt"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    assert main(["calibrate", "--config", str(cfg_file)]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    expected = []
    if step_times_beta > 2:
        expected.append(f"warning: step_times_beta = {step_times_beta:.3g} > 2: "
                        "the private step is unstable")
    if noop:
        expected.append("warning: training_is_noop: steps_n = 1, so private "
                        "training returns its start")
    assert err == expected


def test_run_and_sweep_warn_on_flagged_plans_and_still_succeed(tmp_path, capsys):
    # BASE_ITEMS take 3 private steps of 9.8 at beta = 1; m = 30 takes one
    cfg_file = write_cfg_file(tmp_path / "c.txt", t_train=3, t_eval=4)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ("warning: step_times_beta = 9.8 > 2: "
                                       "the private step is unstable\n")
    assert main(["sweep", "--config", cfg_file, "--out", str(out), "--axis", "m",
                 "--values", "30,50"]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "warning: m=30 step_times_beta = 21.9 > 2: the private step is unstable",
        "warning: m=30 training_is_noop: steps_n = 1, so private training "
        "returns its start",
        "warning: m=50 step_times_beta = 9.8 > 2: the private step is unstable"]
    assert out.exists()


@pytest.mark.parametrize("family_items", [
    {},
    {"loss_family": "logistic", "growth_alpha": "0.5"},
], ids=["quadratic", "logistic"])
def test_calibrate_prints_the_sidecar_record_lines(family_items, tmp_path, capsys):
    cfg_file = write_cfg_file(tmp_path / "c.txt", t_train=3, t_eval=4,
                              **family_items)
    assert main(["calibrate", "--config", cfg_file]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    # the sidecar's one section: [run_id], master_seed, then the record
    sidecar = (tmp_path / "o.csv.calibration").read_text().splitlines()
    assert sidecar[1] == "master_seed = 123"
    assert sidecar[2:] == printed
    record = calibrate(load_config(cfg_file))
    names = list(CalibrationRecord.fields)
    assert [line.split(" = ", 1)[0] for line in printed] == names
    for line, name in zip(printed, names):
        value = getattr(record, name)
        if isinstance(value, float):
            assert float(line.split(" = ", 1)[1]) == value, line


@pytest.mark.parametrize("no_meta,nonprivate", [
    (False, False), (True, False), (False, True), (True, True),
], ids=["meta_only", "with_no_meta", "with_nonprivate", "all_arms"])
def test_run_contains_requested_arms(no_meta, nonprivate, tmp_path):
    report = run_experiment(make_cfg(baseline_no_meta=str(no_meta).lower(),
                                     baseline_nonprivate_meta=str(nonprivate).lower()))
    expected = tuple(arm for arm, on in ((ARM_META, True), (ARM_NO_META, no_meta),
                                         (ARM_NONPRIVATE, nonprivate)) if on)
    assert tuple(report.arms) == expected
    out = tmp_path / "arms.csv"
    write_csv(report, str(out))
    csv_arms = [row["arm"] for row in read_csv_rows(str(out))]
    assert csv_arms == [arm for arm in expected for _ in range(8)]
    assert report.arms[ARM_META].sigma_sq_effective == report.calibration.sigma_sq
    for arm in report.arms.values():
        training = (arm.mean_surrogate, arm.v_bar_sq_realized, arm.sigma_sq_effective)
        if arm.arm == ARM_NO_META:
            assert training == (None, None, None)
        else:
            assert None not in training
            # training moved every task's output off the phi it started from
            assert arm.mean_surrogate > 0.0
        assert len(arm.excess_risks) == 8
        assert arm.mean_excess == pytest.approx(np.mean(arm.excess_risks))
    if nonprivate:
        # the zero-noise arm reads its own training row, not the private one
        assert report.arms[ARM_NONPRIVATE].sigma_sq_effective == 0.0
        assert (report.arms[ARM_NONPRIVATE].excess_risks
                != report.arms[ARM_META].excess_risks)


@pytest.mark.parametrize("family_items", [
    {},
    {"loss_family": "logistic", "growth_alpha": "0.5"},
], ids=["quadratic", "logistic"])
def test_single_training_task_meta_equals_no_meta(family_items):
    # with one training task phi_hat is exactly the initial phi, so the meta
    # arm evaluates from the same point as the untrained baseline; for logistic
    # tasks the gaps agree only if both arms score the same Monte Carlo draws
    report = run_experiment(make_cfg(t_train=1, baseline_no_meta="true",
                                     **family_items))
    assert report.arms[ARM_META].excess_risks == report.arms[ARM_NO_META].excess_risks


def test_learner_runs_the_calibrated_plan(monkeypatch):
    # every private training run must use the constants the sidecar reports
    calls, workspaces = [], set()
    real_steps = dpmeta.learners.noisy_sgd_steps

    def spy_steps(visits, init, plan, dom, noise, work, out, *, interior, clip_idle,
                  task):
        calls.append((task, visits, np.shape(init), plan, noise, out.shape))
        workspaces.add(work)
        return real_steps(visits, init, plan, dom, noise, work, out, interior=interior,
                          clip_idle=clip_idle, task=task)

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_steps", spy_steps)
    cfg = make_cfg(baseline_nonprivate_meta="true")
    cal = run_experiment(cfg).calibration
    n, m, d, tasks = cal.steps_n, cfg.env.samples_per_task, cfg.env.dim, cfg.t_train
    # one private step call per training task, in task order, stepping both
    # training arms in the one workspace of the pass
    assert [call[0] for call in calls] == list(range(tasks))
    assert len(workspaces) == 1
    for t, visits, init_shape, plan, noise, out_shape in calls:
        assert plan.steps_n == cal.steps_n
        assert plan.step_size == cal.sgd_step_size
        assert plan.clip_bound == cal.lipschitz_g
        # the pass's visits and noise, step-major, read at task t: each
        # arm's anchor rows have the (arms, d) iterate's shape
        assert visits.count == n and init_shape == out_shape == (2, d)
        assert visits.points.shape == (n, tasks, 2, d)
        assert np.array_equal(visits.points[:, t, 0], visits.points[:, t, 1])
        # the meta arm's noise is the calibrated variance's draw from the
        # task's noise generator, after its index sequence; beside it the
        # zero-noise twin steps without noise
        rng = substream(cfg.master_seed, "train-noise", t)
        rng.integers(0, m, size=n)
        assert noise.shape == (n, tasks, 2, d)
        assert np.array_equal(noise[:, t, 0], sample_step_noise(rng, d, cal.sigma_sq, count=n))
        assert not noise[:, t, 1].any()
    assert cal.sigma_sq > 0.0


def test_training_arms_report_one_task_dispersion():
    # the training arms share their tasks, so they realize one dispersion
    report = run_experiment(make_cfg(baseline_no_meta="true",
                                     baseline_nonprivate_meta="true"))
    v_bar = report.arms[ARM_META].v_bar_sq_realized
    assert v_bar is not None and v_bar > 0.0
    assert report.arms[ARM_NONPRIVATE].v_bar_sq_realized == v_bar
    assert report.arms[ARM_NO_META].v_bar_sq_realized is None


def _spy_interior_verdicts(monkeypatch):
    """Record, per learners.idle_calls call of a run, the shape of the
    samples it decided on and its (interior, clip_idle) pair: the training
    pass's call, then eval's."""
    verdicts = []
    real = dpmeta.learners.idle_calls

    def spy(samples, *args, **kwargs):
        verdicts.append((samples.points.shape, real(samples, *args, **kwargs)))
        return verdicts[-1][1]

    monkeypatch.setattr(dpmeta.learners, "idle_calls", spy)
    return verdicts


# criterion 09's middle point, as the adapt_heavy benchmark runs it: a
# stable quadratic plan (step x curvature 0.18 in training, 2.6e-4 in eval)
ADAPT_ITEMS = {
    "dim": "2", "domain_radius": "1.0", "similarity_v": "0.0",
    "samples_per_task": "1900", "t_train": "5", "t_eval": "100",
    "epsilon": "0.5", "delta": "0.1", "curvature": "1.0",
    "sample_noise_std": "0.05", "master_seed": "101",
}


@pytest.mark.numpy_floor
def test_interior_certificate_fires_on_both_passes_of_a_stable_run(monkeypatch):
    # training visits (237, 5, 2) and eval adapts on (1900, 100, 2): both
    # passes skip their clips and projections, and the run still reports
    # what the uncertified loop reports
    verdicts = _spy_interior_verdicts(monkeypatch)
    report = run_experiment(build_config(ADAPT_ITEMS))
    assert verdicts == [((237, 5, 2), (True, True)), ((1900, 100, 2), (True, True))]
    monkeypatch.setattr(dpmeta.learners, "idle_calls", lambda *args, **kw: (False, False))
    reference = run_experiment(build_config(ADAPT_ITEMS))
    for arm, result in report.arms.items():
        assert result.excess_risks == reference.arms[arm].excess_risks
        assert result.mean_surrogate == reference.arms[arm].mean_surrogate


@pytest.mark.numpy_floor
@pytest.mark.parametrize("items", [
    # the train_heavy benchmark's shape: training at step x curvature 5.37
    {"dim": "5", "domain_radius": "3.0", "similarity_v": "0.1",
     "samples_per_task": "100", "t_train": "20", "t_eval": "4", "epsilon": "1.0",
     "delta": "1e-5", "sample_noise_std": "0.2", "phi_init": "1.5,0,0,0,0"},
    {"loss_family": "logistic", "growth_alpha": "0.5"},
], ids=["h_over_one", "logistic"])
def test_interior_certificate_declines_logistic_and_h_over_one_runs(items, monkeypatch):
    verdicts = _spy_interior_verdicts(monkeypatch)
    cfg = make_cfg(**items)
    cal = calibrate(cfg)
    run_experiment(cfg)
    if cfg.env.loss_family == "logistic":
        assert [interior for _, (interior, _) in verdicts] == [False, False]
    else:
        assert cal.sgd_step_size * cfg.env.curvature > 1.0
        assert verdicts[0][1][0] is False


@pytest.mark.numpy_floor
@pytest.mark.parametrize("items", [
    # the train_heavy benchmark's shape: training at step x curvature 5.37,
    # so the projection runs, and c (R + A) under the clip bound c x 2R
    {"dim": "5", "domain_radius": "3.0", "similarity_v": "0.1",
     "samples_per_task": "100", "t_train": "20", "t_eval": "4", "epsilon": "1.0",
     "delta": "1e-5", "sample_noise_std": "0.2", "phi_init": "1.5,0,0,0,0",
     "baseline_nonprivate_meta": "true"},
    # the logistic_mc benchmark's shape: sigmoid(F R) F = sigmoid(2) < F
    {"dim": "5", "domain_radius": "2.0", "loss_family": "logistic",
     "growth_alpha": "0.1", "similarity_v": "0.1", "samples_per_task": "200",
     "t_train": "8", "t_eval": "4", "epsilon": "2.0", "delta": "1e-5",
     "planted_center": "1,0,0,0,0", "mc_eval_samples": "500"},
], ids=["train_heavy", "logistic_mc"])
def test_clip_verdict_holds_on_the_bench_training_shapes(items, monkeypatch):
    # the clipping training passes of both benchmark shapes are declined
    # interior but certified clip idle, call no clip, and report what the
    # run that clips reports
    clip_calls = []
    real_clip = dpmeta.learners.clip_norm_in_place
    real_idle_calls = dpmeta.learners.idle_calls

    def spy_clip(*args):
        clip_calls.append(real_clip(*args))
        return clip_calls[-1]

    monkeypatch.setattr(dpmeta.learners, "clip_norm_in_place", spy_clip)
    verdicts = _spy_interior_verdicts(monkeypatch)
    cfg = make_cfg(**items)
    report = run_experiment(cfg)
    assert len(verdicts) == 2 and verdicts[0][1] == (False, True) and clip_calls == []
    monkeypatch.setattr(dpmeta.learners, "idle_calls",
                        lambda *args, **kw: (real_idle_calls(*args, **kw)[0], False))
    reference = run_experiment(cfg)
    assert len(clip_calls) == cfg.t_train * (report.calibration.steps_n - 1)
    assert not any(clip_calls)
    for arm, result in report.arms.items():
        assert result.excess_risks == reference.arms[arm].excess_risks
        assert result.mean_surrogate == reference.arms[arm].mean_surrogate


@pytest.mark.parametrize("family_items", [
    {},
    {"loss_family": "logistic", "growth_alpha": "0.5"},
], ids=["quadratic", "logistic"])
def test_clipping_is_inactive_when_smoothness_ok(family_items, monkeypatch):
    # the calibration's smoothness certificate promises that no private
    # gradient is ever clipped; the in-place clip says whether it rescaled a
    # row, so every call must say no and leave the gradient as it was
    calls, shapes = [], set()
    real_clip = dpmeta.learners.clip_norm_in_place

    def spy_clip(g, bound, scratch):
        before = np.array(g, copy=True)
        clipped = real_clip(g, bound, scratch)
        calls.append(not clipped and np.array_equal(g, before))
        shapes.add(g.shape)
        return clipped

    monkeypatch.setattr(dpmeta.learners, "clip_norm_in_place", spy_clip)
    # the clip verdict holds for this pass; idle_calls' pair is recorded and
    # its clip verdict declined, so that the clips run and can be counted
    verdicts = []
    real_idle_calls = dpmeta.learners.idle_calls

    def declined_clip_verdict(samples, *args, **kwargs):
        verdicts.append((samples.points.shape, real_idle_calls(samples, *args, **kwargs)))
        return verdicts[-1][1][0], False

    monkeypatch.setattr(dpmeta.learners, "idle_calls", declined_clip_verdict)
    cfg = make_cfg(samples_per_task=80, delta=0.1, baseline_nonprivate_meta="true",
                   **family_items)
    cal = calibrate(cfg)
    assert cal.smoothness_ok
    run_experiment(cfg)
    # the interior certificate declines the training pass and the clip
    # verdict is declined, so every clip the promise covers is called and
    # counted here
    assert verdicts[0] == ((cal.steps_n, cfg.t_train, cfg.env.dim), (False, True))
    # one clip per private step, each over both training arms' gradients;
    # training takes steps_n - 1 steps, since no step leaves theta_n
    assert len(calls) == cfg.t_train * (cal.steps_n - 1)
    assert all(calls)
    assert shapes == {(2, cfg.env.dim)}


def test_run_deterministic_and_seed_sensitive():
    a = run_experiment(make_cfg(baseline_nonprivate_meta="true"))
    b = run_experiment(make_cfg(baseline_nonprivate_meta="true"))
    assert a.run_id == b.run_id
    for arm in a.arms:
        assert a.arms[arm].excess_risks == b.arms[arm].excess_risks
        assert a.arms[arm].mean_surrogate == b.arms[arm].mean_surrogate
    c = run_experiment(make_cfg(baseline_nonprivate_meta="true", master_seed=124))
    assert c.run_id != a.run_id
    assert c.arms[ARM_META].excess_risks != a.arms[ARM_META].excess_risks


def test_eval_horizon_extends_without_disturbing_prefix():
    short = run_experiment(make_cfg(t_eval=5))
    long = run_experiment(make_cfg(t_eval=10))
    assert short.arms[ARM_META].excess_risks == long.arms[ARM_META].excess_risks[:5]
    assert short.arms[ARM_META].mean_surrogate == long.arms[ARM_META].mean_surrogate


def test_csv_round_trip_exact(tmp_path):
    report = run_experiment(make_cfg(baseline_no_meta="true"))
    out = tmp_path / "res.csv"
    write_csv(report, str(out))
    first_line = out.read_text().splitlines()[0]
    assert first_line == ",".join(CSV_COLUMNS)
    rows = read_csv_rows(str(out))
    assert len(rows) == 2 * 8
    meta_rows = [r for r in rows if r["arm"] == ARM_META]
    for i, row in enumerate(meta_rows):
        assert int(row["task_index"]) == i
        assert float(row["excess_risk"]) == report.arms[ARM_META].excess_risks[i]
        assert float(row["sigma_sq"]) == report.calibration.sigma_sq
        assert int(row["n"]) == report.calibration.steps_n
        assert int(row["seed"]) == report.master_seed
        assert row["axis_value"] == ""
    for row in (r for r in rows if r["arm"] == ARM_NO_META):
        assert row["sigma_sq"] == ""
        assert row["surrogate_loss"] == ""


@pytest.mark.parametrize("seed", [1, 2])
def test_logistic_gaps_are_not_negative_near_the_optimum(seed):
    # V = 0 and a generous budget put every arm near the minimizer, where
    # label-sampling Monte Carlo read per-task gaps down to -1.9e-3 here;
    # with the label integrated out a gap is a mean of KL divergences
    cfg = make_cfg(dim=5, domain_radius=2.0, loss_family="logistic",
                   growth_alpha=0.1, similarity_v=0.0, samples_per_task=400,
                   t_train=20, t_eval=40, epsilon=8.0, mc_eval_samples=2000,
                   baseline_no_meta="true", master_seed=seed)
    report = run_experiment(cfg)
    gaps = [gap for arm in report.arms.values() for gap in arm.excess_risks]
    assert len(gaps) == 2 * 40
    assert min(gaps) >= -1e-12


def test_cli_import_keeps_thread_pools_off_the_start_up_path():
    # concurrent.futures imports logging, and every `dpmeta calibrate` would
    # pay for both; nothing on the start-up path needs either
    src = str(Path(dpmeta.__file__).resolve().parents[1])
    probe = ("import dpmeta.cli, sys; "
             "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_each_module_imports_alone_and_below_the_harness():
    # the package re-exports nothing, so importing a library module loads
    # only what it uses: none of the lower layers pulls in the config
    # reader, the harness or the CLI
    src = str(Path(dpmeta.__file__).resolve().parents[1])
    modules = ("calibration", "geometry", "losses", "privacy", "learners",
               "task_env", "meta", "config", "harness", "cli")
    probe = ("import importlib, json, sys\n"
             "loaded = {}\n"
             f"for name in {modules!r}:\n"
             "    for key in [k for k in sys.modules if k.split('.')[0] == 'dpmeta']:\n"
             "        del sys.modules[key]\n"
             "    importlib.import_module('dpmeta.' + name)\n"
             "    loaded[name] = sorted(k for k in sys.modules if k.startswith('dpmeta.'))\n"
             "print(json.dumps(loaded))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert list(loaded) == list(modules)
    upper = {"dpmeta.config", "dpmeta.harness", "dpmeta.cli"}
    for name in modules[:7]:
        assert upper.isdisjoint(loaded[name]), name
    assert loaded["calibration"] == ["dpmeta.calibration"]
    assert loaded["geometry"] == ["dpmeta.calibration", "dpmeta.geometry"]


def test_csv_read_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv_rows(str(p))


def test_csv_identical_up_to_wall_clock(tmp_path):
    cfg = make_cfg(baseline_no_meta="true")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(cfg), str(p1))
    write_csv(run_experiment(cfg), str(p2))
    assert csv_bytes_excluding_wall_clock(str(p1)) == \
        csv_bytes_excluding_wall_clock(str(p2))


def test_sweep_derives_independent_seeds():
    cfg = make_cfg(t_eval=4, t_train=3)
    reports = sweep(cfg, "V", [0.0, 0.5])
    assert [r.axis_value for r in reports] == [0.0, 0.5]
    assert reports[0].master_seed != reports[1].master_seed
    assert reports[0].master_seed != cfg.master_seed
    again = sweep(cfg, "V", [0.0, 0.5])
    for r1, r2 in zip(reports, again):
        assert r1.arms[ARM_META].excess_risks == r2.arms[ARM_META].excess_risks
    with pytest.raises(ValueError):
        sweep(cfg, "radius", [1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "V", [])


def test_sweep_axis_actually_varies_config():
    cfg = make_cfg(t_eval=4, t_train=3)
    reports = sweep(cfg, "epsilon", [0.5, 2.0])
    assert reports[0].calibration.epsilon == 0.5
    assert reports[1].calibration.epsilon == 2.0
    reports = sweep(cfg, "m", [16, 32])
    assert reports[0].calibration.samples_per_task == 16
    assert reports[1].calibration.samples_per_task == 32


def test_validate_flags_negative_risk():
    base = run_experiment(make_cfg())
    bad_arm = base.arms[ARM_META].__class__(
        arm=ARM_META, excess_risks=(-1.0,), mean_excess=-1.0, stderr_excess=0.0,
        mean_surrogate=None, v_bar_sq_realized=None, sigma_sq_effective=None)
    bad = MetricsReport(run_id="x", axis_value=None, master_seed=0,
                        calibration=base.calibration, arms={ARM_META: bad_arm},
                        wall_clock_s=0.0)
    with pytest.raises(InternalInvariantError):
        bad.validate()


def test_cli_calibrate(tmp_path, capsys):
    cfg_file = write_cfg_file(tmp_path / "c.txt")
    assert main(["calibrate", "--config", cfg_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "steps_n = " in out
    assert "sigma_sq = " in out


def test_cli_run_writes_csv_and_sidecar(tmp_path, capsys):
    cfg_file = write_cfg_file(tmp_path / "c.txt")
    out = tmp_path / "res.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_OK
    rows = read_csv_rows(str(out))
    assert len(rows) == 8
    sidecar = (tmp_path / "res.csv.calibration").read_text()
    assert "sigma_sq = " in sidecar
    assert rows[0]["run_id"] in sidecar
    assert "mean excess risk" in capsys.readouterr().out


def test_cli_output_path_from_config(tmp_path, capsys):
    out = tmp_path / "from_config.csv"
    cfg_file = write_cfg_file(tmp_path / "c.txt", output_path=str(out))
    assert main(["run", "--config", cfg_file]) == EXIT_OK
    assert out.exists()
    capsys.readouterr()


def test_cli_config_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim = 2\nwhatever = 1\n")
    assert main(["run", "--config", str(bad), "--out",
                 str(tmp_path / "o.csv")]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err
    # a sweep's --values must hold at least one number and nothing else
    good = write_cfg_file(tmp_path / "c.txt")
    for values, message in [(",,", "--values is empty"),
                            ("0.1,abc", "--values must be comma-separated numbers")]:
        assert main(["sweep", "--config", good, "--out", str(tmp_path / "o.csv"),
                     "--axis", "V", "--values", values]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_cli_undecodable_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"dim = 2\xff\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    assert exc.value.violations == [f"{bad}: not UTF-8 text (byte offset 7)"]
    for args in (["calibrate"], ["run", "--out", str(tmp_path / "o.csv")],
                 ["sweep", "--out", str(tmp_path / "o.csv"), "--axis", "V",
                  "--values", "0"]):
        assert main(args + ["--config", str(bad)]) == EXIT_CONFIG
        assert f"{bad}: not UTF-8 text (byte offset 7)" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("overrides, constant", [
    ({"domain_radius": "1e155"}, "sigma_sq"),
    ({"domain_radius": "1e154"}, "sigma_sq"),
    ({"curvature": "1e160"}, "sigma_sq"),
    ({"lipschitz_g": "1e160"}, "sigma_sq"),
    ({"loss_family": "logistic", "growth_alpha": "1.0", "feature_norm": "1e160"},
     "smoothness_beta"),
    ({"epsilon": "1e200"}, "steps_n"),
    ({"epsilon": "1e-200"}, "sigma_sq"),
    ({"delta": "1e-320"}, "step_scale"),
    # every constant is finite, but a step can carry an iterate or gradient
    # where its squared norm overflows, which would stop the run mid-step
    ({"epsilon": "1e-100"}, "private step"),
    ({"samples_per_task": "400", "epsilon": "1e-100"}, "private step"),
    ({"delta": "1e-300", "epsilon": "1e-140"}, "private step"),
    # lipschitz_g clips at 1, but the gradient clipped is up to c*D = 4e154
    ({"curvature": "1e154", "lipschitz_g": "1.0", "phi_init": "-2,0"}, "private step"),
    ({"growth_alpha": "1e-200"}, "adaptation step"),
    ({"loss_family": "logistic", "growth_alpha": "1e-200"}, "adaptation step"),
    ({"lipschitz_g": "1e-160"}, "adaptation step"),
    # a quadratic anchor is drawn up to R + s (sqrt(d) + 40) from the center
    # before its projection, which squares that offset
    ({"sample_noise_std": "5e153"}, "anchor (sample_noise_std)"),
    # a radius-2 ball is finer than the float resolution of a center at
    # 1e170, so two points of it can differ by about 1e155, whose square the
    # risk and distances take
    ({"domain_center": "1e170,0"}, "domain (domain_radius, domain_center)"),
    ({"domain_center": "1e170,0", "loss_family": "logistic", "growth_alpha": "1.0"},
     "domain (domain_radius, domain_center)"),
    # an int too large for a float is a count all the same: it reaches
    # calibrate, whose step scale overflows
    ({"samples_per_task": "1" + "0" * 399}, "step_scale"),
    # a dimension is the length of the domain center's tuple, so it must be
    # an index-sized integer
    ({"dim": "1" + "0" * 400}, "dim: must be < "),
])
def test_cli_overflowing_closed_form_is_config_error(tmp_path, capsys, monkeypatch,
                                                     overrides, constant):
    # legal values whose closed-form calibration overflows, divides by zero
    # or comes out inf, or whose steps cannot be squared: each command exits
    # 2, names the constant or step and writes nothing. The sweep puts a good
    # epsilon point before the config's own epsilon, and the bad point must
    # fail before any point runs
    cfg_file = write_cfg_file(tmp_path / "c.txt", **overrides)
    out = tmp_path / "o.csv"
    epsilon = overrides.get("epsilon", BASE_ITEMS["epsilon"])
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return run_experiment(*args, **kwargs)

    # the run command and harness.sweep's points both call
    # harness.run_experiment: the run command's once, which refuses the
    # config, unless loading already refused it, and the sweep's never
    try:
        load_config(cfg_file)
        runs = 1
    except ConfigError:
        runs = 0
    monkeypatch.setattr(dpmeta.harness, "run_experiment", spy)
    for args in (["calibrate"], ["run", "--out", str(out)],
                 ["sweep", "--out", str(out), "--axis", "epsilon",
                  "--values", f"0.5,{epsilon}"]):
        assert main(args + ["--config", cfg_file]) == EXIT_CONFIG
        assert constant in capsys.readouterr().err
        assert not out.exists()
        assert len(calls) == (runs if args[0] != "calibrate" else 0)
    # positive control: a good config's run and sweep reach the spy
    good = write_cfg_file(tmp_path / "good.txt")
    assert main(["run", "--out", str(out), "--config", good]) == EXIT_OK
    assert len(calls) == runs + 1
    assert main(["sweep", "--out", str(out), "--axis", "epsilon", "--values", "0.5",
                 "--config", good]) == EXIT_OK
    assert len(calls) == runs + 2
    # cli looks the name up in harness at each use and binds nothing
    assert "run_experiment" not in vars(dpmeta.cli)
    capsys.readouterr()


def test_cli_radius_below_the_overflow_runs(tmp_path, capsys):
    # radius 1e150 squares to a finite float and calibrates to finite
    # constants, so the run goes ahead
    cfg_file = write_cfg_file(tmp_path / "c.txt", domain_radius="1e150")
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_OK
    assert len(read_csv_rows(str(out))) == int(BASE_ITEMS["t_eval"])
    capsys.readouterr()


@pytest.mark.parametrize("overrides", [
    {"epsilon": "1e-60"}, {"growth_alpha": "1e-150"}, {"curvature": "1e150"},
    {"domain_radius": "1e150"}, {"sample_noise_std": "1e150"},
    {"domain_center": "1e160,0"},
    {"domain_center": "1e160,0", "loss_family": "logistic", "growth_alpha": "1.0"},
])
def test_cli_steps_inside_the_float_range_run(tmp_path, capsys, overrides):
    # near the configs above, but every step's squared norm stays finite:
    # calibrate, run and an epsilon sweep go ahead
    cfg_file = write_cfg_file(tmp_path / "c.txt", **overrides)
    out = tmp_path / "o.csv"
    epsilon = overrides.get("epsilon", BASE_ITEMS["epsilon"])
    assert main(["calibrate", "--config", cfg_file]) == EXIT_OK
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_OK
    assert len(read_csv_rows(str(out))) == int(BASE_ITEMS["t_eval"])
    assert main(["sweep", "--config", cfg_file, "--out", str(out), "--axis", "epsilon",
                 "--values", f"0.5,{epsilon}"]) == EXIT_OK
    assert len(read_csv_rows(str(out))) == 2 * int(BASE_ITEMS["t_eval"])
    capsys.readouterr()


def test_cli_missing_out_is_config_error(tmp_path, capsys):
    cfg_file = write_cfg_file(tmp_path / "c.txt")
    assert main(["run", "--config", cfg_file]) == EXIT_CONFIG
    capsys.readouterr()


def test_cli_io_error_exit(tmp_path, capsys):
    cfg_file = write_cfg_file(tmp_path / "c.txt")
    missing_dir_out = tmp_path / "no_such_dir" / "res.csv"
    assert main(["run", "--config", cfg_file, "--out",
                 str(missing_dir_out)]) == EXIT_IO
    assert main(["run", "--config", str(tmp_path / "ghost.txt"), "--out",
                 str(tmp_path / "o.csv")]) == EXIT_IO
    capsys.readouterr()


def test_cli_seed_precedence(tmp_path, capsys, monkeypatch):
    cfg_file = write_cfg_file(tmp_path / "c.txt")

    def seed_of(args):
        out = tmp_path / "seeded.csv"
        assert main(args + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        return {row["seed"] for row in read_csv_rows(str(out))}

    assert seed_of(["run", "--config", cfg_file]) == {"123"}
    monkeypatch.setenv("DPMETA_SEED", "777")
    assert seed_of(["run", "--config", cfg_file]) == {"777"}
    assert seed_of(["run", "--config", cfg_file, "--seed", "555"]) == {"555"}
    monkeypatch.setenv("DPMETA_SEED", "not-a-number")
    assert main(["run", "--config", cfg_file, "--out",
                 str(tmp_path / "x.csv")]) == EXIT_CONFIG
    capsys.readouterr()


def test_seed_override_replaces_the_file_master_seed(tmp_path, capsys, monkeypatch):
    # --seed and DPMETA_SEED replace master_seed before the config is judged,
    # once: a file without one, or with one that is malformed, runs byte for
    # byte as the file that sets the seed in use
    builds = []
    real_build = dpmeta.config.build_config
    monkeypatch.setattr(dpmeta.config, "build_config",
                        lambda items: builds.append(items) or real_build(items))

    def run(cfg_file, *extra):
        out = tmp_path / "out.csv"
        builds.clear()
        assert main(["run", "--config", cfg_file, "--out", str(out), *extra]) == EXIT_OK
        assert len(builds) == 1
        capsys.readouterr()
        return (csv_bytes_excluding_wall_clock(str(out)),
                (tmp_path / "out.csv.calibration").read_bytes())

    reference = run(write_cfg_file(tmp_path / "seeded.txt", master_seed=5))
    unseeded = tmp_path / "unseeded.txt"
    unseeded.write_text("".join(f"{k} = {v}\n" for k, v in BASE_ITEMS.items()
                                if k != "master_seed"))
    malformed = write_cfg_file(tmp_path / "malformed.txt", master_seed="abc")
    for cfg_file in (str(unseeded), malformed):
        assert run(cfg_file, "--seed", "5") == reference
        monkeypatch.setenv("DPMETA_SEED", "5")
        assert run(cfg_file) == reference
        monkeypatch.delenv("DPMETA_SEED")


def test_load_config_overrides_replace_file_settings(tmp_path):
    cfg_file = write_cfg_file(tmp_path / "c.txt")
    cfg = load_config(cfg_file, epsilon=0.25, master_seed=999,
                      baseline_no_meta=True)
    assert cfg.privacy.epsilon == 0.25
    assert cfg.master_seed == 999
    assert cfg.baseline_no_meta
    assert cfg.env.samples_per_task == load_config(cfg_file).env.samples_per_task
    assert dict(cfg.raw_items)["epsilon"] == "0.25"
    with pytest.raises(ConfigError) as exc:
        load_config(cfg_file, master_seed=-1)
    assert exc.value.violations == ["master_seed: must be >= 0, got -1"]


def test_cli_internal_invariant_exit(tmp_path, capsys, monkeypatch):
    # a report that fails validate is a harness bug: exit 4 and no output
    real = dpmeta.harness.population_risk_gap
    monkeypatch.setattr(dpmeta.harness, "population_risk_gap",
                        lambda *args: real(*args) - 1.0)
    cfg_file = write_cfg_file(tmp_path / "c.txt")
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_INTERNAL
    assert "internal invariant violated" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_negative_logistic_gap(tmp_path, capsys, monkeypatch):
    # no logistic gap is negative beyond rounding (losses.logistic_excess
    # clamps the divergence at 0), so logistic runs are validated at the
    # same 1e-9 as quadratic ones, and a gap of -1e-6 is a harness bug
    real = dpmeta.harness.population_risk_gap
    monkeypatch.setattr(dpmeta.harness, "population_risk_gap",
                        lambda *args: np.full_like(real(*args), -1e-6))
    cfg_file = write_cfg_file(tmp_path / "c.txt", loss_family="logistic",
                              growth_alpha="0.5")
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_file, "--out", str(out)]) == EXIT_INTERNAL
    assert "excess risk -1e-06 below -1e-09" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep(tmp_path, capsys):
    cfg_file = write_cfg_file(tmp_path / "c.txt", t_train=3, t_eval=4)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg_file, "--out", str(out),
                 "--axis", "V", "--values", "0,0.5"]) == EXIT_OK
    rows = read_csv_rows(str(out))
    assert len(rows) == 2 * 4
    assert {row["axis_value"] for row in rows} == {"0", "0.5"}
    assert len({row["run_id"] for row in rows}) == 2
    capsys.readouterr()


def test_cli_sweep_reports_every_bad_point_before_running_any(tmp_path, capsys,
                                                               monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr(dpmeta.harness, "run_experiment", spy)
    cfg_file = write_cfg_file(tmp_path / "c.txt", domain_radius=3.0, t_train=3,
                              t_eval=4)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg_file, "--out", str(out),
                 "--axis", "V", "--values", "0,5,7"]) == EXIT_CONFIG
    assert calls == []
    err = capsys.readouterr().err
    assert "V=5: similarity_v=5.0 exceeds" in err
    assert "V=7: similarity_v=7.0 exceeds" in err
    assert "V=0:" not in err
    assert not out.exists()


def test_load_config_file_round_trip(tmp_path):
    cfg_file = write_cfg_file(tmp_path / "c.txt", phi_init="0.5,0.5")
    cfg = load_config(cfg_file)
    assert np.array_equal(cfg.phi_init, [0.5, 0.5])
    assert cfg.master_seed == 123


def test_readme_determinism_names_every_substream_tag():
    # every string tag passed to substream, substreams or derive_seed names
    # a stream of the master seed, and README's "Determinism" section lists
    # them all
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Determinism", 1)[1].split("\n## ", 1)[0]
    tags = set()
    for path in sorted((root / "src" / "dpmeta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("substream", "substreams", "derive_seed"):
                tags.update(arg.value for arg in node.args
                            if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    assert {"train-task", "train-losses", "train-noise", "eval-task",
            "eval-losses", "eval-risk", "sweep"} <= tags
    assert [tag for tag in sorted(tags) if f'"{tag}"' not in section] == []
