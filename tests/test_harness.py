import math

import numpy as np
import pytest

import dpmeta.learners
from dpmeta.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from dpmeta.config import (ConfigError, build_config, load_config,
                           parse_config_text)
from dpmeta.harness import (ARM_META, ARM_NO_META, ARM_NONPRIVATE,
                            CSV_COLUMNS, CalibrationRecord,
                            InternalInvariantError, MetricsReport,
                            calibrate, csv_bytes_excluding_wall_clock,
                            read_csv_rows, run_experiment, sweep, write_csv)
from dpmeta.learners import adaptation_step_size

BASE_ITEMS = {
    "dim": "2",
    "domain_radius": "2.0",
    "similarity_v": "0.3",
    "samples_per_task": "30",
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
        "epsilon=0.5\n")
    assert items == {"dim": "3", "epsilon": "0.5"}


def test_parse_config_rejects_garbage_and_duplicates():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("dim = 2\nnot a setting\ndim = 3\n")
    msgs = "\n".join(exc.value.violations)
    assert "line 2" in msgs
    assert "duplicate" in msgs


def test_build_config_reports_every_violation():
    with pytest.raises(ConfigError) as exc:
        build_config({"dim": "2", "mystery_key": "1", "epsilon": "-1",
                      "delta": "0.5", "similarity_v": "abc"})
    msgs = "\n".join(exc.value.violations)
    assert "unknown key 'mystery_key'" in msgs
    assert "epsilon" in msgs
    assert "similarity_v" in msgs
    assert "missing required key" in msgs
    assert len(exc.value.violations) >= 5


def test_config_defaults():
    cfg = build_config(BASE_ITEMS)
    assert cfg.t_eval == 8
    assert np.array_equal(cfg.env.planted_center, np.zeros(2))
    assert np.array_equal(cfg.phi_init, np.zeros(2))
    assert cfg.step_scale_variant == "sqrt_m"
    assert cfg.visits_per_task == 1
    assert not cfg.baseline_no_meta
    # quadratic regularity is derived from curvature and diameter
    assert cfg.regularity.lipschitz_g == 1.0 * cfg.env.domain.diameter
    assert cfg.regularity.growth_alpha == 1.0
    items = {k: v for k, v in BASE_ITEMS.items() if k != "t_eval"}
    assert build_config(items).t_eval == 500


def test_config_replace_value_roundtrip():
    cfg = make_cfg()
    cfg2 = cfg.replace_value("epsilon", 0.25)
    assert cfg2.privacy.epsilon == 0.25
    assert cfg.privacy.epsilon == 1.0
    assert cfg2.env.samples_per_task == cfg.env.samples_per_task
    cfg3 = cfg2.replace_value("master_seed", 999)
    assert cfg3.master_seed == 999


def test_config_overrides_regularity():
    cfg = make_cfg(lipschitz_g=1.0, growth_alpha=2.0, smoothness_beta=0.5)
    assert cfg.regularity.lipschitz_g == 1.0
    assert cfg.regularity.growth_alpha == 2.0
    assert cfg.regularity.smoothness_beta == 0.5


def test_config_validates_geometry():
    with pytest.raises(ConfigError):
        make_cfg(phi_init="5,5")  # outside radius-2 ball
    with pytest.raises(ConfigError):
        make_cfg(planted_center="5,5")
    with pytest.raises(ConfigError):
        make_cfg(phi_init="1,2,3")  # wrong dimension
    with pytest.raises(ConfigError):
        make_cfg(similarity_v="3.0")  # exceeds radius


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
    assert cal.group_size == 1
    assert cal.group_epsilon == 1.0
    assert cal.composed_epsilon == 1.0


def test_calibrate_group_and_composition():
    cfg = make_cfg(group_size=3, visits_per_task=2)
    cal = calibrate(cfg)
    assert cal.group_epsilon == 3.0
    assert cal.group_delta == pytest.approx(3 * math.exp(2.0) * 1e-5, rel=1e-12)
    assert cal.composed_epsilon == 2.0
    assert cal.composed_delta == pytest.approx(2e-5, rel=1e-12)


def test_run_contains_requested_arms():
    report = run_experiment(make_cfg())
    assert set(report.arms) == {ARM_META}
    report = run_experiment(make_cfg(baseline_no_meta="true",
                                     baseline_nonprivate_meta="true"))
    assert set(report.arms) == {ARM_META, ARM_NO_META, ARM_NONPRIVATE}
    assert report.arms[ARM_META].sigma_sq_effective == report.calibration.sigma_sq
    assert report.arms[ARM_NONPRIVATE].sigma_sq_effective == 0.0
    assert report.arms[ARM_NO_META].sigma_sq_effective is None
    for arm in report.arms.values():
        assert len(arm.excess_risks) == 8
        assert arm.mean_excess == pytest.approx(np.mean(arm.excess_risks))


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
    plans = []
    real_noisy = dpmeta.learners.noisy_sgd_run

    def spy_noisy(samples, init, plan, dom, rng, *args, **kwargs):
        plans.append(plan)
        return real_noisy(samples, init, plan, dom, rng, *args, **kwargs)

    monkeypatch.setattr(dpmeta.learners, "noisy_sgd_run", spy_noisy)
    cfg = make_cfg(baseline_nonprivate_meta="true")
    cal = run_experiment(cfg).calibration
    assert len(plans) == 2 * cfg.t_train
    for plan in plans:
        assert plan.steps_n == cal.steps_n
        assert plan.step_size == cal.sgd_step_size
        assert plan.clip_bound == cal.lipschitz_g
    # the meta arm trains first, then its zero-noise twin
    meta_plans, quiet_plans = plans[:cfg.t_train], plans[cfg.t_train:]
    assert all(p.noise_variance_sigma_sq == cal.sigma_sq for p in meta_plans)
    assert all(p.noise_variance_sigma_sq == 0.0 for p in quiet_plans)
    assert cal.sigma_sq > 0.0


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
        arm=ARM_META, excess_risks=(-1.0,), mean_excess=-1.0, std_excess=0.0,
        stderr_excess=0.0, mean_surrogate=None, v_bar_sq_realized=None,
        sigma_sq_effective=None)
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


def test_load_config_file_round_trip(tmp_path):
    cfg_file = write_cfg_file(tmp_path / "c.txt", phi_init="0.5,0.5")
    cfg = load_config(cfg_file)
    assert np.array_equal(cfg.phi_init, [0.5, 0.5])
    assert cfg.master_seed == 123
