"""Golden outputs: `dpmeta run` on three small configs, and `dpmeta sweep` on
one of them, must keep their bytes.

Each case pins the SHA-256 of the CSV with the wall-clock column blanked
(csv_bytes_excluding_wall_clock) and of the `.calibration` sidecar. A refactor
that claims byte-identical outputs is checked here, not by hand. The digests
may change only in a change that says so, and why, in CHANGES.md; update them
then by running this file and copying the digests from the failure message.
The digests were recorded with numpy 2.4 on x86-64; another numpy or BLAS
build may round differently.
"""

import hashlib
import json
import os
from pathlib import Path
import runpy
import subprocess
import sys

import numpy as np
import pytest

import dpmeta
import dpmeta.learners
import dpmeta.losses
from dpmeta.cli import EXIT_CONFIG, EXIT_OK, main
from dpmeta.config import build_config
from dpmeta.harness import calibrate, csv_bytes_excluding_wall_clock, run_experiment

# tens of training tasks, so that summing a mean surrogate loss in another
# order changes its last bit
QUADRATIC_ITEMS = {
    "dim": "3", "domain_radius": "2.0", "similarity_v": "0.3",
    "samples_per_task": "50", "sample_noise_std": "0.2", "t_train": "100",
    "t_eval": "10", "epsilon": "1.0", "delta": "1e-5",
    "phi_init": "1,0,0", "baseline_no_meta": "true",
    "baseline_nonprivate_meta": "true", "master_seed": "11",
}

LOGISTIC_ITEMS = {
    "dim": "3", "domain_radius": "2.0", "loss_family": "logistic",
    "growth_alpha": "0.1", "similarity_v": "0.2", "samples_per_task": "60",
    "t_train": "40", "t_eval": "6", "epsilon": "2.0", "delta": "1e-5",
    "planted_center": "1,0,0", "feature_norm": "1.5",
    "mc_eval_samples": "2000", "baseline_no_meta": "true",
    "baseline_nonprivate_meta": "true", "master_seed": "7",
}

# criterion 09's shape (m = 1900, d = 2, delta = 0.1) with tens of training
# tasks: 237 private steps at step x beta = 0.18, so, unlike the cases above,
# training runs a stable plan that moves its start
STABLE_ITEMS = {
    "dim": "2", "domain_radius": "1.0", "similarity_v": "0.1",
    "samples_per_task": "1900", "t_train": "25", "t_eval": "10",
    "epsilon": "1.0", "delta": "0.1", "curvature": "1.0",
    "sample_noise_std": "0.05", "phi_init": "0.5,0",
    "baseline_no_meta": "true", "baseline_nonprivate_meta": "true",
    "master_seed": "101",
}

# curvature 0.5, an off-origin domain center and the meta arm alone, where
# the cases above all run curvature 1, the origin and two training arms: so
# the gradient's curvature multiply, the center's shifts around every
# projection and the one-arm training and eval shapes are pinned here. The
# low clip bound and wide sample noise make clips and projections act
OFF_CENTER_ITEMS = {
    "dim": "3", "domain_radius": "2.0", "domain_center": "0.5,-1,0.25",
    "curvature": "0.5", "lipschitz_g": "0.8", "growth_alpha": "0.5",
    "similarity_v": "0.3", "samples_per_task": "300", "sample_noise_std": "1.0",
    "t_train": "40", "t_eval": "12", "epsilon": "1.0", "delta": "1e-5",
    "phi_init": "1.5,-1,0.25", "master_seed": "5",
}

# the logistic case with the meta arm trained alone: its training steps one
# arm's (1, d) iterate, one sample at one iterate per gradient, and every
# step's projection acts, where the logistic case trains two arms
LOGISTIC_ONE_ARM_ITEMS = {**LOGISTIC_ITEMS, "baseline_nonprivate_meta": "false"}

# case -> (command, items, csv digest, sidecar digest); the sweep case also
# pins axis_value, the derived seeds, the run_ids and a multi-section sidecar
GOLDEN = {
    "quadratic": (
        ["run"], QUADRATIC_ITEMS,
        "6c12ca60963732e933193ab9afb3bf2e0e1ce69433eb5abf7583af9f31f1609c",
        "2e3e5dc38880568a9ef5480947c54f2a4ec71dbccb59c2f1a1ac8784b43650ba"),
    "logistic": (
        ["run"], LOGISTIC_ITEMS,
        "bf558c5142f307a64d689a5e103150811a3c8a5d292f0f39e0ac37d94a9a8d0d",
        "5e8c1b967955a2558523f0c76a07cd54874aef4c86c0ef2082f2b207e6e931c3"),
    "logistic_one_arm": (
        ["run"], LOGISTIC_ONE_ARM_ITEMS,
        "8986c4ed9429f21beef92b4a8138499cffa596c1c7829a4ae6a094e894ebd9f6",
        "f0b0f7e1915584e9cf6ce9a6df9524e0b2c73857bd099f2e12c6688c5319edf8"),
    "stable": (
        ["run"], STABLE_ITEMS,
        "ca0983f7f2d9e6b16cc1b3b5ea6d1deebf604f152f5b0078cfaa57afab90e34d",
        "40732ac2f77db955c3eab708fe6276f4fd28c045b34eae6ddb39aca5a6f5bbd5"),
    "off_center": (
        ["run"], OFF_CENTER_ITEMS,
        "93ffb8cbcde8c45d4cdd2dafaea2b8bbffa98e950ed86c4359fe88dd165ef686",
        "57b1afd099ace51ecda3f3f9136a17d2d70f5ee3b0a389f28f20d526dcad07f5"),
    "sweep": (
        ["sweep", "--axis", "V", "--values", "0.1,0.3"], QUADRATIC_ITEMS,
        "4805552a8b32f2d23e90c5f51ad9e736aaab03d83abb56fea47ade01fc8584f3",
        "11696d0deb5a312a1e477ed688c12310f3af10f4f9c2ef1d6bccbedb9c189e9c"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(case, tmp_path):
    command, items, csv_digest, sidecar_digest = GOLDEN[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    out = tmp_path / "run.csv"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    got = (hashlib.sha256(csv_bytes_excluding_wall_clock(str(out))).hexdigest(),
           hashlib.sha256((tmp_path / "run.csv.calibration").read_bytes()).hexdigest())
    assert got == (csv_digest, sidecar_digest), f"{case} digests are now {got}"


def test_stable_case_runs_a_stable_plan():
    cal = calibrate(build_config(STABLE_ITEMS))
    assert cal.step_times_beta <= 2
    assert not cal.training_is_noop


@pytest.mark.numpy_floor
def test_off_center_case_clips_and_projects_on_one_arm(monkeypatch):
    # the off_center digests pin clips and projections that act: neither
    # pass is certified interior, the training pass steps one arm's (1, d)
    # iterate, and some clips and projections rescale a row
    acted = {"clip": [], "project": []}
    real_clip = dpmeta.learners.clip_norm_in_place
    real_project = dpmeta.learners.project_in_place

    def spy_clip(v, *args):
        acted["clip"].append((v.shape, real_clip(v, *args)))
        return acted["clip"][-1][1]

    def spy_project(v, *args):
        acted["project"].append((v.shape, real_project(v, *args)))
        return acted["project"][-1][1]

    monkeypatch.setattr(dpmeta.learners, "clip_norm_in_place", spy_clip)
    monkeypatch.setattr(dpmeta.learners, "project_in_place", spy_project)
    cfg = build_config(OFF_CENTER_ITEMS)
    assert cfg.env.curvature == 0.5 and any(cfg.env.domain.center)
    report = run_experiment(cfg)
    assert list(report.arms) == ["meta"]
    for calls in acted.values():
        assert {shape for shape, _ in calls} >= {(1, 3)}
        assert any(moved for _, moved in calls)


@pytest.mark.numpy_floor
def test_logistic_one_arm_case_trains_on_one_margin_per_gradient(monkeypatch):
    # the logistic_one_arm digests pin the gradient's one-margin route:
    # every training gradient is one sample at one (1, d) iterate and every
    # training projection acts, while eval's gradients take (2, 6) margins
    margins, projected = [], []
    real_grad = dpmeta.losses._logistic_grad
    real_project = dpmeta.learners.project_in_place

    def spy_grad(theta, features, *args):
        margins.append(np.broadcast_shapes(theta.shape[:-1], features.shape[:-1]))
        return real_grad(theta, features, *args)

    def spy_project(v, *args):
        projected.append((v.shape, real_project(v, *args)))
        return projected[-1][1]

    monkeypatch.setattr(dpmeta.losses, "_logistic_grad", spy_grad)
    monkeypatch.setattr(dpmeta.learners, "project_in_place", spy_project)
    report = run_experiment(build_config(LOGISTIC_ONE_ARM_ITEMS))
    assert list(report.arms) == ["meta", "no_meta"]
    assert set(margins) == {(1,), (2, 6)}
    assert {p for p in projected if p[0] == (1, 3)} == {((1, 3), True)}


@pytest.mark.numpy_floor
def test_stable_case_runs_interior_certified_passes(monkeypatch):
    # the stable digests pin the loop that skips clips and projections:
    # idle_calls certifies its training pass and its eval pass interior
    verdicts = []
    real = dpmeta.learners.idle_calls

    def spy(samples, *args, **kwargs):
        verdicts.append((samples.points.shape, real(samples, *args, **kwargs)))
        return verdicts[-1][1]

    monkeypatch.setattr(dpmeta.learners, "idle_calls", spy)
    run_experiment(build_config(STABLE_ITEMS))
    assert verdicts == [((237, 25, 2), (True, True)), ((1900, 10, 2), (True, True))]


@pytest.mark.numpy_floor
def test_idle_calls_certify_a_low_clip_bound_at_the_contracted_radius(monkeypatch):
    # the stable case with lipschitz_g = 1.0 below c x diameter = 2: the
    # clip bound is under the whole ball's gradient bound c (R + A), so
    # only the contracted-radius bound c (r + A) of an interior pass
    # certifies the clip. The training pass reads (True, True) and calls no
    # clip, and reports what the run with the clip verdict declined reports,
    # where every clip is called and none acts
    cfg = build_config({**STABLE_ITEMS, "lipschitz_g": "1.0", "growth_alpha": "1.0"})
    cal = calibrate(cfg)
    assert cal.plan.clip_bound == 1.0 < cfg.env.curvature * cfg.env.domain.diameter
    calls, clip_calls = [], []
    real_idle_calls = dpmeta.learners.idle_calls
    real_clip = dpmeta.learners.clip_norm_in_place

    def spy_idle_calls(*args, **kwargs):
        calls.append((args, kwargs, real_idle_calls(*args, **kwargs)))
        return calls[-1][-1]

    def spy_clip(*args):
        clip_calls.append(real_clip(*args))
        return clip_calls[-1]

    monkeypatch.setattr(dpmeta.learners, "idle_calls", spy_idle_calls)
    monkeypatch.setattr(dpmeta.learners, "clip_norm_in_place", spy_clip)
    report = run_experiment(cfg)
    (visits, starts, step, *rest), kwargs, verdicts = calls[0]
    assert visits.points.shape == (cal.steps_n, 25, 2)
    assert step * visits.curvature <= 1.0
    assert verdicts == (True, True) and clip_calls == []
    # the whole-ball bound alone, which a step past h = 1 leaves, declines
    assert real_idle_calls(visits, starts, 2.0 / visits.curvature, *rest,
                           **kwargs) == (False, False)
    monkeypatch.setattr(dpmeta.learners, "idle_calls",
                        lambda *args, **kw: (real_idle_calls(*args, **kw)[0], False))
    reference = run_experiment(cfg)
    assert len(clip_calls) == cfg.t_train * (cal.steps_n - 1)
    assert not any(clip_calls)
    for arm, result in report.arms.items():
        assert result.excess_risks == reference.arms[arm].excess_risks
        assert result.mean_surrogate == reference.arms[arm].mean_surrogate


@pytest.mark.parametrize("case", ["quadratic", "logistic"])
def test_calibrate_leaves_numpy_random_unimported(case, tmp_path):
    # `dpmeta calibrate` draws nothing, so its start-up must not pay for
    # importing numpy.random, say to register a seed class at import
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in GOLDEN[case][1].items()))
    src = str(Path(dpmeta.__file__).resolve().parents[1])
    probe = ("import sys\n"
             "from dpmeta.cli import main\n"
             f"code = main(['calibrate', '--config', {str(cfg)!r}])\n"
             "print(code, 'numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def _bench_workloads():
    """bench/workloads.py's WORKLOADS; that module imports nothing from
    numpy or dpmeta."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    return runpy.run_path(str(path))["WORKLOADS"]


def test_calibrate_runs_with_numpy_blocked(tmp_path, capsys):
    # `dpmeta calibrate` is arithmetic on Python floats in records of
    # calibration.Record: with every numpy, dataclasses and inspect import
    # made to fail it prints, byte for byte, the record that `run` writes to
    # its sidecar for the same config, loads no dpmeta module but cli, config
    # and calibration, and reports a bad config as `run` does
    texts = {case: "".join(f"{k} = {v}\n" for k, v in items.items())
             for case, (_, items, _, _) in GOLDEN.items()}
    for name, workload in _bench_workloads().items():
        texts[name] = workload.config_text(workload.default_seed)
    valid = sorted(texts)
    texts["invalid"] = texts["quadratic"] + "bogus = 1\nsimilarity_v2 = 0\n"
    texts["overflowing"] = texts["quadratic"].replace("epsilon = 1.0", "epsilon = 1e-200")
    paths = {}
    for case, text in texts.items():
        paths[case] = tmp_path / f"{case}.cfg"
        paths[case].write_text(text)
    src = str(Path(dpmeta.__file__).resolve().parents[1])
    probe = ("import contextlib, io, json, sys\n"
             "for blocked in ('numpy', 'dataclasses', 'inspect'):\n"
             "    sys.modules[blocked] = None\n"
             "from dpmeta.cli import main\n"
             "results = {}\n"
             "for case, path in json.loads(sys.argv[1]).items():\n"
             "    out, err = io.StringIO(), io.StringIO()\n"
             "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
             "        code = main(['calibrate', '--config', path])\n"
             "    results[case] = [code, out.getvalue(), err.getvalue()]\n"
             "loaded = sorted(k for k in sys.modules if k.split('.')[0] == 'dpmeta')\n"
             "print(json.dumps([results, loaded]))\n")
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps({c: str(p) for c, p in paths.items()})],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    results, loaded = json.loads(done.stdout)
    assert loaded == ["dpmeta", "dpmeta.calibration", "dpmeta.cli", "dpmeta.config"]
    for case in valid:
        out = tmp_path / f"{case}.csv"
        assert main(["run", "--config", str(paths[case]), "--out", str(out)]) == EXIT_OK
        run_err = capsys.readouterr().err
        # the sidecar's section: its [run_id] and master_seed lines, then the record
        record = (tmp_path / f"{case}.csv.calibration").read_text().split("\n", 2)[2]
        assert results[case] == [EXIT_OK, record, run_err], case
    for case in ("invalid", "overflowing"):
        out = tmp_path / f"{case}.csv"
        assert main(["run", "--config", str(paths[case]), "--out", str(out)]) == EXIT_CONFIG
        assert results[case] == [EXIT_CONFIG, "", capsys.readouterr().err], case
        assert not out.exists()
