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
import os
from pathlib import Path
import subprocess
import sys

import pytest

import dpmeta
from dpmeta.cli import EXIT_OK, main
from dpmeta.config import build_config
from dpmeta.harness import calibrate, csv_bytes_excluding_wall_clock

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
    "stable": (
        ["run"], STABLE_ITEMS,
        "ca0983f7f2d9e6b16cc1b3b5ea6d1deebf604f152f5b0078cfaa57afab90e34d",
        "40732ac2f77db955c3eab708fe6276f4fd28c045b34eae6ddb39aca5a6f5bbd5"),
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
