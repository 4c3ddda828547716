"""Experiment orchestration: calibrate, run, sweep, and the CSV contract.

A run trains the meta-initialization on t_train tasks, then measures excess
transfer risk on t_eval fresh tasks for each requested arm. The arm table in
run_experiment (arm -> training plan, in report order) is the one place a run's
arms are declared; a sweep is validated whole before it runs. The training arms
share training tasks, samples and index sequences in one pass, and all arms
share eval tasks, eval samples and, for logistic risk, one feature sample
seed for seed, so comparisons are paired. Arms and tasks are array axes:
training returns one row per training arm, and evaluation stacks every eval
task's samples and minimizer and scores every arm on every task in one risk
call. The CSV schema is fixed and round-trips every float exactly (17
significant digits); wall_clock_s is the only column allowed to differ
between identical runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time

import numpy as np

from . import learners
# the closed forms and the record live in the numpy-free calibration module
from .calibration import CalibrationRecord, InternalInvariantError, Record, calibrate
from .config import (SWEEP_AXES, ConfigError, ExperimentConfig, build_config,
                     format_value)
from .learners import OgdConfig
from .meta import run_meta_training
from .task_env import (derive_seed, draw_tasks, empirical_task_variance,
                       population_risk_gap, substream, substreams)

CSV_COLUMNS = (
    "run_id", "axis_value", "arm", "task_index", "excess_risk",
    "surrogate_loss", "v_bar_sq_realized", "n", "sigma_sq", "gamma", "eta",
    "epsilon", "delta", "seed", "wall_clock_s",
)

WALL_CLOCK_COLUMN = CSV_COLUMNS.index("wall_clock_s")

ARM_META = "meta"
ARM_NO_META = "no_meta"
ARM_NONPRIVATE = "nonprivate_meta"


class ArmResult(Record):
    arm: str
    excess_risks: tuple[float, ...]
    mean_excess: float
    stderr_excess: float
    mean_surrogate: float | None
    v_bar_sq_realized: float | None
    sigma_sq_effective: float | None


class MetricsReport(Record):
    run_id: str
    axis_value: float | None
    master_seed: int
    calibration: CalibrationRecord
    arms: dict
    wall_clock_s: float

    def validate(self, mc_tolerance: float = 1e-9):
        """Cheap postconditions; violations indicate a harness bug. No gap of
        either family is negative beyond rounding, so run_experiment checks
        every run at the default mc_tolerance."""
        for arm in self.arms.values():
            for gap in arm.excess_risks:
                if not math.isfinite(gap) or gap < -mc_tolerance:
                    raise InternalInvariantError(
                        f"arm {arm.arm}: excess risk {gap} below -{mc_tolerance}")


def _run_id(cfg: ExperimentConfig, axis_value) -> str:
    canon = repr(cfg.raw_items) + f"|seed={cfg.master_seed}|axis={axis_value!r}"
    return "run-" + hashlib.sha256(canon.encode("utf-8")).hexdigest()[:10]


def run_experiment(cfg: ExperimentConfig, axis_value: float | None = None,
                   ) -> MetricsReport:
    """Train, evaluate, and aggregate one configuration.

    Training arms run the noisy-SGD plan of the calibration record (the
    nonprivate arm with its noise variance set to 0) in one meta-training
    pass, so they share training tasks, samples and index sequences and
    report one realized task dispersion. Evaluation draws t_eval fresh tasks
    from eval substreams independent of the training ones, adapts every
    arm's initialization to every eval task in one batched OGD run at the
    calibrated adaptation step size, and scores every averaged iterate in one
    population_risk_gap call for either loss family. All arms see identical
    eval tasks and samples. Logistic risk integrates each label out exactly
    over one feature sample from the substream (master_seed, "eval-risk"),
    shared by every eval task and arm; a quadratic run creates no risk
    substream.
    """
    start = time.perf_counter()
    cal = calibrate(cfg)
    env = cfg.env
    inference_cfg = OgdConfig(step_size=cal.eta, num_steps=env.samples_per_task)

    # arm -> training plan, in report order: the one place a run's arms are
    # declared. None trains nothing and adapts from phi_init; the other arms
    # (the calibrated plan and its zero-noise twin) share one training pass
    arms = {ARM_META: cal.plan}
    if cfg.baseline_no_meta:
        arms[ARM_NO_META] = None
    if cfg.baseline_nonprivate_meta:
        arms[ARM_NONPRIVATE] = cal.plan.replace(noise_variance_sigma_sq=0.0)
    # trained arm -> its row in every training output
    rows = {arm: i for i, arm in enumerate(a for a, p in arms.items() if p is not None)}
    trained = run_meta_training(env, cfg.t_train, [arms[arm] for arm in rows],
                                cfg.phi_init, cfg.master_seed)
    # shared tasks, so one realized dispersion serves every training arm
    v_bar_sq = empirical_task_variance(trained.theta_stars, env.planted_center)

    # every eval task's minimizer (t_eval, d) and samples, step-major
    # (m, t_eval, d), in one draw, each task from its own substreams
    stars, batch = draw_tasks(
        env, substreams(cfg.master_seed, "eval-task", count=cfg.t_eval),
        substreams(cfg.master_seed, "eval-losses", count=cfg.t_eval), None)
    # arm starts (arms, 1, d) against samples (m, t_eval, d): every arm, every task
    starts = np.stack([cfg.phi_init if plan is None else trained.phi_hat[rows[arm]]
                       for arm, plan in arms.items()])
    averaged = learners.ogd_run(batch, starts[:, None, :], inference_cfg,
                                env.domain).averaged_iterate

    # gaps[a, e]: arm a's excess risk on eval task e; on logistic tasks every
    # arm and task is scored over the same features, so raising t_eval leaves
    # the earlier tasks' values as they were
    risk_rng = None
    if env.loss_family == "logistic":
        risk_rng = substream(cfg.master_seed, "eval-risk")
    gaps = population_risk_gap(env, stars, averaged, cfg.mc_eval_samples, risk_rng)

    results = {}
    for (arm, plan), risks in zip(arms.items(), gaps):
        std = risks.std(ddof=1) if risks.size > 1 else 0.0
        trains = plan is not None
        results[arm] = ArmResult(
            arm=arm,
            excess_risks=tuple(float(g) for g in risks),
            mean_excess=float(risks.mean()),
            stderr_excess=float(std / math.sqrt(risks.size)),
            # over the arm's own contiguous row, as a loop over tasks sums
            mean_surrogate=float(trained.surrogate_losses[rows[arm]].mean()) if trains else None,
            v_bar_sq_realized=v_bar_sq if trains else None,
            sigma_sq_effective=plan.noise_variance_sigma_sq if trains else None,
        )

    report = MetricsReport(
        run_id=_run_id(cfg, axis_value),
        axis_value=axis_value,
        master_seed=cfg.master_seed,
        calibration=cal,
        arms=results,
        wall_clock_s=time.perf_counter() - start,
    )
    report.validate()
    return report


def sweep(cfg_base: ExperimentConfig, axis: str, values) -> list[MetricsReport]:
    """Run the base config once per axis value with a per-value derived seed.

    The derived seed folds (master_seed, axis, value) together, so sweep
    points are independent draws while remaining reproducible. Every point's
    config is built and calibrated first, and one ConfigError names every
    bad point's faults.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    points, violations = [], []
    for value in values:
        seed = derive_seed(cfg_base.master_seed, "sweep", axis, format_value(float(value)))
        items = dict(cfg_base.raw_items)
        items.update({SWEEP_AXES[axis]: format_value(value),
                      "master_seed": format_value(seed)})
        try:
            cfg = build_config(items)
            calibrate(cfg)
            points.append((cfg, float(value)))
        except ConfigError as exc:
            violations += [f"{axis}={float(value):g}: {v}" for v in exc.violations]
    if violations:
        raise ConfigError(violations)
    return [run_experiment(cfg, axis_value=value) for cfg, value in points]


def report_rows(report: MetricsReport) -> list[list[str]]:
    """Flatten a report into CSV rows: per arm in report order, per eval task."""
    cal = report.calibration
    rows = []
    for arm in report.arms.values():
        head = [format_value(v) for v in (report.run_id, report.axis_value, arm.arm)]
        tail = [format_value(v) for v in (
            arm.mean_surrogate, arm.v_bar_sq_realized, cal.steps_n,
            arm.sigma_sq_effective, cal.step_scale, cal.eta, cal.epsilon,
            cal.delta, report.master_seed, report.wall_clock_s)]
        rows += [head + [format_value(idx), format_value(gap)] + tail
                 for idx, gap in enumerate(arm.excess_risks)]
    return rows


def write_csv(reports, path: str):
    """Write one or more reports to the fixed-schema CSV."""
    if isinstance(reports, MetricsReport):
        reports = [reports]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerows(report_rows(report))


def read_csv_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        return list(reader)


def write_calibration_sidecar(reports, path: str):
    """Write `<out>.calibration` echoing each report's calibration record."""
    lines = []
    for report in reports:
        lines.append(f"[{report.run_id}]")
        if report.axis_value is not None:
            lines.append(f"axis_value = {format_value(report.axis_value)}")
        lines.append(f"master_seed = {format_value(report.master_seed)}")
        lines += report.calibration.lines()
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def csv_bytes_excluding_wall_clock(path: str) -> bytes:
    """The CSV's content with the wall-clock column blanked, for determinism
    comparisons."""
    out = io.StringIO()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        writer = csv.writer(out, lineterminator="\n")
        for row in csv.reader(fh):
            row = list(row)
            if len(row) == len(CSV_COLUMNS):
                row[WALL_CLOCK_COLUMN] = ""
            writer.writerow(row)
    return out.getvalue().encode("utf-8")
