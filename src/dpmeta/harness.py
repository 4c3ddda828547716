"""Experiment orchestration: calibrate, run, sweep, and the CSV contract.

A run trains the meta-initialization on t_train tasks, then measures excess
transfer risk on t_eval fresh tasks for each requested arm. Arms share eval
tasks, eval samples and Monte Carlo risk draws seed for seed, so comparisons
are paired. The CSV schema is fixed and round-trips every float exactly (17
significant digits); wall_clock_s is the only column allowed to differ between
identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import csv
import hashlib
import io
import math
import time

import numpy as np

from . import learners
from .config import ExperimentConfig
from .learners import OgdConfig, adaptation_step_size, private_step_scale
from .losses import TaskSamples, certify_smoothness, smoothness_ceiling
from .meta import run_meta_training
from .privacy import NoisySgdPlan, compose_sequential, group_dp, make_plan
from .task_env import (derive_seed, empirical_task_variance, generate_losses,
                       population_risk_gap, sample_task, substream)

CSV_COLUMNS = (
    "run_id", "axis_value", "arm", "task_index", "excess_risk",
    "surrogate_loss", "v_bar_sq_realized", "n", "sigma_sq", "gamma", "eta",
    "epsilon", "delta", "seed", "wall_clock_s",
)

WALL_CLOCK_COLUMN = CSV_COLUMNS.index("wall_clock_s")

SWEEP_AXES = {
    "V": "similarity_v",
    "m": "samples_per_task",
    "T_train": "t_train",
    "epsilon": "epsilon",
}

ARM_META = "meta"
ARM_NO_META = "no_meta"
ARM_NONPRIVATE = "nonprivate_meta"


class InternalInvariantError(RuntimeError):
    """A result violated an invariant the harness promises to uphold."""


@dataclass(frozen=True)
class CalibrationRecord:
    """Every derived constant a run commits to before touching data."""

    samples_per_task: int
    dim: int
    steps_n: int
    sigma_sq: float
    step_scale: float
    sgd_step_size: float
    eta: float
    epsilon: float
    delta: float
    group_size: int
    group_epsilon: float
    group_delta: float
    visits_per_task: int
    composed_epsilon: float
    composed_delta: float
    lipschitz_g: float
    growth_alpha: float
    smoothness_beta: float
    smoothness_ceiling: float
    smoothness_ok: bool
    step_scale_variant: str

    def as_items(self):
        return [(name, getattr(self, name)) for name in self.__dataclass_fields__]

    @property
    def plan(self) -> NoisySgdPlan:
        """The noisy-SGD plan these constants commit the private learner to."""
        return NoisySgdPlan(steps_n=self.steps_n, step_size=self.sgd_step_size,
                            noise_variance_sigma_sq=self.sigma_sq,
                            clip_bound=self.lipschitz_g)


@dataclass(frozen=True)
class ArmResult:
    arm: str
    excess_risks: tuple[float, ...]
    mean_excess: float
    std_excess: float
    stderr_excess: float
    mean_surrogate: float | None
    v_bar_sq_realized: float | None
    sigma_sq_effective: float | None


@dataclass(frozen=True)
class MetricsReport:
    run_id: str
    axis_value: float | None
    master_seed: int
    calibration: CalibrationRecord
    arms: dict
    wall_clock_s: float

    def validate(self, mc_tolerance: float = 1e-9):
        """Cheap postconditions; violations indicate a harness bug."""
        for arm in self.arms.values():
            for gap in arm.excess_risks:
                if not math.isfinite(gap) or gap < -mc_tolerance:
                    raise InternalInvariantError(
                        f"arm {arm.arm}: excess risk {gap} below -{mc_tolerance}")
        if self.calibration.steps_n < 1:
            raise InternalInvariantError("calibration lost its step budget")


def calibrate(cfg: ExperimentConfig) -> CalibrationRecord:
    """Derive all run constants from the config, without touching data."""
    env, reg, priv = cfg.env, cfg.regularity, cfg.privacy
    step_scale = private_step_scale(reg.lipschitz_g, reg.growth_alpha, env.dim,
                                    env.samples_per_task, priv,
                                    cfg.step_scale_variant)
    plan = make_plan(env.samples_per_task, priv, env.dim, reg.lipschitz_g,
                     step_scale)
    eta = adaptation_step_size(env.similarity_v, reg.growth_alpha,
                               reg.lipschitz_g, env.samples_per_task)
    group_eps, group_delta = group_dp(priv)
    composed = compose_sequential([(priv.epsilon, priv.delta)] * cfg.visits_per_task)
    ceiling = smoothness_ceiling(reg.lipschitz_g, env.domain,
                                 env.samples_per_task, priv, plan.steps_n)
    return CalibrationRecord(
        samples_per_task=env.samples_per_task,
        dim=env.dim,
        steps_n=plan.steps_n,
        sigma_sq=plan.noise_variance_sigma_sq,
        step_scale=step_scale,
        sgd_step_size=plan.step_size,
        eta=eta,
        epsilon=priv.epsilon,
        delta=priv.delta,
        group_size=priv.group_size,
        group_epsilon=group_eps,
        group_delta=group_delta,
        visits_per_task=cfg.visits_per_task,
        composed_epsilon=composed[0],
        composed_delta=composed[1],
        lipschitz_g=reg.lipschitz_g,
        growth_alpha=reg.growth_alpha,
        smoothness_beta=reg.smoothness_beta,
        smoothness_ceiling=ceiling,
        smoothness_ok=certify_smoothness(reg, env.domain, env.samples_per_task,
                                         priv, plan.steps_n),
        step_scale_variant=cfg.step_scale_variant,
    )


def _run_id(cfg: ExperimentConfig, axis_value) -> str:
    canon = repr(cfg.raw_items) + f"|seed={cfg.master_seed}|axis={axis_value!r}"
    return "run-" + hashlib.sha256(canon.encode("utf-8")).hexdigest()[:10]


def _train_arm(cfg, plan):
    phi_hat, records, _ = run_meta_training(
        cfg.env, cfg.t_train, plan, cfg.phi_init, cfg.master_seed)
    mean_surrogate = float(np.mean([r.surrogate_loss_value for r in records]))
    v_bar_sq = empirical_task_variance([r.theta_star for r in records],
                                       cfg.env.planted_center)
    return phi_hat, mean_surrogate, v_bar_sq


def run_experiment(cfg: ExperimentConfig, axis_value: float | None = None,
                   ) -> MetricsReport:
    """Train, evaluate, and aggregate one configuration.

    Training arms run the noisy-SGD plan of the calibration record (the
    nonprivate arm with its noise variance set to 0). Evaluation draws t_eval
    fresh tasks from eval substreams that are independent of the training
    substreams, adapts every arm's initialization to every eval task in one
    batched OGD run at the calibrated adaptation step size, and scores each
    averaged iterate's population excess risk. All arms see identical eval
    tasks, samples and, for logistic tasks, Monte Carlo draws (one sample set
    per task from the substream (master_seed, "eval-risk", e)).
    """
    start = time.perf_counter()
    cal = calibrate(cfg)
    env = cfg.env
    inference_cfg = OgdConfig(step_size=cal.eta, num_steps=env.samples_per_task)

    arm_setups = {}
    phi_hat, mean_sur, v_bar_sq = _train_arm(cfg, cal.plan)
    arm_setups[ARM_META] = (phi_hat, mean_sur, v_bar_sq, cal.sigma_sq)
    if cfg.baseline_no_meta:
        arm_setups[ARM_NO_META] = (cfg.phi_init, None, None, None)
    if cfg.baseline_nonprivate_meta:
        quiet_plan = replace(cal.plan, noise_variance_sigma_sq=0.0)
        phi_np, sur_np, vb_np = _train_arm(cfg, quiet_plan)
        arm_setups[ARM_NONPRIVATE] = (phi_np, sur_np, vb_np, 0.0)

    # every eval task's samples in one step-major (m, t_eval, d) buffer, filled
    # task by task from the per-task substreams; no other copy is made
    m, t_eval = env.samples_per_task, cfg.t_eval
    quadratic = env.loss_family == "quadratic"
    points = np.empty((m, t_eval, env.dim))
    labels = None if quadratic else np.empty((m, t_eval))
    tasks = []
    for e in range(t_eval):
        task = sample_task(env, substream(cfg.master_seed, "eval-task", e))
        samples = generate_losses(task, env, substream(cfg.master_seed, "eval-losses", e))
        points[:, e] = samples.points
        if labels is not None:
            labels[:, e] = samples.labels
        tasks.append(task)
    batch = TaskSamples(points, curvature=env.curvature if quadratic else None,
                        labels=labels)
    # inits (arms, 1, d) against samples (m, t_eval, d): every arm on every task
    inits = np.stack([phi0 for phi0, _, _, _ in arm_setups.values()])[:, None, :]
    averaged = learners.ogd_run(batch, inits, inference_cfg, env.domain).averaged_iterate

    # gaps[a, e]: arm a's excess risk on eval task e; on logistic tasks every
    # arm is scored against the task's one Monte Carlo sample set
    gaps = np.empty((len(arm_setups), t_eval))
    for e, task in enumerate(tasks):
        if quadratic:
            gaps[:, e] = population_risk_gap(task, averaged[:, e])
        else:
            gaps[:, e] = population_risk_gap(task, averaged[:, e], cfg.mc_eval_samples,
                                             substream(cfg.master_seed, "eval-risk", e))

    arms = {}
    for risks, (arm, setup) in zip(gaps, arm_setups.items()):
        _, mean_surrogate, v_bar, sigma_eff = setup
        arms[arm] = ArmResult(
            arm=arm,
            excess_risks=tuple(float(g) for g in risks),
            mean_excess=float(risks.mean()),
            std_excess=float(risks.std(ddof=1)) if risks.size > 1 else 0.0,
            stderr_excess=(float(risks.std(ddof=1) / math.sqrt(risks.size))
                           if risks.size > 1 else 0.0),
            mean_surrogate=mean_surrogate,
            v_bar_sq_realized=v_bar,
            sigma_sq_effective=sigma_eff,
        )

    mc_tol = 1e-9
    if not quadratic:
        mc_tol = 1.0  # paired MC estimates can dip below zero by sampling error
    report = MetricsReport(
        run_id=_run_id(cfg, axis_value),
        axis_value=axis_value,
        master_seed=cfg.master_seed,
        calibration=cal,
        arms=arms,
        wall_clock_s=time.perf_counter() - start,
    )
    report.validate(mc_tolerance=mc_tol)
    return report


def sweep(cfg_base: ExperimentConfig, axis: str, values) -> list[MetricsReport]:
    """Run the base config once per axis value with a per-value derived seed.

    The derived seed folds (master_seed, axis, value) together, so sweep
    points are independent draws while remaining reproducible.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    key = SWEEP_AXES[axis]
    reports = []
    for value in values:
        cfg_v = cfg_base.replace_value(key, value)
        cfg_v = cfg_v.replace_value(
            "master_seed", derive_seed(cfg_base.master_seed, "sweep", axis,
                                       format(float(value), ".17g")))
        reports.append(run_experiment(cfg_v, axis_value=float(value)))
    return reports


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def report_rows(report: MetricsReport) -> list[list[str]]:
    """Flatten a report into CSV rows, one per (arm, eval task)."""
    cal = report.calibration
    rows = []
    for arm_name in (ARM_META, ARM_NO_META, ARM_NONPRIVATE):
        arm = report.arms.get(arm_name)
        if arm is None:
            continue
        for idx, gap in enumerate(arm.excess_risks):
            rows.append([
                report.run_id,
                _fmt(report.axis_value),
                arm.arm,
                str(idx),
                _fmt(float(gap)),
                _fmt(arm.mean_surrogate),
                _fmt(arm.v_bar_sq_realized),
                str(cal.steps_n),
                _fmt(arm.sigma_sq_effective),
                _fmt(cal.step_scale),
                _fmt(cal.eta),
                _fmt(cal.epsilon),
                _fmt(cal.delta),
                str(report.master_seed),
                _fmt(report.wall_clock_s),
            ])
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
    if isinstance(reports, MetricsReport):
        reports = [reports]
    lines = []
    for report in reports:
        lines.append(f"[{report.run_id}]")
        if report.axis_value is not None:
            lines.append(f"axis_value = {_fmt(report.axis_value)}")
        lines.append(f"master_seed = {report.master_seed}")
        for name, value in report.calibration.as_items():
            lines.append(f"{name} = {_fmt(value)}")
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
