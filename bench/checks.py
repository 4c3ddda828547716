"""Output checks applied to every `dpmeta run` op the benchmark makes.

An op that fails any of them counts in the run's `failed` total.
"""

from __future__ import annotations

import hashlib

from dpmeta.harness import (InternalInvariantError,
                            csv_bytes_excluding_wall_clock, read_csv_rows)

# The fixed CSV schema, written out here so that a change to the program's
# own column list shows up as a failure instead of moving the check with it.
EXPECTED_HEADER = (
    "run_id", "axis_value", "arm", "task_index", "excess_risk",
    "surrogate_loss", "v_bar_sq_realized", "n", "sigma_sq", "gamma", "eta",
    "epsilon", "delta", "seed", "wall_clock_s",
)

# Reordering float sums (say, a batched learner) moves each iterate by about
# 1e-16 relative; a gap near zero can amplify that to about 1e-13.
QUADRATIC_REL_TOL = 1e-9
# Re-pairing the Monte Carlo risk draws moves an arm's mean by much less than
# the task-to-task spread that its reported stderr_excess measures.
LOGISTIC_STDERR_MULTIPLE = 3.0


def csv_digest(csv_path) -> str:
    return hashlib.sha256(csv_bytes_excluding_wall_clock(csv_path)).hexdigest()


def check_op(report, csv_path, workload, seed: int) -> list[str]:
    """The problems found in one op's report and CSV; empty when it passes."""
    problems = []
    try:
        # the harness's own tolerance: paired MC estimates can dip below zero
        report.validate(mc_tolerance=1.0 if workload.logistic else 1e-9)
    except InternalInvariantError as exc:
        problems.append(f"validate: {exc}")
    if tuple(report.arms) != workload.arms:
        problems.append(f"arms {tuple(report.arms)} != {workload.arms}")

    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        header = tuple(fh.readline().rstrip("\n").split(","))
    if header != EXPECTED_HEADER:
        problems.append(f"CSV header {header}")
        return problems
    rows = read_csv_rows(csv_path)
    expected_rows = workload.t_eval * len(workload.arms)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} CSV rows, expected {expected_rows}")
    for row in rows:
        arm = report.arms.get(row["arm"])
        if (arm is None or row["run_id"] != report.run_id
                or int(row["seed"]) != seed
                or float(row["wall_clock_s"]) != report.wall_clock_s
                or float(row["excess_risk"])
                != arm.excess_risks[int(row["task_index"])]):
            problems.append(f"CSV row does not round-trip: {row}")
            break

    if "no_meta" in report.arms and not (
            report.arms["meta"].mean_excess < report.arms["no_meta"].mean_excess):
        problems.append("meta does not beat no_meta")

    if seed == workload.default_seed:
        for name, ref in workload.reference.items():
            arm = report.arms[name]
            tol = (LOGISTIC_STDERR_MULTIPLE * arm.stderr_excess if workload.logistic
                   else QUADRATIC_REL_TOL * abs(ref))
            if not abs(arm.mean_excess - ref) <= tol:
                problems.append(f"{name}: mean excess {arm.mean_excess!r} is "
                                f"off its reference {ref!r} by more than {tol:.3g}")
    return problems
