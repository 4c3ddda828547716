"""Workloads for the `dpmeta run` benchmark.

Each workload is one generated config that `dpmeta run` receives as a file;
the benchmark's --seed becomes the config's master_seed and nothing else.
The three shapes stress different layers of a run (NOTES.md says which layer
metric should move which end-to-end metric on which workload). Sizes are
scaled down from the acceptance criteria they come from, so that one op takes
about a second and a run can report the median of many ops; the scaling keeps
each workload's dominant layer.

This module imports nothing from numpy or dpmeta, so the benchmark can read it
before it pins the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: dict
    default_seed: int
    # arm -> mean excess risk at default_seed, recorded from the unmodified
    # program; compared only when a run uses default_seed
    reference: dict

    @property
    def arms(self) -> tuple[str, ...]:
        arms = ["meta"]
        if self.items.get("baseline_no_meta") == "true":
            arms.append("no_meta")
        if self.items.get("baseline_nonprivate_meta") == "true":
            arms.append("nonprivate_meta")
        return tuple(arms)

    @property
    def t_eval(self) -> int:
        return int(self.items["t_eval"])

    @property
    def logistic(self) -> bool:
        return self.items.get("loss_family") == "logistic"

    def config_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.items.items()]
        lines.append(f"master_seed = {int(seed)}")
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="adapt_heavy",
        why="criterion 09's middle point (m=1900, d=2, eps=0.5): eval OGD and "
            "per-sample loss generation carry the run, training is ~6%",
        # t_train 25 -> 5 and t_eval 500 -> 100 keep the train/eval ratio
        items={
            "dim": "2", "domain_radius": "1.0", "similarity_v": "0.0",
            "samples_per_task": "1900", "t_train": "5", "t_eval": "100",
            "epsilon": "0.5", "delta": "0.1", "curvature": "1.0",
            "sample_noise_std": "0.05",
        },
        default_seed=101,
        reference={"meta": 1.0476828322523552e-05},
    ),
    Workload(
        name="train_heavy",
        why="criterion 08's shape made long: sequential meta-training, one "
            "task per learner call, so per-call cost, substreams and the "
            "diagnostic OGD pass dominate",
        # t_train 2000 -> 500 and t_eval 50 -> 12 keep the train/eval ratio
        items={
            "dim": "5", "domain_radius": "3.0", "similarity_v": "0.1",
            "samples_per_task": "100", "t_train": "500", "t_eval": "12",
            "epsilon": "1.0", "delta": "1e-5", "curvature": "1.0",
            "sample_noise_std": "0.2", "phi_init": "1.5,0,0,0,0",
            "baseline_no_meta": "true", "baseline_nonprivate_meta": "true",
        },
        default_seed=101,
        reference={"meta": 0.0033864379892788407,
                   "no_meta": 0.8082224832428375,
                   "nonprivate_meta": 0.0026994563436260753},
    ),
    Workload(
        name="logistic_mc",
        why="logistic tasks: heavier per-step gradients and Monte Carlo risk "
            "scoring with 10000 draws per arm, which the quadratic "
            "workloads bypass",
        # t_train 300 -> 75 and t_eval 400 -> 100
        items={
            "dim": "5", "domain_radius": "2.0", "loss_family": "logistic",
            "growth_alpha": "0.1", "similarity_v": "0.1",
            "samples_per_task": "200", "t_train": "75", "t_eval": "100",
            "epsilon": "2.0", "delta": "1e-5",
            "planted_center": "1,0,0,0,0", "mc_eval_samples": "10000",
            "baseline_no_meta": "true",
        },
        default_seed=7,
        reference={"meta": 0.011328240540162564,
                   "no_meta": 0.015025357487954125},
    ),
)}
