"""Synthetic task environments with a planted similarity structure.

Tasks are drawn around a planted center: each task's population minimizer is
the center plus an isotropic Gaussian offset scaled so its expected squared
norm is similarity_v**2 before projection. Each task's m samples then scatter
around the minimizer and come back as arrays (losses.TaskSamples): quadratic
anchors, or logistic features plus labels. Everything is driven by named
substreams of a single master seed, so any piece of a run can be regenerated
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import zlib

import numpy as np

from .geometry import ParamDomain, as_batch, as_vector, dist_sq, project, row_dot
from .losses import TaskSamples

LOSS_FAMILIES = ("quadratic", "logistic")

_SEED_MASK = (1 << 64) - 1


def _mix_tags(master_seed: int, tags):
    words = [int(master_seed) & _SEED_MASK]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode("utf-8")))
        else:
            words.append(int(tag) & _SEED_MASK)
    return words


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator for (master_seed, *tags).

    Tags may be strings (hashed via crc32, stable across platforms) or
    integers. The same (seed, tags) always yields the same stream; distinct
    tag tuples yield statistically independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence(_mix_tags(master_seed, tags)))


def derive_seed(master_seed: int, *tags) -> int:
    """Collapse (master_seed, *tags) to a fresh 64-bit master seed."""
    seq = np.random.SeedSequence(_mix_tags(master_seed, tags))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EnvSpec:
    """A task distribution: domain, planted center, dispersion, sample model.

    similarity_v controls how far task minimizers scatter from the planted
    center: offsets are N(0, (V^2/d) I), so E||offset||^2 = V^2 before
    projection. sample_noise_std scatters quadratic anchors around each task
    minimizer. task_budget, when set, caps how many tasks may be drawn.
    """

    domain: ParamDomain
    planted_center: np.ndarray
    similarity_v: float
    samples_per_task: int
    loss_family: str = "quadratic"
    curvature: float = 1.0
    sample_noise_std: float = 0.0
    feature_norm: float = 1.0
    task_budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "planted_center",
                           as_vector(self.planted_center, self.domain.dim))
        if not self.domain.contains(self.planted_center):
            raise ValueError("planted_center lies outside the domain")
        if not math.isfinite(self.similarity_v) or self.similarity_v < 0:
            raise ValueError(f"similarity_v must be finite and >= 0, got {self.similarity_v}")
        if self.similarity_v > self.domain.radius:
            raise ValueError(
                f"similarity_v={self.similarity_v} exceeds the domain radius "
                f"{self.domain.radius}; the dispersion would be mostly projection")
        if int(self.samples_per_task) != self.samples_per_task or self.samples_per_task < 1:
            raise ValueError(
                f"samples_per_task must be an integer >= 1, got {self.samples_per_task}")
        object.__setattr__(self, "samples_per_task", int(self.samples_per_task))
        if self.loss_family not in LOSS_FAMILIES:
            raise ValueError(
                f"loss_family must be one of {LOSS_FAMILIES}, got {self.loss_family!r}")
        if not math.isfinite(self.curvature) or self.curvature <= 0:
            raise ValueError(f"curvature must be finite and > 0, got {self.curvature}")
        if not math.isfinite(self.sample_noise_std) or self.sample_noise_std < 0:
            raise ValueError(
                f"sample_noise_std must be finite and >= 0, got {self.sample_noise_std}")
        if not math.isfinite(self.feature_norm) or self.feature_norm <= 0:
            raise ValueError(f"feature_norm must be finite and > 0, got {self.feature_norm}")
        if self.task_budget is not None and (int(self.task_budget) != self.task_budget
                                             or self.task_budget < 0):
            raise ValueError(f"task_budget must be an integer >= 0, got {self.task_budget}")

    @property
    def dim(self) -> int:
        return self.domain.dim


@dataclass(frozen=True)
class TaskSpec:
    """One drawn task: its population minimizer plus the sample model it
    inherits from the environment. Not serialized; regenerate from the seed."""

    theta_star: np.ndarray
    loss_family: str
    curvature: float
    sample_noise_std: float
    feature_norm: float


def sample_task(spec: EnvSpec, rng: np.random.Generator) -> TaskSpec:
    """Draw a task minimizer: project(center + z), z ~ N(0, (V^2/d) I).

    V == 0 yields the planted center exactly; the Gaussian draw still happens
    so stream layout does not depend on V.
    """
    z = rng.normal(0.0, 1.0, size=spec.dim)
    scale = spec.similarity_v / math.sqrt(spec.dim)
    theta_star = project(spec.planted_center + scale * z, spec.domain)
    return TaskSpec(
        theta_star=theta_star,
        loss_family=spec.loss_family,
        curvature=spec.curvature,
        sample_noise_std=spec.sample_noise_std,
        feature_norm=spec.feature_norm,
    )


def _logistic_draw(task: TaskSpec, count: int, rng: np.random.Generator):
    """count features uniform on the sphere of radius feature_norm, with
    labels in {-1.0, +1.0} drawn from the logistic model at theta_star."""
    raw = rng.normal(0.0, 1.0, size=(count, task.theta_star.size))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    features = task.feature_norm * raw / norms
    star_margins = features @ task.theta_star
    p_plus = 1.0 / (1.0 + np.exp(-star_margins))
    labels = np.where(rng.random(count) < p_plus, 1.0, -1.0)
    return features, labels, star_margins


def generate_losses(task: TaskSpec, spec: EnvSpec,
                    rng: np.random.Generator) -> TaskSamples:
    """Draw the task's m samples as arrays.

    Quadratic: anchors (m, d) are project(theta_star + w), w ~ N(0, s^2 I)
    with s = sample_noise_std, so the empirical minimizer is unbiased for
    theta_star up to projection. Logistic: features (m, d) uniform on the
    sphere of radius feature_norm, labels (m,) in {-1, +1} from the logistic
    model at theta_star.
    """
    m = spec.samples_per_task
    if task.loss_family == "logistic":
        features, labels, _ = _logistic_draw(task, m, rng)
        return TaskSamples(features, labels=labels)
    if task.sample_noise_std == 0.0:
        anchors = np.tile(task.theta_star, (m, 1))
    else:
        anchors = task.theta_star + rng.normal(
            0.0, task.sample_noise_std, size=(m, spec.dim))
    # vectorized projection of the whole anchor batch
    offsets = anchors - spec.domain.center
    norms = np.linalg.norm(offsets, axis=1)
    outside = norms > spec.domain.radius
    if outside.any():
        anchors[outside] = (spec.domain.center
                            + offsets[outside] * (spec.domain.radius
                                                  / norms[outside])[:, None])
    return TaskSamples(anchors, curvature=task.curvature)


def population_risk_gap(task: TaskSpec, theta, mc_samples: int | None = None,
                        rng: np.random.Generator | None = None):
    """Population excess risk for the task of theta, or of every vector of a
    batch shaped (..., d) (a float, or an array shaped (...)).

    Quadratic tasks use the exact closed form (curvature/2) ||theta - theta*||^2
    (anchor noise only shifts the risk by a constant, which cancels in the
    gap). Logistic tasks are estimated by Monte Carlo; see logistic_risk_gap
    for the paired estimator and its standard error.
    """
    if task.loss_family == "quadratic":
        diff = as_batch(theta, task.theta_star.size) - task.theta_star
        return (0.5 * task.curvature * row_dot(diff, diff))[()]
    if mc_samples is None or rng is None:
        raise ValueError("logistic risk gaps need mc_samples and an rng")
    return logistic_risk_gap(task, theta, mc_samples, rng)[0]


def logistic_risk_gap(task: TaskSpec, theta, mc_samples: int,
                      rng: np.random.Generator):
    """Paired Monte Carlo estimate of E[loss(theta) - loss(theta_star)].

    Returns (estimate, standard error), floats for one theta and arrays
    shaped (...) for a batch shaped (..., d). One sample set is drawn and
    scored against every theta, one mat-vec each, so a batch gives exactly
    the values of separate calls with identically seeded generators. The
    pairing makes the estimate exactly zero at theta == theta_star.
    """
    if int(mc_samples) != mc_samples or mc_samples < 2:
        raise ValueError(f"mc_samples must be an integer >= 2, got {mc_samples}")
    thetas = as_batch(theta, task.theta_star.size)
    mc = int(mc_samples)
    features, labels, star_margins = _logistic_draw(task, mc, rng)
    star_losses = np.logaddexp(0.0, -labels * star_margins)
    flat = thetas.reshape(-1, thetas.shape[-1])
    est, se = np.empty(len(flat)), np.empty(len(flat))
    for i, row in enumerate(flat):
        diffs = np.logaddexp(0.0, -labels * (features @ row)) - star_losses
        est[i] = diffs.mean()
        se[i] = diffs.std(ddof=1) / math.sqrt(mc)
    # [()] turns the 0-d result of a single theta into a float
    return est.reshape(thetas.shape[:-1])[()], se.reshape(thetas.shape[:-1])[()]


def empirical_task_variance(theta_stars, reference) -> float:
    """Mean squared distance of task minimizers from a reference point: the
    realized analogue of similarity_v**2."""
    theta_stars = list(theta_stars)
    if not theta_stars:
        raise ValueError("empirical_task_variance needs at least one minimizer")
    reference = as_vector(reference)
    return float(np.mean([dist_sq(t, reference) for t in theta_stars]))
