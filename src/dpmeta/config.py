"""Flat ``key = value`` experiment configs.

One setting per line, ``#`` starts a comment, blank lines are ignored.
Vector-valued keys take comma-separated floats. Validation is collective: a
bad config reports every violation at once, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .geometry import ParamDomain
from .learners import STEP_SCALE_VARIANTS
from .losses import (RegularityProfile, logistic_regularity, quadratic_regularity)
from .privacy import PrivacyParams
from .task_env import LOSS_FAMILIES, EnvSpec


class ConfigError(ValueError):
    """Raised with the full list of config violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}

KNOWN_KEYS = {
    "dim", "domain_radius", "domain_center", "planted_center", "similarity_v",
    "samples_per_task", "loss_family", "curvature", "sample_noise_std",
    "feature_norm", "t_train", "t_eval", "epsilon", "delta", "group_size",
    "visits_per_task", "lipschitz_g", "smoothness_beta", "growth_alpha",
    "step_scale_variant", "master_seed", "phi_init", "baseline_no_meta",
    "baseline_nonprivate_meta", "mc_eval_samples", "output_path", "task_budget",
}

REQUIRED_KEYS = ("dim", "domain_radius", "similarity_v", "samples_per_task",
                 "t_train", "epsilon", "delta", "master_seed")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: environment, budgets, learner constants."""

    env: EnvSpec
    regularity: RegularityProfile
    privacy: PrivacyParams
    t_train: int
    t_eval: int
    master_seed: int
    phi_init: np.ndarray
    step_scale_variant: str = "sqrt_m"
    visits_per_task: int = 1
    baseline_no_meta: bool = False
    baseline_nonprivate_meta: bool = False
    mc_eval_samples: int = 2000
    output_path: str | None = None
    raw_items: tuple = field(default=(), compare=False)

    def replace_value(self, key: str, value) -> "ExperimentConfig":
        """Rebuild the config with one raw setting changed (used by sweeps)."""
        items = dict(self.raw_items)
        items[key] = _format_raw(value)
        return build_config(items)


def _format_raw(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines into a string-to-string dict."""
    violations = []
    items = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            violations.append(f"line {lineno}: empty key")
            continue
        if key in items:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        items[key] = value
    if violations:
        raise ConfigError(violations)
    return items


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return build_config(parse_config_text(text))


class _Reader:
    """Typed accessors that record violations instead of raising."""

    def __init__(self, items):
        self.items = dict(items)
        self.violations = []

    def _get(self, key, default=None):
        return self.items.get(key, default)

    def int_(self, key, default=None, minimum=None):
        raw = self._get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            self.violations.append(f"{key}: expected an integer, got {raw!r}")
            return default
        if minimum is not None and value < minimum:
            self.violations.append(f"{key}: must be >= {minimum}, got {value}")
            return default
        return value

    def float_(self, key, default=None, minimum=None, exclusive_min=False):
        raw = self._get(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            self.violations.append(f"{key}: expected a number, got {raw!r}")
            return default
        if not math.isfinite(value):
            self.violations.append(f"{key}: must be finite, got {value}")
            return default
        if minimum is not None:
            if exclusive_min and value <= minimum:
                self.violations.append(f"{key}: must be > {minimum}, got {value}")
                return default
            if not exclusive_min and value < minimum:
                self.violations.append(f"{key}: must be >= {minimum}, got {value}")
                return default
        return value

    def bool_(self, key, default=False):
        raw = self._get(key)
        if raw is None:
            return default
        word = raw.lower()
        if word not in _BOOL_WORDS:
            self.violations.append(f"{key}: expected true/false, got {raw!r}")
            return default
        return _BOOL_WORDS[word]

    def choice(self, key, choices, default):
        raw = self._get(key, default)
        if raw not in choices:
            self.violations.append(f"{key}: must be one of {sorted(choices)}, got {raw!r}")
            return default
        return raw

    def vector(self, key, dim, default=None):
        raw = self._get(key)
        if raw is None:
            return default
        parts = [p.strip() for p in raw.split(",")]
        try:
            values = [float(p) for p in parts]
        except ValueError:
            self.violations.append(f"{key}: expected comma-separated numbers, got {raw!r}")
            return default
        if dim is not None and len(values) != dim:
            self.violations.append(f"{key}: expected {dim} coordinates, got {len(values)}")
            return default
        if not all(math.isfinite(v) for v in values):
            self.violations.append(f"{key}: coordinates must be finite")
            return default
        return np.array(values, dtype=np.float64)


def build_config(items: dict) -> ExperimentConfig:
    """Validate parsed settings and assemble an ExperimentConfig.

    Raises ConfigError carrying every violation found.
    """
    r = _Reader(items)
    for key in items:
        if key not in KNOWN_KEYS:
            r.violations.append(f"unknown key {key!r}")
    for key in REQUIRED_KEYS:
        if key not in items:
            r.violations.append(f"missing required key {key!r}")

    dim = r.int_("dim", minimum=1)
    radius = r.float_("domain_radius", minimum=0.0, exclusive_min=True)
    center = r.vector("domain_center", dim)
    similarity_v = r.float_("similarity_v", minimum=0.0)
    m = r.int_("samples_per_task", minimum=1)
    family = r.choice("loss_family", LOSS_FAMILIES, "quadratic")
    curvature = r.float_("curvature", default=1.0, minimum=0.0, exclusive_min=True)
    sample_noise_std = r.float_("sample_noise_std", default=0.0, minimum=0.0)
    feature_norm = r.float_("feature_norm", default=1.0, minimum=0.0, exclusive_min=True)
    t_train = r.int_("t_train", minimum=1)
    t_eval = r.int_("t_eval", default=500, minimum=1)
    epsilon = r.float_("epsilon", minimum=0.0, exclusive_min=True)
    delta = r.float_("delta", minimum=0.0, exclusive_min=True)
    group_size = r.int_("group_size", default=1, minimum=1)
    visits = r.int_("visits_per_task", default=1, minimum=1)
    variant = r.choice("step_scale_variant", STEP_SCALE_VARIANTS, "sqrt_m")
    master_seed = r.int_("master_seed")
    mc_eval = r.int_("mc_eval_samples", default=2000, minimum=2)
    task_budget = r.int_("task_budget", minimum=0)
    output_path = items.get("output_path")

    if delta is not None and delta >= 1.0:
        r.violations.append(f"delta: must be < 1, got {delta}")
    if None not in (t_train, task_budget) and t_train > task_budget:
        r.violations.append(f"task_budget: {task_budget} tasks cannot cover "
                            f"t_train={t_train} training tasks")

    env = None
    dom = None
    if dim is not None and radius is not None:
        if center is None:
            center = np.zeros(dim)
        dom = ParamDomain(center=center, radius=radius)
    planted = r.vector("planted_center", dim,
                       default=None if dom is None else dom.center.copy())
    phi_init = r.vector("phi_init", dim,
                        default=None if dom is None else dom.center.copy())

    if dom is not None and None not in (similarity_v, m):
        try:
            env = EnvSpec(
                domain=dom, planted_center=planted, similarity_v=similarity_v,
                samples_per_task=m, loss_family=family, curvature=curvature,
                sample_noise_std=sample_noise_std, feature_norm=feature_norm,
                task_budget=task_budget,
            )
        except ValueError as exc:
            r.violations.append(str(exc))
    if dom is not None and phi_init is not None and not dom.contains(phi_init):
        r.violations.append("phi_init lies outside the domain")

    privacy = None
    if None not in (epsilon, delta) and delta < 1.0:
        try:
            privacy = PrivacyParams(epsilon=epsilon, delta=delta, group_size=group_size)
        except ValueError as exc:
            r.violations.append(str(exc))

    alpha_override = r.float_("growth_alpha", minimum=0.0, exclusive_min=True)
    g_override = r.float_("lipschitz_g", minimum=0.0, exclusive_min=True)
    beta_override = r.float_("smoothness_beta", minimum=0.0, exclusive_min=True)
    regularity = None
    if env is not None:
        try:
            if family == "quadratic":
                base = quadratic_regularity(curvature, dom)
            else:
                if alpha_override is None:
                    raise ValueError("growth_alpha is required for logistic tasks "
                                     "(no closed form)")
                base = logistic_regularity(feature_norm, alpha_override)
            regularity = RegularityProfile(
                lipschitz_g=g_override if g_override is not None else base.lipschitz_g,
                smoothness_beta=(beta_override if beta_override is not None
                                 else base.smoothness_beta),
                growth_alpha=(alpha_override if alpha_override is not None
                              else base.growth_alpha),
            )
        except ValueError as exc:
            r.violations.append(str(exc))

    if r.violations:
        raise ConfigError(r.violations)

    return ExperimentConfig(
        env=env, regularity=regularity, privacy=privacy,
        t_train=t_train, t_eval=t_eval, master_seed=master_seed,
        phi_init=phi_init, step_scale_variant=variant, visits_per_task=visits,
        baseline_no_meta=r.bool_("baseline_no_meta"),
        baseline_nonprivate_meta=r.bool_("baseline_nonprivate_meta"),
        mc_eval_samples=mc_eval, output_path=output_path,
        raw_items=tuple(sorted(items.items())),
    )
