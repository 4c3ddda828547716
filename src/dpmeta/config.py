"""Flat ``key = value`` experiment configs.

One setting per line, blank lines ignored; a ``#`` at a line's start or after
whitespace starts a comment (as in configparser), so a value may hold ``#``.
Vector-valued keys take comma-separated floats, held as tuples. Validation
is collective: a bad config reports every violation at once, not just the
first. ``KEYS`` is the one place a key is declared: its reader, bounds and
default. Nothing here imports numpy: a config, its calibration.Environment
(on a calibration.Ball) and its calibration are Python values, and the run
path reads that environment as it is.
"""

from __future__ import annotations

import math
import re

from .calibration import (LOSS_FAMILIES, STEP_SCALE_VARIANTS, Ball,
                          ConfigError, Environment, PrivacyParams, Record,
                          RegularityProfile, format_value, logistic_regularity,
                          quadratic_regularity)

# sweep axis -> the config key it varies
SWEEP_AXES = {
    "V": "similarity_v",
    "m": "samples_per_task",
    "T_train": "t_train",
    "epsilon": "epsilon",
}


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


# Readers turn one raw value into a typed one, or raise ValueError saying
# why; build_config prefixes the key.

def _scalar(kind, lo, strict=False, below=None):
    """Reads an int or a finite float v with v >= lo (v > lo when strict)
    and v < below."""
    expected = "an integer" if kind is int else "a number"

    def read(raw):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(f"expected {expected}, got {raw!r}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        if value <= lo if strict else value < lo:
            raise ValueError(f"must be {'>' if strict else '>='} {lo}, got {value}")
        if below is not None and value >= below:
            raise ValueError(f"must be < {below}, got {value}")
        return value
    return read


def _boolean(raw):
    if raw.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected true/false, got {raw!r}")
    return _BOOL_WORDS[raw.lower()]


def _one_of(choices):
    def read(raw):
        if raw not in choices:
            raise ValueError(f"must be one of {sorted(choices)}, got {raw!r}")
        return raw
    return read


def _vector(raw):
    """Comma-separated floats, as a tuple; build_config checks their count
    and finiteness once dim is known."""
    try:
        return tuple(float(p) for p in raw.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {raw!r}") from None


_COUNT = _scalar(int, 1)
_NONNEGATIVE = _scalar(float, 0.0)
_POSITIVE = _scalar(float, 0.0, strict=True)
REQUIRED = object()

# key -> (reader, default). A None default stands for: the origin for
# domain_center, the domain center for phi_init and planted_center, the
# derived constant for a regularity override, and no default --out for
# output_path. Every key but output_path changes a run's CSV; the smoothness
# constant is always derived.
KEYS = {
    "dim": (_COUNT, REQUIRED),
    "domain_radius": (_POSITIVE, REQUIRED),
    "domain_center": (_vector, None),
    "similarity_v": (_NONNEGATIVE, REQUIRED),
    "samples_per_task": (_COUNT, REQUIRED),
    "loss_family": (_one_of(LOSS_FAMILIES), "quadratic"),
    "curvature": (_POSITIVE, 1.0),
    "sample_noise_std": (_NONNEGATIVE, 0.0),
    "feature_norm": (_POSITIVE, 1.0),
    "t_train": (_COUNT, REQUIRED),
    "t_eval": (_COUNT, 500),
    "epsilon": (_POSITIVE, REQUIRED),
    "delta": (_scalar(float, 0.0, strict=True, below=1), REQUIRED),
    "lipschitz_g": (_POSITIVE, None),
    "growth_alpha": (_POSITIVE, None),
    "step_scale_variant": (_one_of(STEP_SCALE_VARIANTS), "sqrt_m"),
    "master_seed": (_scalar(int, 0, below=1 << 64), REQUIRED),
    "phi_init": (_vector, None),
    "planted_center": (_vector, None),
    "baseline_no_meta": (_boolean, False),
    "baseline_nonprivate_meta": (_boolean, False),
    "mc_eval_samples": (_scalar(int, 2), 2000),
    "output_path": (str, None),
}


class ExperimentConfig(Record):
    """A validated experiment, built by build_config: the task environment
    env, which calibrate and the run path read alike, the budgets and the
    learner constants, all Python values."""

    env: Environment
    regularity: RegularityProfile
    privacy: PrivacyParams
    t_train: int
    t_eval: int
    master_seed: int
    phi_init: tuple
    step_scale_variant: str
    baseline_no_meta: bool
    baseline_nonprivate_meta: bool
    mc_eval_samples: int
    output_path: str | None
    raw_items: tuple


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines into a string-to-string dict."""
    violations = []
    items = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw_line, maxsplit=1)[0].strip()
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


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Read a config file, apply overrides, and validate once.

    Each override (key=value) replaces or adds that key's setting, written
    with format_value, before build_config judges the settings; so a
    replaced value is never read and an override may supply a key the file
    omits. Raises ConfigError with every violation, or OSError when the file
    cannot be read.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text (byte offset {exc.start})"]) from None
    items = parse_config_text(text)
    items.update({key: format_value(value) for key, value in overrides.items()})
    return build_config(items)


def build_config(items: dict) -> ExperimentConfig:
    """Validate parsed settings and assemble an ExperimentConfig.

    Every present key is read before any cross-key check; a malformed value
    is reported and replaced by its default so the later checks still run.
    Raises ConfigError carrying every violation found.
    """
    violations = [f"unknown key {key!r}" for key in sorted(items.keys() - KEYS)]
    v = {}
    for key, (read, default) in KEYS.items():
        v[key] = None if default is REQUIRED else default
        if key in items:
            try:
                v[key] = read(items[key])
            except ValueError as exc:
                violations.append(f"{key}: {exc}")
        elif default is REQUIRED:
            violations.append(f"missing required key {key!r}")

    dim, radius, family = v["dim"], v["domain_radius"], v["loss_family"]
    for key in [k for k, (read, _) in KEYS.items() if read is _vector]:
        vec = v[key]
        if vec is None:
            continue
        if dim is not None and len(vec) != dim:
            violations.append(f"{key}: expected {dim} coordinates, got {len(vec)}")
            v[key] = None
        elif not all(map(math.isfinite, vec)):
            violations.append(f"{key}: coordinates must be finite")
            v[key] = None

    dom = environment = None
    if None not in (dim, radius):
        center = v["domain_center"]
        dom = Ball((0.0,) * dim if center is None else center, radius)
        if v["phi_init"] is None:
            v["phi_init"] = dom.center
        try:
            if not dom.contains(v["phi_init"]):
                violations.append("phi_init lies outside the domain")
        except ValueError as exc:
            violations.append(f"phi_init: {exc}")
    if dom is not None and None not in (v["similarity_v"], v["samples_per_task"]):
        if v["planted_center"] is None:
            v["planted_center"] = dom.center
        try:
            environment = Environment(domain=dom, **{
                n: v[n] for n in Environment.fields if n in KEYS})
        except ValueError as exc:
            violations.append(str(exc))

    privacy = None
    if None not in (v["epsilon"], v["delta"]):
        try:
            privacy = PrivacyParams(epsilon=v["epsilon"], delta=v["delta"])
        except ValueError as exc:
            violations.append(str(exc))

    regularity = None
    if environment is not None:
        overrides = {name: v[name] for name in ("lipschitz_g", "growth_alpha")
                     if v[name] is not None}
        try:
            if family == "quadratic":
                base = quadratic_regularity(v["curvature"], dom)
            elif "growth_alpha" not in overrides:
                raise ValueError("growth_alpha is required for logistic tasks "
                                 "(no closed form)")
            else:
                base = logistic_regularity(v["feature_norm"], v["growth_alpha"])
            regularity = base.replace(**overrides)
        except ValueError as exc:
            violations.append(str(exc))

    if violations:
        raise ConfigError(violations)

    # every field named after a key takes that key's value
    return ExperimentConfig(
        env=environment, regularity=regularity, privacy=privacy,
        raw_items=tuple(sorted(items.items())),
        **{n: v[n] for n in ExperimentConfig.fields if n in KEYS})
