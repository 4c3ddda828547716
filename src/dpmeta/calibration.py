"""The closed forms of a run, in Python floats: no numpy.

Everything a run commits to before it touches data is arithmetic on a few
floats: the privacy target and the noisy-SGD plan it buys (step budget n,
noise variance sigma^2), the regularity constants of each loss family and
the smoothness ceiling, the step scales gamma and eta, and the calibration
record with its overflow checks. All of it lives here, with what config
and the run path share: Record, the one record base; Ball, the one ball
domain, and Environment, the one task distribution, both of Python floats.
So `dpmeta calibrate` loads cli, config and this module: no numpy, and
neither the standard dataclass module nor inspect. Natural logarithms.
"""

from __future__ import annotations

import math

LOSS_FAMILIES = ("quadratic", "logistic")
STEP_SCALE_VARIANTS = ("sqrt_m", "g_sqrt_m")

# ball membership holds up to this relative tolerance of the radius
GEOM_RTOL = 1e-12


class ConfigError(ValueError):
    """Raised with the full list of config violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


class InternalInvariantError(RuntimeError):
    """A result violated an invariant the harness promises to uphold."""


def format_value(value) -> str:
    """The one value-to-text rule, for settings, CSV cells and the sidecar:
    None is empty, bools are true/false, floats take 17 significant digits,
    so every float round-trips exactly, and ints and strings are str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _square(x: float) -> float:
    """x**2, or inf where the Python float square overflows (x**2 raises
    OverflowError there; geometry's clip bound that large binds no row)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _finite(name: str, value, strict: bool = True):
    """value; ValueError unless it is finite and > 0 (>= 0 if not strict)."""
    if not math.isfinite(value) or (value <= 0 if strict else value < 0):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {value}")
    return value


def _count(name: str, value, least: int = 1) -> int:
    """value as an int; ValueError unless it is an integer >= least (NaN and
    infinity too). An int is never made a float, so one of any size passes."""
    try:
        ok = int(value) == value and value >= least
    except (OverflowError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


class Record:
    """The one frozen value class. Its fields are the annotated names, the
    bases' first (a re-declared field keeps its place), taken positionally or
    by keyword, with defaults from class attributes; then __post_init__ runs,
    and may set values with object.__setattr__. Records compare and hash
    by identity, as object does. Unlike a dataclass, it generates no code."""

    fields, _defaults = (), {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields += tuple(n for n in cls.__annotations__ if n not in cls.fields)
        cls._defaults = {n: getattr(cls, n) for n in cls.fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        name, fields, values = type(self).__name__, self.fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key in values or key not in fields:
                raise TypeError(f"{name}() got a repeated or unknown argument {key!r}")
            values[key] = value
        if len(values) < len(fields):
            for key in fields:
                if key not in values:
                    if key not in self._defaults:
                        raise TypeError(f"{name}() is missing argument {key!r}")
                    values[key] = self._defaults[key]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, key, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {key!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        items = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.fields)
        return f"{type(self).__qualname__}({items})"

    def replace(self, **changes):
        """A copy with changes, built through __init__: its checks run again."""
        return type(self)(**{n: getattr(self, n) for n in self.fields} | changes)


# ---- the domain and the task environment's scalars

def _listed(x):
    """x, or an array's or numpy scalar's tolist()."""
    return x.tolist() if hasattr(x, "tolist") else x


def _point(v, name: str) -> tuple:
    """The 1-D vector v, numbers or an array, as a tuple of Python floats."""
    try:
        return tuple(map(float, _listed(v)))
    except TypeError:
        raise ValueError(f"{name} must be a 1-D vector of numbers, got {v!r}") from None


def ball_reach(center, radius) -> float:
    """How far from center a point of the ball {x : ||x - center|| <=
    radius} may lie: GEOM_RTOL of the radius, plus how far rounding can
    carry center + offset outside, an ulp of the largest center coordinate
    per coordinate, however small the radius. Radius 0 allows no rounding,
    so that ball stays the singleton {center}. ValueError for a radius that
    is not finite and >= 0."""
    _finite("radius", radius, strict=False)
    slack = 1e-300
    if radius > 0.0:
        slack += 4.0 * math.sqrt(len(center)) * math.ulp(max(map(abs, center)))
    return float(radius) * (1 + GEOM_RTOL) + slack


class Ball(Record):
    """A closed Euclidean ball {x : ||x - center|| <= radius}, the one domain
    of config and the run path: its center is a finite tuple of Python floats
    (an array is read through tolist()), and radius 0 the singleton {center}."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = _point(self.center, "center")
        if not center or not all(map(math.isfinite, center)):
            raise ValueError(f"center must be finite, of dimension >= 1, got {center}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_reach", ball_reach(center, self.radius))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "_radius_sq", _square(self.radius))

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, v) -> bool:
        """True when v, a point or a batch shaped (..., dim) (an array, read
        through tolist(), or nested sequences), lies in the ball up to its
        reach, every row of it. Every row is checked: a ragged batch, a row
        not of dimension dim, and a non-finite row or one whose squared
        offset overflows raise ValueError wherever they lie."""
        rows, nsqs = [_listed(v)], []
        try:
            while isinstance(_listed(rows[0][0]), (list, tuple)):
                rows = [_listed(row) for batch in rows for row in batch]
            for row in rows:
                nsqs.append(0.0)
                for c, x in zip(self.center, row, strict=True):
                    nsqs[-1] += (c - x) * (c - x)
        except (TypeError, IndexError, ValueError):
            # an empty array keeps the dimension of its rows in its shape only
            if getattr(v, "size", None) == 0 and v.shape[-1] == self.dim:
                return True
            raise ValueError(f"expected vectors of dimension {self.dim}, got {v!r}") from None
        if not all(map(math.isfinite, nsqs)):
            raise ValueError("vector has non-finite coordinates or a squared norm "
                             "that overflows")
        return all([math.sqrt(nsq) <= self._reach for nsq in nsqs])


class Environment(Record):
    """A task distribution on a Ball, with a planted center held as a tuple
    of Python floats: task minimizers are the center plus N(0, (V^2/d) I)
    offsets, V = similarity_v, projected onto the domain, and
    sample_noise_std scatters quadratic anchors around each. The checks
    raise ValueError naming the first violation."""

    domain: Ball
    planted_center: tuple
    similarity_v: float
    samples_per_task: int
    loss_family: str = "quadratic"
    curvature: float = 1.0
    sample_noise_std: float = 0.0
    feature_norm: float = 1.0

    def __post_init__(self):
        dom, v, m = self.domain, self.similarity_v, self.samples_per_task
        center = _point(self.planted_center, "planted_center")
        if not dom.contains(center):
            raise ValueError("planted_center lies outside the domain")
        if _finite("similarity_v", v, strict=False) > dom.radius:
            raise ValueError(f"similarity_v={v} exceeds the domain radius {dom.radius}; "
                             "the dispersion would be mostly projection")
        m = _count("samples_per_task", m)
        if self.loss_family not in LOSS_FAMILIES:
            raise ValueError(
                f"loss_family must be one of {LOSS_FAMILIES}, got {self.loss_family!r}")
        _finite("curvature", self.curvature)
        _finite("sample_noise_std", self.sample_noise_std, strict=False)
        _finite("feature_norm", self.feature_norm)
        object.__setattr__(self, "planted_center", center)
        object.__setattr__(self, "samples_per_task", m)

    @property
    def dim(self) -> int:
        return self.domain.dim


# ---- privacy: the task-global Gaussian mechanism

class PrivacyParams(Record):
    """(epsilon, delta) target, with an optional group size for group privacy."""

    epsilon: float
    delta: float
    group_size: int = 1

    def __post_init__(self):
        _finite("epsilon", self.epsilon)
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        object.__setattr__(self, "group_size", _count("group_size", self.group_size))


class NoisySgdPlan(Record):
    """Everything the private learner needs for one task.

    steps_n noisy steps of size step_size, per-coordinate Gaussian noise of
    variance noise_variance_sigma_sq added to each clipped gradient, gradients
    clipped to clip_bound. noise_variance_sigma_sq == 0 is the exact
    degeneration to plain projected SGD.
    """

    steps_n: int
    step_size: float
    noise_variance_sigma_sq: float
    clip_bound: float

    def __post_init__(self):
        object.__setattr__(self, "steps_n", _count("steps_n", self.steps_n))
        _finite("step_size", self.step_size)
        _finite("noise_variance_sigma_sq", self.noise_variance_sigma_sq, strict=False)
        _finite("clip_bound", self.clip_bound)


def step_budget(m: int, privacy: PrivacyParams, dim: int) -> int:
    """Steps the private learner may take on m samples at (epsilon, delta).

    n = max(1, floor(min(m/8, eps^2 m^2 / (32 d ln(1/delta))))). The first
    branch caps gradient reuse, the second is the Gaussian-mechanism budget.
    """
    _count("m", m)
    _count("dim", dim)
    sample_cap = m / 8.0
    privacy_cap = (privacy.epsilon**2 * m**2) / (32.0 * dim * math.log(1.0 / privacy.delta))
    return max(1, math.floor(min(sample_cap, privacy_cap)))


def noise_variance(steps_n: int, m: int, clip_bound: float,
                   privacy: PrivacyParams) -> float:
    """Per-coordinate Gaussian variance making steps_n clipped steps
    (epsilon, delta)-private at the task level.

    sigma^2 = 8 n G^2 ln(1/delta) / (m^2 eps^2). clip_bound == 0 is allowed
    and gives 0 (nothing to hide).
    """
    _count("steps_n", steps_n)
    _count("m", m)
    _finite("clip_bound", clip_bound, strict=False)
    return (8.0 * steps_n * clip_bound**2 * math.log(1.0 / privacy.delta)) / (
        m**2 * privacy.epsilon**2)


def make_plan(m: int, privacy: PrivacyParams, dim: int, clip_bound: float,
              step_scale: float) -> NoisySgdPlan:
    """Assemble the calibrated plan: n from the step budget, sigma^2 from the
    noise formula, step size step_scale / (G sqrt(n))."""
    _finite("clip_bound", clip_bound)
    _finite("step_scale", step_scale)
    n = step_budget(m, privacy, dim)
    sigma_sq = noise_variance(n, m, clip_bound, privacy)
    return NoisySgdPlan(
        steps_n=n,
        step_size=step_scale / (clip_bound * math.sqrt(n)),
        noise_variance_sigma_sq=sigma_sq,
        clip_bound=clip_bound,
    )


# ---- regularity constants of the loss families

class RegularityProfile(Record):
    """Analytic constants for a loss family over a fixed domain.

    lipschitz_g bounds the gradient norm over the domain, smoothness_beta the
    gradient's Lipschitz modulus, and growth_alpha the quadratic growth of the
    population risk around its minimizer.
    """

    lipschitz_g: float
    smoothness_beta: float
    growth_alpha: float

    def __post_init__(self):
        for name in ("lipschitz_g", "smoothness_beta", "growth_alpha"):
            _finite(name, getattr(self, name))


def quadratic_regularity(curvature: float, dom) -> RegularityProfile:
    """Constants for curvature-c quadratics with anchors inside the domain
    dom, a Ball.

    Worst-case gradient norm over the ball is c * diameter (parameter at one
    end, anchor at the other); smoothness and growth both equal c.
    """
    _finite("curvature", curvature)
    if dom.diameter <= 0:
        raise ValueError("gradient bound degenerates on a zero-radius domain")
    return RegularityProfile(
        lipschitz_g=curvature * dom.diameter,
        smoothness_beta=curvature,
        growth_alpha=curvature,
    )


def logistic_regularity(feature_norm: float, growth_alpha: float) -> RegularityProfile:
    """Constants for logistic losses with features on a sphere of given norm.

    Gradient norm is at most the feature norm, smoothness at most norm^2 / 4.
    Quadratic growth has no clean closed form here, so the caller supplies it.
    """
    _finite("feature_norm", feature_norm)
    return RegularityProfile(
        lipschitz_g=feature_norm,
        smoothness_beta=0.25 * _square(feature_norm),
        growth_alpha=growth_alpha,
    )


def certify_smoothness(profile: RegularityProfile, dom, m: int,
                       privacy: PrivacyParams, n: int) -> bool:
    """Check the smoothness ceiling under which the private learner's clipping
    is guaranteed inactive at gradient scale G.

    The ceiling is (G/D) * min(sqrt(m/2), eps*n / (2*sqrt(2*d*ln(1/delta)))),
    with D the domain diameter and d its dimension. Boundary is inclusive.
    """
    if dom.diameter <= 0:
        raise ValueError("smoothness certificate needs a positive-diameter domain")
    _count("m", m)
    _count("n", n)
    bound = smoothness_ceiling(profile.lipschitz_g, dom, m, privacy, n)
    return profile.smoothness_beta <= bound


def smoothness_ceiling(lipschitz_g: float, dom, m: int, privacy: PrivacyParams,
                       n: int) -> float:
    d = dom.dim
    private_term = privacy.epsilon * n / (2.0 * math.sqrt(2.0 * d * math.log(1.0 / privacy.delta)))
    return (lipschitz_g / dom.diameter) * min(math.sqrt(m / 2.0), private_term)


# ---- step scales

def private_step_scale(lipschitz_g: float, growth_alpha: float, dim: int, m: int,
                       privacy: PrivacyParams, variant: str = "sqrt_m") -> float:
    """Step-size scale for the private learner; the plan's step size is this
    divided by G sqrt(n).

    scale = (120 G / alpha) * max(sqrt(d ln(1/delta)) / (eps m), B) where the
    second branch B is 1/sqrt(m) under the default "sqrt_m" variant and
    1/(G sqrt(m)) under "g_sqrt_m". The scale balances distance-to-optimum
    against noise, so it is deliberately independent of any one task.
    """
    _finite("lipschitz_g", lipschitz_g)
    _finite("growth_alpha", growth_alpha)
    _count("dim", dim)
    _count("m", m)
    if variant not in STEP_SCALE_VARIANTS:
        raise ValueError(f"variant must be one of {STEP_SCALE_VARIANTS}, got {variant!r}")
    private_branch = math.sqrt(dim * math.log(1.0 / privacy.delta)) / (privacy.epsilon * m)
    if variant == "sqrt_m":
        stat_branch = 1.0 / math.sqrt(m)
    else:
        stat_branch = 1.0 / (lipschitz_g * math.sqrt(m))
    return (120.0 * lipschitz_g / growth_alpha) * max(private_branch, stat_branch)


def adaptation_step_size(similarity_v: float, growth_alpha: float,
                         lipschitz_g: float, m: int) -> float:
    """OGD step size for adapting a meta-initialization to a fresh task:
    (V + 1/(alpha sqrt(m))) / (G sqrt(m)).

    Grows with the task dispersion V, so dissimilar environments take larger
    steps and similar ones lean on the initialization.
    """
    _finite("similarity_v", similarity_v, strict=False)
    _finite("growth_alpha", growth_alpha)
    _finite("lipschitz_g", lipschitz_g)
    _count("m", m)
    root_m = math.sqrt(m)
    return (similarity_v + 1.0 / (growth_alpha * root_m)) / (lipschitz_g * root_m)


# ---- the calibration record

class CalibrationRecord(Record):
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
    lipschitz_g: float
    growth_alpha: float
    smoothness_beta: float
    smoothness_ceiling: float
    smoothness_ok: bool
    step_times_beta: float
    training_is_noop: bool
    step_scale_variant: str

    def lines(self) -> list[str]:
        """The record as `name = value` lines in field order, each value
        written by format_value: what `dpmeta calibrate` prints and the
        sidecar echoes."""
        return [f"{n} = {format_value(getattr(self, n))}" for n in self.fields]

    @property
    def plan(self) -> NoisySgdPlan:
        """The noisy-SGD plan these constants commit the private learner to."""
        return NoisySgdPlan(steps_n=self.steps_n, step_size=self.sgd_step_size,
                            noise_variance_sigma_sq=self.sigma_sq,
                            clip_bound=self.lipschitz_g)


def _closed_form(name: str, formula, *args):
    """formula(*args), the run constant called name; a ConfigError naming it
    where a legal config's extreme inputs make it overflow, divide by zero or
    come out non-finite, or leave a plan no step size."""
    try:
        value = formula(*args)
    except (ArithmeticError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError([f"{name}: its closed form is not finite at this config "
                           "(an input is too large or too small)"])
    return value


def _check_step_reach(cfg, G, sigma_sq, step_size, eta):
    """A ConfigError naming each vector whose worst case has a squared norm
    that overflows, which would stop the run mid-step: the gradient a
    private step clips, how far a step can carry an iterate from the domain
    center, the difference of two points of the ball (each up to its reach
    from the center, the radius plus the center's rounding slack), and for
    quadratic tasks how far a drawn anchor lies from the center before its
    projection. The worst gradient over the ball is the family's (c*D
    quadratic, F logistic), whatever lipschitz_g says; Gaussian noise of
    standard deviation s per coordinate, a private step's or an anchor's, is
    taken to be at most s * (sqrt(d) + 40) in norm, 40 standard deviations
    past its typical size."""
    env = cfg.env
    dom, quadratic = env.domain, env.loss_family == "quadratic"
    grad_bound = env.curvature * dom.diameter if quadratic else env.feature_norm
    sigmas = math.sqrt(dom.dim) + 40.0
    noise = math.sqrt(sigma_sq) * sigmas
    reach = {"private step (sgd_step_size)":
             max(grad_bound, dom.radius + step_size * (G + noise)),
             "adaptation step (eta)": dom.radius + eta * grad_bound,
             "domain (domain_radius, domain_center)": 2.0 * dom._reach}
    if quadratic:
        reach["anchor (sample_noise_std)"] = dom.radius + env.sample_noise_std * sigmas
    too_far = [f"{what}: a vector the run squares can reach norm {value:.3g}, whose "
               "square overflows" for what, value in reach.items()
               if _square(value) == math.inf]
    if too_far:
        raise ConfigError(too_far)


def calibrate(cfg) -> CalibrationRecord:
    """Derive all run constants from a config.ExperimentConfig, without
    touching data; only the config's numpy-free fields are read."""
    env, reg, priv = cfg.env, cfg.regularity, cfg.privacy
    dom, m, G = env.domain, env.samples_per_task, reg.lipschitz_g
    step_scale = _closed_form("step_scale", private_step_scale, G, reg.growth_alpha,
                              dom.dim, m, priv, cfg.step_scale_variant)
    # make_plan assembles the plan from these; each is checked on its own
    # first, so that a failure names its constant
    steps_n = _closed_form("steps_n", step_budget, m, priv, dom.dim)
    sigma_sq = _closed_form("sigma_sq", noise_variance, steps_n, m, G, priv)
    step_size = _closed_form("sgd_step_size", lambda: make_plan(
        m, priv, dom.dim, G, step_scale).step_size)
    eta = _closed_form("eta", adaptation_step_size, env.similarity_v,
                       reg.growth_alpha, G, m)
    ceiling = _closed_form("smoothness_ceiling", smoothness_ceiling, G, dom,
                           m, priv, steps_n)
    _check_step_reach(cfg, G, sigma_sq, step_size, eta)
    return CalibrationRecord(
        samples_per_task=m,
        dim=dom.dim,
        steps_n=steps_n,
        sigma_sq=sigma_sq,
        step_scale=step_scale,
        sgd_step_size=step_size,
        eta=eta,
        epsilon=priv.epsilon,
        delta=priv.delta,
        lipschitz_g=G,
        growth_alpha=reg.growth_alpha,
        smoothness_beta=reg.smoothness_beta,
        smoothness_ceiling=ceiling,
        smoothness_ok=reg.smoothness_beta <= ceiling,
        # gradient steps on a beta-smooth loss are non-expansive only up to 2
        step_times_beta=_closed_form("step_times_beta",
                                     lambda: step_size * reg.smoothness_beta),
        # the average of theta_1 alone is the start: training changes nothing
        training_is_noop=steps_n == 1,
        step_scale_variant=cfg.step_scale_variant,
    )
