"""Spans around the calls a `dpmeta run` makes into each module.

The tracer wraps module-level names at the place where the caller looks them
up at call time (harness and meta import most helpers by name, cli imports
the config loader and the writers by name), so nothing in the package
changes. A name that no longer exists is reported as unmeasured instead of
failing the benchmark: later refactors are expected to rename or remove some
of these layers.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
import functools
import gzip
import importlib
import json
import time

ROOT = "run"

# (span name, module whose namespace resolves the call, attribute)
WRAPPED = (
    ("config.load", "dpmeta.cli", "load_config"),
    ("harness.calibrate", "dpmeta.harness", "calibrate"),
    ("meta.train", "dpmeta.harness", "run_meta_training"),
    ("meta.meta_step", "dpmeta.meta", "meta_step"),
    ("learners.ogd_run", "dpmeta.learners", "ogd_run"),
    ("learners.noisy_sgd_run", "dpmeta.learners", "noisy_sgd_run"),
    ("task_env.sample_task", "dpmeta.harness", "sample_task"),
    ("task_env.sample_task", "dpmeta.meta", "sample_task"),
    ("task_env.generate_losses", "dpmeta.harness", "generate_losses"),
    ("task_env.generate_losses", "dpmeta.meta", "generate_losses"),
    ("task_env.substream", "dpmeta.harness", "substream"),
    ("task_env.substream", "dpmeta.meta", "substream"),
    ("task_env.risk", "dpmeta.harness", "population_risk_gap"),
    ("task_env.risk", "dpmeta.meta", "population_risk_gap"),
    ("harness.write_csv", "dpmeta.cli", "write_csv"),
    ("harness.sidecar", "dpmeta.cli", "write_calibration_sidecar"),
)

# per-layer metric -> unit (BENCHMARK.json says which direction is better)
LAYER_METRICS = {
    "config.load_s": "s",
    "harness.calibrate_s": "s",
    "task_env.generate_losses_s": "s",
    "task_env.generate_losses_samples_per_s": "1/s",
    "task_env.sample_task_s": "s",
    "task_env.substream_s": "s",
    "task_env.substream_calls": "count",
    "task_env.risk_s": "s",
    "task_env.risk_calls": "count",
    "task_env.risk_mc_draws": "count",
    "learners.ogd_eval_s": "s",
    "learners.ogd_eval_steps": "count",
    "learners.ogd_eval_steps_per_s": "1/s",
    "learners.ogd_train_s": "s",
    "learners.ogd_train_steps": "count",
    "learners.noisy_sgd_s": "s",
    "learners.noisy_sgd_steps": "count",
    "learners.noisy_sgd_steps_per_s": "1/s",
    "meta.train_s": "s",
    "meta.train_self_s": "s",
    "meta.meta_step_s": "s",
    "meta.meta_step_calls": "count",
    "meta.useful_grad_ratio": "ratio",
    "harness.eval_self_s": "s",
    "harness.write_csv_s": "s",
    "harness.csv_bytes": "B",
    "harness.sidecar_s": "s",
    "trace.overhead_s": "s",
    "host.spin_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same repeat's span list, -1 for the root


def resolve_targets():
    """Split WRAPPED into the targets present in the package, the targets
    missing from it, and the span names none of whose targets exist."""
    present, missing = [], []
    for name, module_name, attr in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if module is not None and callable(getattr(module, attr, None)):
            present.append((name, module, attr))
        else:
            missing.append(f"{module_name}.{attr}")
    found = {name for name, _, _ in present}
    unmeasured = sorted({name for name, _, _ in WRAPPED} - found)
    return present, missing, unmeasured


class Tracer:
    """Keeps every span in memory, one list per traced repeat."""

    def __init__(self):
        self.repeats = {}  # repeat number -> [Span]
        self._spans = []
        self._stack = []

    def begin_repeat(self, repeat: int):
        self._spans = []
        self._stack = []
        self.repeats[repeat] = self._spans

    def wrap(self, name: str, fn):
        """fn, recording a span around every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            record = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(self._spans))
            self._spans.append(record)
            record.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                stack.pop()
        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each target with a traced wrapper; restore on exit."""
        saved = []
        try:
            for name, module, attr in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, workload: str):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for repeat, spans in self.repeats.items():
                for idx, s in enumerate(spans):
                    fh.write(json.dumps({
                        "id": idx, "name": s.name, "start": s.start,
                        "end": s.end, "parent": s.parent,
                        "workload": workload, "repeat": repeat}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[idx], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, samples_per_task: int, steps_n: int,
                  mc_draws_per_call: int, csv_bytes: int) -> tuple[dict, float]:
    """Per-layer totals for one traced run, and the sum of all self times
    (which must equal the root span's duration); spans[0] is the root.

    Step counts are derived from call counts: OGD takes one step per sample,
    noisy SGD takes steps_n. An ogd_run whose parent is the meta-training
    span is the non-private diagnostic pass; any other is eval adaptation.
    """
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s, self_s in zip(spans, selfs):
        name = s.name
        if name == "learners.ogd_run":
            parent = spans[s.parent].name if s.parent >= 0 else None
            name = ("learners.ogd_train" if parent == "meta.train"
                    else "learners.ogd_eval")
        total[name] += s.end - s.start
        own[name] += self_s
        calls[name] += 1
    ogd_train_steps = calls["learners.ogd_train"] * samples_per_task
    ogd_eval_steps = calls["learners.ogd_eval"] * samples_per_task
    sgd_steps = calls["learners.noisy_sgd_run"] * steps_n
    samples = calls["task_env.generate_losses"] * samples_per_task
    metrics = {
        "config.load_s": total["config.load"],
        "harness.calibrate_s": total["harness.calibrate"],
        "task_env.generate_losses_s": total["task_env.generate_losses"],
        "task_env.generate_losses_samples_per_s":
            _rate(samples, total["task_env.generate_losses"]),
        "task_env.sample_task_s": total["task_env.sample_task"],
        "task_env.substream_s": total["task_env.substream"],
        "task_env.substream_calls": calls["task_env.substream"],
        "task_env.risk_s": total["task_env.risk"],
        "task_env.risk_calls": calls["task_env.risk"],
        "task_env.risk_mc_draws": calls["task_env.risk"] * mc_draws_per_call,
        "learners.ogd_eval_s": total["learners.ogd_eval"],
        "learners.ogd_eval_steps": ogd_eval_steps,
        "learners.ogd_eval_steps_per_s":
            _rate(ogd_eval_steps, total["learners.ogd_eval"]),
        "learners.ogd_train_s": total["learners.ogd_train"],
        "learners.ogd_train_steps": ogd_train_steps,
        "learners.noisy_sgd_s": total["learners.noisy_sgd_run"],
        "learners.noisy_sgd_steps": sgd_steps,
        "learners.noisy_sgd_steps_per_s":
            _rate(sgd_steps, total["learners.noisy_sgd_run"]),
        "meta.train_s": total["meta.train"],
        "meta.train_self_s": own["meta.train"],
        "meta.meta_step_s": total["meta.meta_step"],
        "meta.meta_step_calls": calls["meta.meta_step"],
        "meta.useful_grad_ratio": _rate(sgd_steps, sgd_steps + ogd_train_steps),
        "harness.eval_self_s": own[ROOT],
        "harness.write_csv_s": total["harness.write_csv"],
        "harness.csv_bytes": csv_bytes,
        "harness.sidecar_s": total["harness.sidecar"],
    }
    return metrics, sum(selfs)
