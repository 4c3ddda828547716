"""Layered benchmark for `dpmeta run`.

Run from the root of a dpmeta checkout:

    python3 bench/run_bench.py --workload adapt_heavy --seed 101 --seconds 35 --trace 0

One op is one in-process `dpmeta.cli.main(["run", "--config", ..., "--out",
...])` call on the workload's generated config (workloads.py), and every op's
output is checked (checks.py). After one untimed warm-up op the run repeats
ops until --seconds have passed, and at least MIN_TIMED times.

--trace 0 reports the end-to-end metrics: run_s, the median wall time of an
op; setup_s, the median wall time of a fresh `python -m dpmeta.cli calibrate`
(interpreter start, import, config load, calibration), one start-up before
every op; and peak_rss_mb of this process. Both times are host-scaled: every
timed call sits between two runs of spin(), and its wall time is rescaled to
a host on which spin() takes SPIN_REFERENCE_S (NOTES.md says why). --trace 1
alternates plain and traced ops and reports the per-layer metrics of
tracing.py as medians over the traced ops, the tracing overhead and the host
spin time.

Standard output ends with one JSON line: correct, attempted (ops run),
failed (ops that raised, exited non-zero or failed a check) and metrics.
Spans of traced ops are written to bench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_TIMED = 6        # timed ops per run, however short --seconds is
HARD_STOP_S = 120.0  # stop adding ops past this, so a slow program still ends
SPIN_ROUNDS = 400_000
SPIN_REFERENCE_S = 0.025  # the median spin() time on the 2-CPU host of NOTES.md
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def spin() -> float:
    """Time a fixed pure-Python loop, so host drift can be told apart from a
    change in the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(SPIN_ROUNDS):
        acc += i & 7
    return time.perf_counter() - start


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed of the generated config "
                             "(default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    root = Path.cwd()
    src = root / "src"
    if not (src / "dpmeta" / "__init__.py").is_file():
        print(f"error: no src/dpmeta under {root}; run from the root of a "
              "dpmeta checkout", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy
    import dpmeta
    from dpmeta import cli, config, harness
    if not Path(dpmeta.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported dpmeta from {dpmeta.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import checks
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    cfg_path = OUT_DIR / f"{stem}.cfg"
    csv_path = OUT_DIR / f"{stem}.csv"
    cfg_path.write_text(workload.config_text(seed), encoding="utf-8")
    cfg = config.load_config(str(cfg_path))
    steps_n = harness.calibrate(cfg).steps_n
    samples_per_task = cfg.env.samples_per_task
    mc_draws_per_call = cfg.mc_eval_samples if workload.logistic else 0

    print(f"workload {workload.name} seed {seed}: {workload.why}")
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, src/ lines {_src_lines(src)}, "
          + ", ".join(f"{v}=1" for v in THREAD_VARS))

    # keep each op's report so its output can be checked against it
    reports = []
    run_experiment = cli.run_experiment

    def capture(*a, **kw):
        report = run_experiment(*a, **kw)
        reports.append(report)
        return report
    cli.run_experiment = capture

    targets, missing, unmeasured = tracing.resolve_targets()
    tracer = tracing.Tracer()
    digests = []
    setup_env = dict(os.environ, PYTHONPATH=str(src))
    setup_problems = []

    def time_setup() -> float:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dpmeta.cli", "calibrate",
                 "--config", str(cfg_path)],
                cwd=root, env=setup_env, capture_output=True, text=True,
                timeout=60)
        except subprocess.TimeoutExpired:
            setup_problems.append("calibrate start-up timed out")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if (proc.returncode != 0
                or f"steps_n = {steps_n}" not in proc.stdout.splitlines()):
            setup_problems.append(f"calibrate exited {proc.returncode}: "
                                  f"{proc.stdout[-300:]}{proc.stderr[-300:]}")
        return elapsed

    def op(traced: bool):
        reports.clear()
        argv = ["run", "--config", str(cfg_path), "--out", str(csv_path)]
        main = tracer.wrap(tracing.ROOT, cli.main) if traced else cli.main
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed(targets))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(out))
            start = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = traceback.format_exc()
            elapsed = time.perf_counter() - start
        if rc != 0:
            return elapsed, [f"exit {rc!r}: {out.getvalue()[-500:]}"]
        if len(reports) != 1:
            return elapsed, [f"{len(reports)} reports captured, expected 1"]
        try:
            problems = checks.check_op(reports[0], str(csv_path), workload, seed)
            digests.append(checks.csv_digest(str(csv_path)))
        except Exception:
            problems = [traceback.format_exc()]
        if digests and digests[-1] != digests[0]:
            problems.append("CSV differs from the first op of this run")
        return elapsed, problems

    spins = []  # host probe before every timed call, and once at the end

    def scaled(seconds: float, probe: int) -> float:
        """Rescale a wall time to a host on which spin() takes SPIN_REFERENCE_S,
        using the probes just before and just after the timed call."""
        return seconds * SPIN_REFERENCE_S / ((spins[probe] + spins[probe + 1]) / 2)

    def run_scaled(r) -> float:
        return scaled(r["run_s"], r["probe"])

    def iteration(repeat: int, traced: bool) -> dict:
        rec = {"repeat": repeat, "traced": traced}
        if args.trace == 0:
            rec["setup_probe"] = len(spins)
            spins.append(spin())
            rec["setup_s"] = time_setup()
        rec["probe"] = len(spins)
        spins.append(spin())
        if traced:
            tracer.begin_repeat(repeat)
        rec["run_s"], rec["problems"] = op(traced)
        if traced:
            rec["csv_bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
        return rec

    began = time.perf_counter()
    records = [iteration(0, traced=False)]  # warm-up, checked but not timed
    deadline = time.perf_counter() + args.seconds
    while True:
        repeat = len(records)
        records.append(iteration(repeat, traced=args.trace == 1 and repeat % 2 == 0))
        now = time.perf_counter()
        if now - began > HARD_STOP_S or (now >= deadline and repeat >= MIN_TIMED):
            break
    spins.append(spin())
    cli.run_experiment = run_experiment

    print("repeat traced   spin_s   setup_s     run_s  run_scaled_s  ok")
    for r in records:
        setup = f"{r['setup_s']:9.4f}" if "setup_s" in r else " " * 9
        print(f"{r['repeat']:6d} {int(r['traced']):6d} {spins[r['probe']]:8.4f} "
              f"{setup} {r['run_s']:9.4f} {run_scaled(r):13.4f}"
              f"  {'no' if r['problems'] else 'yes'}")
    for r in records:
        for problem in r["problems"]:
            print(f"repeat {r['repeat']} failed: {problem}")
    for problem in setup_problems:
        print(f"set-up failed: {problem}")

    failed = sum(1 for r in records if r["problems"])
    correct = failed == 0 and not setup_problems
    for name, arm in (reports[0].arms.items() if reports else ()):
        print(f"arm {name}: mean_excess {arm.mean_excess!r} "
              f"stderr_excess {arm.stderr_excess!r}")

    def timed(traced: bool) -> list:
        """The timed ops of one kind that passed; all of them if none did
        (the run then reports correct false)."""
        ops = [r for r in records[1:] if r["traced"] == traced]
        return [r for r in ops if not r["problems"]] or ops

    if args.trace == 0:
        print("unscaled wall medians: run_s "
              f"{statistics.median(r['run_s'] for r in timed(False)):.6g} s, "
              f"setup_s {statistics.median(r['setup_s'] for r in records[1:]):.6g} s")
        values = {
            "run_s": statistics.median(map(run_scaled, timed(False))),
            "setup_s": statistics.median(scaled(r["setup_s"], r["setup_probe"])
                                         for r in records[1:]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        per_op = []
        for r in timed(True):
            spans = tracer.repeats[r["repeat"]]
            layers, self_sum = tracing.layer_metrics(
                spans, samples_per_task, steps_n, mc_draws_per_call,
                r["csv_bytes"])
            run_span = spans[0].end - spans[0].start
            if abs(self_sum - run_span) > 1e-6:
                correct = False
                print(f"repeat {r['repeat']}: self times sum to {self_sum!r}, "
                      f"run span is {run_span!r}")
            per_op.append(layers)
        # median_low keeps counts whole
        values = {name: statistics.median_low(layers[name] for layers in per_op)
                  for name in per_op[0]}
        # each traced op against the plain op just before it
        values["trace.overhead_s"] = statistics.median(
            run_scaled(r) - run_scaled(records[r["repeat"] - 1])
            for r in timed(True))
        values["host.spin_s"] = statistics.median(spins)
        units = tracing.LAYER_METRICS
        spans_path = OUT_DIR / f"spans-{stem}.jsonl.gz"
        tracer.write(spans_path, workload.name)
        print(f"spans written to {spans_path}")
        if unmeasured:
            print("unmeasured layers (reported as 0): " + ", ".join(unmeasured))
        if missing:
            print("names not found: " + ", ".join(missing))

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
