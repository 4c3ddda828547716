"""Command line entry point.

    dpmeta calibrate --config cfg.txt
    dpmeta run      --config cfg.txt --out results.csv [--seed N]
    dpmeta sweep    --config cfg.txt --out results.csv --axis V --values 0,0.5,1

Exit codes: 0 success, 2 config validation failure, 3 I/O failure, 4 internal
invariant violation. The seed comes from --seed if given, else the DPMETA_SEED
environment variable, else the config's master_seed. An override replaces the
file's master_seed before the config is validated, so the file need not set
one; only the seed in use must lie in [0, 2^64).

`calibrate` imports only this module, config and calibration: no numpy,
and neither the standard dataclass module nor inspect. The run path's names
are looked up in harness at each use (__getattr__).
"""

from __future__ import annotations

import argparse
import os
import sys

from .calibration import InternalInvariantError, calibrate
from .config import SWEEP_AXES, ConfigError, load_config

# the names main takes from harness, looked up there at each use
_RUN_NAMES = ("run_experiment", "sweep", "write_csv", "write_calibration_sidecar")


def __getattr__(name):
    """A run-path name, looked up in harness at each use and never bound
    here, so that calibrate never imports harness or numpy and a patch of
    harness reaches main. An attribute set on this module, say by a caller
    that patched it, is found first and wins."""
    if name not in _RUN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness
    return getattr(harness, name)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmeta",
        description="Differentially private meta-initialization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")

    p_cal = sub.add_parser("calibrate", help="print the derived run constants")
    common(p_cal)

    p_run = sub.add_parser("run", help="train, evaluate, and write the CSV")
    common(p_run)
    p_run.add_argument("--out", default=None, help="output CSV path")

    p_sweep = sub.add_parser("sweep", help="run once per axis value")
    common(p_sweep)
    p_sweep.add_argument("--out", default=None, help="output CSV path")
    p_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES),
                         help="config axis to vary")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    return parser


def _load(args) -> "ExperimentConfig":
    seed = args.seed
    if seed is None and "DPMETA_SEED" in os.environ:
        try:
            seed = int(os.environ["DPMETA_SEED"])
        except ValueError:
            raise ConfigError([f"DPMETA_SEED must be an integer, got "
                               f"{os.environ['DPMETA_SEED']!r}"])
    if seed is None:
        return load_config(args.config)
    return load_config(args.config, master_seed=seed)


def _resolve_out(args, cfg) -> str:
    out = getattr(args, "out", None) or cfg.output_path
    if not out:
        raise ConfigError(["no output path: pass --out or set output_path"])
    return out


def _parse_values(raw: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError([f"--values must be comma-separated numbers, got {raw!r}"])
    if not values:
        raise ConfigError(["--values is empty"])
    return values


def _warn(cal, tag: str) -> None:
    """Flag on stderr a private plan that is unstable or does nothing; the
    run goes on and its exit code does not change."""
    if cal.step_times_beta > 2:
        print(f"warning: {tag}step_times_beta = {cal.step_times_beta:.3g} > 2: "
              "the private step is unstable", file=sys.stderr)
    if cal.training_is_noop:
        print(f"warning: {tag}training_is_noop: steps_n = 1, so private "
              "training returns its start", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "calibrate":
            cal = calibrate(cfg)
            for line in cal.lines():
                print(line)
            _warn(cal, "")
            return EXIT_OK

        out = _resolve_out(args, cfg)
        # looked up on the module at each call: a name set here wins, else
        # __getattr__ reads harness
        this = sys.modules[__name__]
        if args.command == "run":
            reports = [this.run_experiment(cfg)]
        else:
            reports = this.sweep(cfg, args.axis, _parse_values(args.values))
        this.write_csv(reports, out)
        this.write_calibration_sidecar(reports, out + ".calibration")
        for report in reports:
            tag = ("" if report.axis_value is None
                   else f"{args.axis}={report.axis_value:g} ")
            _warn(report.calibration, tag)
            for arm in report.arms.values():
                print(f"{tag}{arm.arm}: mean excess risk "
                      f"{arm.mean_excess:.6g} +/- {arm.stderr_excess:.2g}")
        print(f"wrote {out}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
