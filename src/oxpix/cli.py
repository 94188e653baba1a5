"""Command-line front end.

Subcommands::

    oxpix simulate  --config F --iexp 1nA --out trace.csv
    oxpix sweep     --config F --out table.csv
    oxpix report    --config F --out report.json [--recalibrate]
    oxpix calibrate --config F --out params.json

Exit codes: 0 success, 1 validation or usage error, 2 solver or
calibration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from .calibration import FIT_METHOD, CalibrationResult, calibrate
from .config import RunSetup, parse_config, parse_quantity
from .devices import MosfetParams, OxRamParams
from .errors import ConfigError, InvalidInputError, OxpixError
from .experiments import SweepSpec, run_sweep, summarize_sweep, table1_report
from .pixel import Stimulus
from .solver import integrate
from .tracefile import (write_json, write_report_json, write_sweep_csv,
                        write_trace_csv)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying the CLI message (mapped to exit code 1)."""


def _load_setup(path: str | None) -> RunSetup:
    if path is None:
        return parse_config("")
    return parse_config(path, is_path=True)


def _fit_inputs(setup: RunSetup) -> dict:
    """Keyword arguments of ``calibrate`` for this setup."""
    return {"anchors": setup.anchors,
            "initial_oxram": setup.pixel.oxram or OxRamParams(),
            "initial_selector": setup.pixel.selector}


def _fit_key(inputs: dict) -> str:
    """Digest of every input of one fit and of the fit method: the cache
    key."""
    blob = json.dumps({"method": FIT_METHOD} | {
        name: dataclasses.asdict(value) for name, value in inputs.items()},
        sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _result_payload(result: CalibrationResult) -> dict:
    """Every field of the fit but ``evaluations``, a work count."""
    payload = dataclasses.asdict(result)
    del payload["evaluations"]
    return payload


def _read_cache(path: str) -> tuple[OxRamParams, MosfetParams, dict] | None:
    """Cached fit, or None when the file is missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return (OxRamParams(**payload["oxram"]),
                MosfetParams(**payload["selector"]),
                dict(payload["residuals"]))
    except (OSError, ValueError, KeyError, TypeError, InvalidInputError):
        return None


def _calibrate_cached(setup: RunSetup, out_path: str,
                      recalibrate: bool) -> tuple[OxRamParams, MosfetParams, dict]:
    inputs = _fit_inputs(setup)
    cache = os.path.join(os.path.dirname(os.path.abspath(out_path)),
                         f".oxpix-calib-{_fit_key(inputs)}.json")
    cached = None if recalibrate else _read_cache(cache)
    if cached is not None:
        return cached
    result = calibrate(**inputs)
    write_json(_result_payload(result), cache, "calibration cache")
    return result.oxram, result.selector, result.residuals


def _cmd_simulate(args) -> int:
    setup = _load_setup(args.config)
    i_exp = parse_quantity(args.iexp, key="--iexp")
    trace = integrate(setup.pixel, Stimulus(i_exp), setup.solver)
    write_trace_csv(trace, args.out)
    print(f"final VPD {trace.final_vpd:.6f} V after "
          f"{setup.pixel.pd.t_end * 1e6:.3f} us; {len(trace.t)} samples -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    setup = _load_setup(args.config)
    spec = SweepSpec(config=setup.pixel, i_min=setup.sweep_i_min,
                     i_max=setup.sweep_i_max,
                     points_per_decade=setup.points_per_decade,
                     options=setup.solver)
    result = run_sweep(spec)
    write_sweep_csv(result.rows, args.out)
    report = summarize_sweep(setup.pixel.topology.value, result, setup.window)
    if report.window_empty:
        print(f"{len(result.rows)} points -> {args.out}; readable window empty")
    else:
        print(f"{len(result.rows)} points -> {args.out}; readable window "
              f"({report.i_exp_min:.3e}, {report.i_exp_max:.3e}) A, "
              f"{report.operating_dr_db:.2f} dB")
    return 0


def _cmd_report(args) -> int:
    setup = _load_setup(args.config)
    oxram, selector, residuals = _calibrate_cached(
        setup, args.out, args.recalibrate)
    reports = table1_report(oxram, selector, window=setup.window,
                            options=setup.solver,
                            i_min=setup.sweep_i_min, i_max=setup.sweep_i_max,
                            points_per_decade=setup.points_per_decade)
    write_report_json(reports, residuals, args.out)
    for label, rep in reports.items():
        if rep.window_empty:
            print(f"{label:9s}: readable window empty")
        else:
            rel = "" if rep.relative_improvement_db is None else \
                f"  improvement {rep.relative_improvement_db:+.1f} dB"
            print(f"{label:9s}: {rep.operating_dr_db:.2f} dB{rel}")
    print(f"-> {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    setup = _load_setup(args.config)
    result = calibrate(**_fit_inputs(setup))
    write_json(_result_payload(result), args.out, "calibration")
    status = "converged" if result.converged else "NOT converged"
    print(f"calibration {status}; residuals: " + ", ".join(
        f"{q} {r * 100:+.2f}%" for q, r in result.residuals.items()))
    print(f"-> {args.out}")
    return 0 if result.converged else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oxpix",
                     description="Hybrid OxRAM pixel transient simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single transient, trace CSV out")
    p.add_argument("--config", default=None)
    p.add_argument("--iexp", required=True,
                   help="exposure current, e.g. 1nA or 2.5pA")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="exposure sweep, table CSV out")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="calibrate (cached) and reproduce the "
                                      "with/without comparison table")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--recalibrate", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("calibrate", help="fit device constants to anchors")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help exits 0
        return int(exc.code or 0)
    try:
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise InvalidInputError(f"--out {args.out!r}: no such directory")
        # The writers rename a new file over it: never a dir, device or pipe.
        if os.path.exists(args.out) and not os.path.isfile(args.out):
            raise InvalidInputError(f"--out {args.out!r}: not a regular file")
        return args.func(args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OxpixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
