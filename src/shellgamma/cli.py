"""Command-line runner for convergence studies.

Usage:
  shellgamma run --config <path-or-builtin-name> [--out <path>]
                 [--h-list a,b,c] [--quad-order N]
  shellgamma list-scenarios

The config is read by `studies.load_config`; --out, --h-list and
--quad-order replace its keys, and the result is validated again.

Exit codes: 0 all tolerances met, 1 a tolerance failed, 2 configuration or
runtime error: any exception raised while the config is loaded, the study
runs or its report is written prints `error: ...` on stderr, named by its
type unless it is the package's own error or an OSError.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, ShellGammaError
from .studies import (BUILTIN_SCENARIOS, load_config, run_study, validate_config,
                      write_report)


def _load_config(spec, h_list=None, quad_order=None, out=None):
    cfg = load_config(spec)
    overrides = {}
    if h_list is not None:
        try:
            overrides["h_schedule"] = [float(tok) for tok in h_list.split(",") if tok]
        except ValueError:
            raise ConfigError(f"--h-list must be comma-separated floats, got {h_list!r}")
    if quad_order is not None:
        overrides["quadrature"] = {**cfg.quadrature, "surface_order": quad_order}
    if out is not None:
        overrides["output"] = out
    # the overrides replace keys of the valid config, and the result is validated again
    return validate_config({**vars(cfg), **overrides}) if overrides else cfg


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="shellgamma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one study from a config")
    run_p.add_argument("--config", required=True,
                       help="path to a JSON study config, or a builtin scenario name")
    run_p.add_argument("--out", default=None, help="override the report CSV path")
    run_p.add_argument("--h-list", default=None,
                       help="comma-separated h values overriding the schedule")
    run_p.add_argument("--quad-order", type=int, default=None,
                       help="override the surface quadrature order")

    sub.add_parser("list-scenarios", help="list builtin scenario names")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(BUILTIN_SCENARIOS):
            print(f"{name:20s} {BUILTIN_SCENARIOS[name].note}")
        return 0

    try:
        cfg = _load_config(args.config, h_list=args.h_list,
                           quad_order=args.quad_order, out=args.out)
        report = run_study(cfg)
        csv_path, summary_path = write_report(report, cfg.output)
    except Exception as exc:  # any runtime error exits 2; a defect is named by its type
        kind = "" if isinstance(exc, (ShellGammaError, OSError)) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2

    lines = [f"study: {report.kind}"]
    lines += [f"  {key}: {report.summary[key]}" for key in sorted(report.summary)]
    lines += [f"report: {csv_path}", f"summary: {summary_path}"]
    if report.error is None:
        lines.append("result: PASS" if report.passed else "result: FAIL")
    sys.stdout.write("\n".join(lines) + "\n")  # the block in one write
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
