"""Command-line entry point.

Subcommands:
  constants    print the constants table for a dimension
  spectrum     compute a spectrum and export it as CSV
  verify       run the full check suite of a scenario config
  convergence  refinement study for a grid scenario

Exit codes: 0 all checks pass, 1 at least one genuine violation,
2 configuration or usage error (an --out that cannot be written is one, found
before any solve), 3 numerical failure, which includes any other ValueError.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .errors import InputDataError, NumericalError
from .specfun import constants_table

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
#: The last line of ``verify``: its verdict, by its exit code.
_OVERALL = {EXIT_OK: "pass", EXIT_VIOLATION: "FAIL", EXIT_NUMERICAL: "ERROR"}


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise InputDataError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputDataError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:  # bytes that are no text, an integer of too many digits
        raise InputDataError(str(exc)) from exc


def _cmd_constants(args) -> int:
    table = constants_table(args.dim, p_list=args.p or [1.0, 2.0])
    harness.write_report(harness._jsonable(table), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    scenario = harness.parse_config(_load_config(args.config))
    harness.check_writable(args.out)
    values = harness.build_spectrum(scenario.spectrum).values
    harness.write_spectrum_csv(values, args.out)
    if args.out:
        print(f"wrote {len(values)} eigenvalues to {args.out}")
    return EXIT_OK


def _report_exit_code(report: dict) -> int:
    if not report["overall_pass"]:
        return EXIT_VIOLATION
    if report["check_errors"]:
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    harness.check_writable(args.out)
    report = harness.run_scenario(config)
    if args.out:
        harness.write_report(report, args.out)
    for chk in report["checks"]:
        status = "PASS" if chk["passed"] else "FAIL"
        if not chk["applicable"]:
            status = "N/A"
        elif chk["diagnostic"]:
            status += " (diagnostic)"
        print(f"{status:18s} {chk['name']:26s} margin={chk['margin']:+.6e}")
    for err in report["check_errors"]:
        print(f"ERROR              {err['check']:26s} {err['error']}: {err['message']}")
    code = _report_exit_code(report)
    print(f"overall: {_OVERALL[code]}")
    return code


def _cmd_convergence(args) -> int:
    config = _load_config(args.config)
    harness.check_writable(args.out)
    report = harness.convergence_study(config, args.levels)
    if args.out:
        harness.write_report(report, args.out)
    for i, orders in enumerate(report["observed_orders"]):
        print(f"pair {i}: orders {['%.3f' % o for o in orders]}")
    if report["failures"]:
        for f in report["failures"]:
            print(f"level {f['level']} failed: {f['message']}")
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magspec",
        description="Verify eigenvalue inequalities for magnetic Schrodinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the constants table")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", type=float, action="append")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("spectrum", help="compute and export a spectrum")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the full check suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("convergence", help="grid refinement study")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # raised inside a computation, not by the input
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
