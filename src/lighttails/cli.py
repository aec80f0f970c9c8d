"""Batch command-line front end.

    lighttails <command> --config <path> --out <dir> [--seed N] [--order M]

Commands: classify, expand, evaluate, oracle, compare, report.  All outputs
are written atomically into the output directory; runs with identical config
and seed produce byte-identical artifacts.  The one environment override is
LIGHTTAILS_OUT, for the output directory.

Exit codes: 0 success, 2 configuration/schema violation, 3 regime out of
scope or regime-condition failure, 4 insufficient smoothness, 1 other error.
A machine-readable error.json lands in the output directory on failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import COMMANDS, run_command, write_json
from .errors import (ConfigError, OutOfScopeError, QuadratureToleranceError,
                     RegimeConditionError, SmoothnessError)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCHEMA = 2
EXIT_REGIME = 3
EXIT_SMOOTHNESS = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lighttails",
        description="Tail expansions of weighted sums of light-subexponential "
                    "variables, with Monte Carlo and quadrature cross-checks.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="experiment config JSON (for `report`: a report.json)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the oracle seed")
    parser.add_argument("--order", type=int, default=None,
                        help="override the expansion order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get("LIGHTTAILS_OUT") or "."
    try:
        summary = run_command(args.command, args.config, out_dir,
                              seed_override=args.seed, order_override=args.order)
    except ConfigError as exc:
        return _fail(out_dir, EXIT_SCHEMA, "config", exc,
                     path=getattr(exc, "path", ""))
    except (OutOfScopeError, RegimeConditionError) as exc:
        return _fail(out_dir, EXIT_REGIME, "regime", exc)
    except SmoothnessError as exc:
        return _fail(out_dir, EXIT_SMOOTHNESS, "smoothness", exc)
    except FileNotFoundError as exc:
        return _fail(out_dir, EXIT_SCHEMA, "config", exc)
    except QuadratureToleranceError as exc:
        return _fail(out_dir, EXIT_ERROR, "quadrature", exc)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(out_dir, EXIT_ERROR, "internal", exc)

    json.dump({"command": args.command, "ok": True,
               "keys": sorted(summary.keys())}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def _fail(out_dir: str, code: int, kind: str, exc: Exception, path: str = "") -> int:
    payload = {"error": {"kind": kind, "exit_code": code, "message": str(exc)}}
    if path:
        payload["error"]["path"] = path
    try:
        write_json(os.path.join(out_dir, "error.json"), payload)
    except OSError:
        pass
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
