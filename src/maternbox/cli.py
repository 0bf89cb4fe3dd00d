"""Command-line entry point for the experiment runner."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    load_config,
    render_csv,
    run_bound_table,
    run_cov_slice,
    run_error_curve,
    run_sampler_check,
    run_verify,
)
from .specfun import ConvergenceError

_TABLE_VERBS = {
    "cov-slice": run_cov_slice,
    "error-curve": run_error_curve,
    "bounds": run_bound_table,
    "sample": run_sampler_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maternbox",
        description="Covariance slices, window-error curves, a-priori bounds "
                    "and sampler checks for Matern fields on truncated boxes.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("cov-slice", "covariance along a slice of the domain, per boundary kind"),
        ("error-curve", "max-norm covariance error versus window margin, with bounds"),
        ("bounds", "a-priori error bound table over the margin grid"),
        ("sample", "Monte-Carlo check of the sampler against the modal covariance"),
        ("verify", "run the full identity suite and report pass/fail lines"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--out", type=str, default="-",
                       help="output path (default: stdout)")
        if verb in _TABLE_VERBS:
            p.add_argument("--config", type=str, default=None,
                           help="path to the key=value config file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"cannot write output to {out!r}: {exc}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "verify":
        lines, passed = run_verify()
        _emit("\n".join(lines) + "\n", args.out)
        return 0 if passed else 1
    if args.config is None:
        raise SystemExit(f"{args.verb} requires --config")
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad config {args.config!r}: {exc}") from exc
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        table = _TABLE_VERBS[args.verb](cfg)
    except (ValueError, ConvergenceError) as exc:
        raise SystemExit(f"{args.verb} failed: {exc}") from exc
    _emit(render_csv(table), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
