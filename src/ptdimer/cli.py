"""Command-line interface: run scenarios, list the catalog, classify regimes.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .params import classify_regime, gamma_contrast, pt_spectrum
from .scenarios import NUMERICAL_FAILURES, OMEGA_B, ConfigError, \
    _parse_engines, _parse_int, catalog_config, parse_config, run_scenario, \
    scenario_ids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdimer",
        description="Lossy two-mode dimer simulator: Lindblad, non-Hermitian, "
                    "and Gaussian moment engines with PT-phase classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write CSV/SVG output")
    run_p.add_argument("--scenario", help="catalog scenario id (see list-scenarios)")
    run_p.add_argument("--config", help="path to a key = value config file")
    run_p.add_argument("--out", help="output directory (default from config)")
    run_p.add_argument("--engines",
                       help="comma-separated subset of lindblad,nonhermitian,gaussian")
    run_p.add_argument("--rtol", type=float, help="relative tolerance")
    run_p.add_argument("--atol", type=float, help="absolute tolerance")
    run_p.add_argument("--truncation",
                       help="per-mode Fock dimension, or 'auto'")
    run_p.add_argument("--svg", action="store_true", default=None,
                       help="also write an SVG overlay plot")

    sub.add_parser("list-scenarios", help="list catalog scenario ids")

    cls_p = sub.add_parser("classify",
                           help="classify the dimer phase from g and the dampings")
    cls_p.add_argument("--g", type=float, required=True,
                       help="beam-splitter coupling (rad/s)")
    cls_p.add_argument("--gamma-a", type=float, required=True,
                       help="mode-a damping rate (rad/s)")
    cls_p.add_argument("--gamma-b", type=float, required=True,
                       help="mode-b damping rate (rad/s)")
    cls_p.add_argument("--omega-b", type=float, default=OMEGA_B,
                       help="mode-b frequency for the EP-coupling ratio "
                            "(default experimental value)")
    cls_p.add_argument("--tol", type=float, default=1e-9,
                       help="relative classification tolerance")
    return parser


def _cmd_run(args) -> int:
    if args.scenario is None and args.config is None:
        raise ConfigError("run needs --scenario and/or --config")
    text = ""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    # parse_config skips None values: flags that were not given
    overrides = {"directory": args.out, "rtol": args.rtol, "atol": args.atol,
                 "svg": args.svg}
    if args.engines is not None:
        overrides["engines"] = _parse_engines(args.engines, "--engines")
    if args.truncation not in (None, "auto"):
        overrides["truncation"] = _parse_int(args.truncation, "--truncation",
                                             "truncation")
    cfg = parse_config(text, scenario=args.scenario, cli_overrides=overrides)
    if args.truncation == "auto":
        cfg = replace(cfg, truncation=None)
    for path in run_scenario(cfg):
        print(path)
    return 0


def _cmd_list() -> int:
    for sid in scenario_ids():
        cfg = catalog_config(sid)
        state = " ".join(str(s) for s in cfg.state)
        regime = cfg.system_params().regime().phase.value
        print(f"{sid:8s} state={state:14s} regime={regime:18s} "
              f"engines={','.join(cfg.engines)}")
    return 0


def _cmd_classify(args) -> int:
    if args.g < 0 or args.gamma_a < 0 or args.gamma_b < 0:
        raise ConfigError("rates must be nonnegative")
    contrast = gamma_contrast(args.gamma_a, args.gamma_b)
    regime = classify_regime(args.g, contrast, args.tol)
    lam_p, lam_m = pt_spectrum(args.g, contrast)
    ep = abs(contrast)
    print(f"g = {args.g:.6e} rad/s")
    print(f"Gamma = {contrast:.6e} rad/s")
    print(f"gap = {regime.gap:.6e} rad/s")
    print(f"phase = {regime.phase.value}")
    print(f"eigenvalue_plus = {lam_p.real:.6e} {lam_p.imag:+.6e}i rad/s")
    print(f"eigenvalue_minus = {lam_m.real:.6e} {lam_m.imag:+.6e}i rad/s")
    print(f"ep_coupling = {ep:.6e} rad/s = {ep / args.omega_b:.6e} omega_b")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors already exit with 2
        return int(exc.code or 0)
    try:
        for flag, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"--{flag.replace('_', '-')} must be finite")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-scenarios":
            return _cmd_list()
        return _cmd_classify(args)
    except NUMERICAL_FAILURES as exc:  # before ValueError: LinAlgError is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
