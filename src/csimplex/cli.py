"""Command-line front end: check, compute, verify, simulate, export-iterates.

Exit codes: 0 success, 1 a check or the convergence target failed, 2 bad
configuration or file mismatch, 3 hard numerical failure (fold, escape, or a
non-trapping box).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .assumptions import run_assumption_checks
from .geometry import GridError, RadialManifold, make_grid
from .io import (
    SCHEMA,
    ConfigError,
    RunConfig,
    load_config,
    load_manifold_csv,
    save_manifold_csv,
    save_trajectory_csv,
    validate_config,
    write_json,
)
from .maps import KolmogorovMap, MapDomainError, make_map
from .simplex import EscapeError, attract_trajectory, compute_cs, verify_cs
from .transform import TransformError

__all__ = ["main"]


def _prologue(args) -> tuple[RunConfig, KolmogorovMap]:
    """The config with the command line's overrides applied, and the map it names."""
    cfg = load_config(args.config)
    # each flag whose dest is a RunConfig field overrides that field
    overrides = {attr: getattr(args, attr) for _, _, attr, _, _ in SCHEMA
                 if getattr(args, attr, None) is not None}
    out = args.out or os.environ.get("CSIMPLEX_OUT") or cfg.output
    cfg = validate_config(replace(cfg, output=out, **overrides))
    try:
        kmap = make_map(cfg.map_name, cfg.map_params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.declared_dim is not None and cfg.declared_dim != kmap.dim:
        raise ConfigError(
            f"map.dim = {cfg.declared_dim} but '{kmap.name}' has dimension {kmap.dim}"
        )
    if kmap.dim > cfg.dim_cap:
        raise ConfigError(f"map dimension {kmap.dim} exceeds the cap {cfg.dim_cap}")
    return cfg, kmap


def _run_checks(kmap: KolmogorovMap, cfg: RunConfig):
    return run_assumption_checks(kmap, resolution=cfg.check_resolution, kappa_max=cfg.kappa_max)


def _write_report(cfg: RunConfig, name: str, payload: dict) -> None:
    write_json(os.path.join(cfg.output, name), {**payload, "config": cfg.echo()})


def _load_sigma(args, cfg: RunConfig, kmap: KolmogorovMap) -> RadialManifold:
    grid = make_grid(kmap.dim, cfg.resolution)
    path = args.sigma or os.path.join(cfg.output, "sigma.csv")
    return load_manifold_csv(path, grid)


def cmd_check(args) -> int:
    cfg, kmap = _prologue(args)
    report = _run_checks(kmap, cfg)
    _write_report(cfg, "assumptions.json", report.to_dict())
    print(f"as2 (unit axis fixed points): {'ok' if report.as2_ok else 'FAIL'}"
          f" (max deviation {report.as2_max_deviation:.3e})")
    print(f"as3 (competitive feedback):   {report.as3_mode}")
    print(f"as4 (spectral margin):        {'ok' if report.as4_ok else 'FAIL'}"
          f" (max rho {report.as4_max_rho:.6f} at {report.as4_argmax})")
    print(f"kappa = {report.kappa}, epsilon = {report.epsilon}")
    return 0 if report.passed else 1


def cmd_compute(args) -> int:
    cfg, kmap = _prologue(args)
    report = _run_checks(kmap, cfg)
    _write_report(cfg, "assumptions.json", report.to_dict())
    if not report.passed:
        print("assumption checks failed; not computing", file=sys.stderr)
        return 1
    grid = make_grid(kmap.dim, cfg.resolution)

    on_iteration = None
    if args.dump_iterates:
        itdir = os.path.join(cfg.output, "iterates")

        def on_iteration(n, lower, upper):
            save_manifold_csv(os.path.join(itdir, f"lower_{n:05d}.csv"), lower)
            save_manifold_csv(os.path.join(itdir, f"upper_{n:05d}.csv"), upper)

    result = compute_cs(
        kmap,
        grid,
        report.kappa,
        report.epsilon,
        tolerance=cfg.tolerance,
        max_iter=cfg.max_iter,
        on_iteration=on_iteration,
    )
    _write_report(cfg, "convergence.json", result.to_dict())
    if result.sigma is not None:
        save_manifold_csv(os.path.join(cfg.output, "sigma.csv"), result.sigma)
    else:
        save_manifold_csv(os.path.join(cfg.output, "lower_partial.csv"), result.lower)
        save_manifold_csv(os.path.join(cfg.output, "upper_partial.csv"), result.upper)
    print(f"termination: {result.termination} after {result.iterations} iterations, "
          f"gap {result.final_gap:.3e}, radial error estimate {result.certified_error:.3e}")
    if result.termination == "converged":
        return 0
    if result.termination == "fold_error":
        print(f"fold: {result.fold_message}", file=sys.stderr)
        return 3
    return 1


def cmd_verify(args) -> int:
    cfg, kmap = _prologue(args)
    report = _run_checks(kmap, cfg)
    if report.kappa is None:
        print("assumption checks failed; nothing to verify against", file=sys.stderr)
        return 1
    sigma = _load_sigma(args, cfg, kmap)
    result = verify_cs(
        kmap,
        sigma,
        report.kappa,
        sample_count=cfg.sample_count,
        horizon=cfg.horizon,
        seed=cfg.seed,
        tolerance=cfg.tolerance,
    )
    _write_report(cfg, "verification.json", result.to_dict())
    print(f"invariance defect {result.invariance_defect:.3e}, "
          f"unordered violations {result.unorder_violations}, "
          f"order margin {result.order_margin}, "
          f"harnack violations {result.harnack_samples}, "
          f"retrotone violations {result.retrotone_samples}, "
          f"attraction {result.attraction_stats}")
    return 0 if result.passed else 1


def cmd_simulate(args) -> int:
    cfg, kmap = _prologue(args)
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse --x0 '{args.x0}'") from exc
    if x0.shape != (kmap.dim,) or not (x0.min() >= 0.0 and x0.max() < np.inf):  # NaN fails
        raise ConfigError(f"--x0 needs {kmap.dim} finite nonnegative coordinates")
    sigma = _load_sigma(args, cfg, kmap)
    traj, dists = attract_trajectory(kmap, sigma, x0, cfg.horizon)
    save_trajectory_csv(os.path.join(cfg.output, "trajectory.csv"), traj, dists)
    print(f"simulated {cfg.horizon} steps; final distance to the surface {dists[-1]:.3e}")
    return 0


@functools.cache  # no option has a mutable default, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csimplex",
        description="Compute and verify carrying simplices of competitive Kolmogorov maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, resolution=False, solver=False, seed=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config and CSIMPLEX_OUT)")
        if resolution:
            p.add_argument("--resolution", type=int, help="grid resolution override")
        if solver:
            p.add_argument("--tolerance", type=float, help="radial gap tolerance override")
            p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap override")
        if seed:
            p.add_argument("--seed", type=int, help="seed override for sampling batteries")

    p = sub.add_parser("check", help="certify the structural assumptions")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compute", help="step the upper, inflate the lower, to the carrying simplex")
    common(p, resolution=True, solver=True)
    p.set_defaults(func=cmd_compute, dump_iterates=False)

    p = sub.add_parser("export-iterates", help="compute while dumping every iterate to CSV")
    common(p, resolution=True, solver=True)
    p.set_defaults(func=cmd_compute, dump_iterates=True)

    p = sub.add_parser("verify", help="run the property battery against a stored surface")
    common(p, resolution=True, seed=True)
    p.add_argument("--sigma", help="surface CSV (default: <out>/sigma.csv)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="iterate a seed point and log its distance to the surface")
    common(p, resolution=True)
    p.add_argument("--x0", required=True, help="comma-separated start point")
    p.add_argument("--steps", dest="horizon", metavar="STEPS", type=int,
                   help="number of steps (default: verify.horizon)")
    p.add_argument("--sigma", help="surface CSV (default: <out>/sigma.csv)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridError as exc:
        print(f"grid error: {exc}", file=sys.stderr)
        return 2
    except (TransformError, EscapeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MapDomainError as exc:
        print(f"map domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
