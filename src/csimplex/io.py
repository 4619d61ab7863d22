"""Run configuration and bit-exact file formats.

Reports go to JSON with sorted keys, numeric arrays to CSV with 17
significant digits so doubles round-trip losslessly; all writes go through a
temp file plus rename.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .geometry import BarycentricGrid, GridError, RadialManifold

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "atomic_write_text",
    "write_json",
    "save_manifold_csv",
    "load_manifold_csv",
    "save_trajectory_csv",
    "sanitize",
]

DIM_CAP = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    map_name: str
    map_params: dict
    resolution: int = 64
    tolerance: float = 1e-6
    max_iter: int = 10000
    kappa_max: float = 1.0
    safety_margin: float = 0.02
    eps_tol: float = 0.01
    check_resolution: int | None = None
    dim_cap: int = DIM_CAP
    sample_count: int = 1000
    horizon: int = 200
    seed: int = 0
    attraction_tol: float = 1e-3
    invariance_max: float = 0.05
    fixed_point_max: float = 1e-4
    attraction_min: float = 0.95
    output: str = "out"
    declared_dim: int | None = None

    def echo(self) -> dict:
        return {
            "map": {"name": self.map_name, "params": self.map_params},
            "grid": {"resolution": self.resolution},
            "solver": {
                "tolerance": self.tolerance,
                "max_iter": self.max_iter,
                "kappa_max": self.kappa_max,
                "safety_margin": self.safety_margin,
                "epsilon_tol": self.eps_tol,
                "check_resolution": self.check_resolution,
            },
            "verify": {
                "sample_count": self.sample_count,
                "horizon": self.horizon,
                "seed": self.seed,
                "attraction_tol": self.attraction_tol,
                "invariance_max": self.invariance_max,
                "fixed_point_max": self.fixed_point_max,
                "attraction_min": self.attraction_min,
            },
        }


def _expect_mapping(obj, name: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return obj


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    map_block = _expect_mapping(raw.get("map"), "map")
    if "name" not in map_block:
        raise ConfigError("config needs map.name")
    grid = _expect_mapping(raw.get("grid"), "grid")
    solver = _expect_mapping(raw.get("solver"), "solver")
    verify = _expect_mapping(raw.get("verify"), "verify")
    cfg = RunConfig(
        map_name=str(map_block["name"]),
        map_params=_expect_mapping(map_block.get("params"), "map.params"),
        resolution=int(grid.get("resolution", 64)),
        tolerance=float(solver.get("tolerance", 1e-6)),
        max_iter=int(solver.get("max_iter", 10000)),
        kappa_max=float(solver.get("kappa_max", 1.0)),
        safety_margin=float(solver.get("safety_margin", 0.02)),
        eps_tol=float(solver.get("epsilon_tol", 0.01)),
        check_resolution=(
            int(solver["check_resolution"]) if "check_resolution" in solver else None
        ),
        dim_cap=int(raw.get("dim_cap", DIM_CAP)),
        sample_count=int(verify.get("sample_count", 1000)),
        horizon=int(verify.get("horizon", 200)),
        seed=int(verify.get("seed", 0)),
        attraction_tol=float(verify.get("attraction_tol", 1e-3)),
        invariance_max=float(verify.get("invariance_max", 0.05)),
        fixed_point_max=float(verify.get("fixed_point_max", 1e-4)),
        attraction_min=float(verify.get("attraction_min", 0.95)),
        output=str(raw.get("output", "out")),
        declared_dim=(int(map_block["dim"]) if "dim" in map_block else None),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.resolution < 2:
        raise ConfigError("grid.resolution must be at least 2")
    if cfg.tolerance <= 0.0:
        raise ConfigError("solver.tolerance must be positive")
    if cfg.max_iter < 1:
        raise ConfigError("solver.max_iter must be at least 1")
    if cfg.check_resolution is not None and cfg.check_resolution < 2:
        raise ConfigError("solver.check_resolution must be at least 2")
    if not cfg.kappa_max >= 0.0:
        raise ConfigError("solver.kappa_max must be nonnegative")
    if cfg.sample_count < 0 or cfg.horizon < 0:
        raise ConfigError("verify.sample_count and verify.horizon must be nonnegative")
    if cfg.seed < 0:
        raise ConfigError("verify.seed must be nonnegative")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sanitize(obj):
    """Make numpy scalars and arrays JSON-encodable, recursively."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(sanitize(obj), indent=2, sort_keys=True) + "\n")


def _csv_rows(data: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as one line of 17-significant-digit values."""
    fmt = ",".join(["%.17g"] * data.shape[1])
    return [fmt % tuple(row) for row in data.tolist()]


def save_manifold_csv(path: str, manifold: RadialManifold) -> None:
    grid = manifold.grid
    header = ",".join(f"u_{i + 1}" for i in range(grid.dim)) + ",R"
    lines = [header] + _csv_rows(np.column_stack([grid.vertices, manifold.radii]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_manifold_csv(path: str, grid: BarycentricGrid, provenance: str = "") -> RadialManifold:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except FileNotFoundError as exc:
        raise ConfigError(f"manifold file not found: {path}") from exc
    expected_header = ",".join(f"u_{i + 1}" for i in range(grid.dim)) + ",R"
    if not lines or lines[0] != expected_header:
        raise GridError(f"manifold header mismatch: expected '{expected_header}'")
    body = lines[1:]
    if len(body) != grid.n_vertices:
        raise GridError(
            f"manifold has {len(body)} rows, grid expects {grid.n_vertices}"
        )
    try:
        data = np.array([[float(v) for v in ln.split(",")] for ln in body])
    except ValueError as exc:
        raise GridError(f"manifold file has a non-numeric row: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != grid.dim + 1:
        raise GridError("manifold row width does not match the grid dimension")
    if not np.max(np.abs(data[:, : grid.dim] - grid.vertices)) <= 1e-12:  # NaN fails too
        raise GridError("manifold directions do not match the grid lattice")
    radii = data[:, grid.dim]
    bad = np.flatnonzero(~(np.isfinite(radii) & (radii > 0.0)))
    if bad.size:
        raise GridError(f"manifold row {bad[0] + 1} has radius {float(radii[bad[0]])}; "
                        "radii must be positive and finite")
    return RadialManifold(grid, radii, provenance)


def save_trajectory_csv(path: str, traj: np.ndarray, dists: np.ndarray) -> None:
    dim = traj.shape[1]
    header = "n," + ",".join(f"x_{i + 1}" for i in range(dim)) + ",dist"
    rows = _csv_rows(np.column_stack([traj, dists]))
    lines = [header] + [f"{n},{row}" for n, row in enumerate(rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")
