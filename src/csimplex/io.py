"""Run configuration and bit-exact file formats.

Reports go to JSON with sorted keys, numeric arrays to CSV with 17
significant digits so doubles round-trip losslessly; all writes go through a
temp file plus rename.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace

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
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    map_name: str
    map_params: dict = field(default_factory=dict)
    resolution: int = 64
    tolerance: float = 1e-6
    max_iter: int = 10000
    kappa_max: float = 1.0
    safety_margin: float = 0.02
    eps_tol: float = 0.01
    check_resolution: int | None = None
    dim_cap: int = 4
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
        """The map, grid, solver and verify sections, as written beside each result."""
        sections = {}
        for section, key, attr, _, _ in SCHEMA:
            if section and attr != "declared_dim":  # map.dim is only checked against the map
                sections.setdefault(section, {})[key] = getattr(self, attr)
        return sections


# One row per config key: (section, key, RunConfig field, type, lowest allowed
# value); "" is the root. The defaults are RunConfig's. A key whose default is
# None also takes null, and a null mapping means {}.
SCHEMA = (
    ("map", "name", "map_name", str, None),
    ("map", "params", "map_params", dict, None),
    ("map", "dim", "declared_dim", int, None),
    ("grid", "resolution", "resolution", int, 2),
    ("solver", "tolerance", "tolerance", float, math.ulp(0.0)),  # least positive double
    ("solver", "max_iter", "max_iter", int, 1),
    ("solver", "kappa_max", "kappa_max", float, 0.0),
    ("solver", "safety_margin", "safety_margin", float, None),
    ("solver", "epsilon_tol", "eps_tol", float, None),
    ("solver", "check_resolution", "check_resolution", int, 2),
    ("verify", "sample_count", "sample_count", int, 0),
    ("verify", "horizon", "horizon", int, 0),
    ("verify", "seed", "seed", int, 0),
    ("verify", "attraction_tol", "attraction_tol", float, None),
    ("verify", "invariance_max", "invariance_max", float, None),
    ("verify", "fixed_point_max", "fixed_point_max", float, None),
    ("verify", "attraction_min", "attraction_min", float, None),
    ("", "dim_cap", "dim_cap", int, None),
    ("", "output", "output", str, None),
)
_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _expect_mapping(obj, name: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return obj


def _checked(section: str, key: str, attr: str, kind: type, low, value):
    """value cast to its key's type; ConfigError names the key if it is malformed."""
    name = f"{section}.{key}".removeprefix(".")
    if value is None and RunConfig.__dataclass_fields__[attr].default is None:
        return None
    if kind is dict:
        return _expect_mapping(value, name)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        value = int(value)
    elif kind is float and number and math.isfinite(value):
        value = float(value)
    elif not (kind is str and isinstance(value, str)):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, not {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be at least {low}")
    return value


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
    sections = dict.fromkeys(row[0] for row in SCHEMA if row[0])
    values = {}
    for section in ("", *sections):
        block = _expect_mapping(raw.get(section), section) if section else raw
        known = {key: attr for s, key, attr, _, _ in SCHEMA if s == section}
        for key, value in block.items():
            if key in known:
                values[known[key]] = value
            elif section or key not in sections:
                raise ConfigError(f"{section}.{key} is not a config key".removeprefix("."))
    if "map_name" not in values:
        raise ConfigError("config needs map.name")
    return validate_config(RunConfig(**values))


def validate_config(cfg: RunConfig) -> RunConfig:
    """cfg with every value checked against SCHEMA and cast to its key's type."""
    return replace(cfg, **{row[2]: _checked(*row, getattr(cfg, row[2])) for row in SCHEMA})


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


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv_rows(data: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as one line of 17-significant-digit values."""
    fmt = ",".join(["%.17g"] * data.shape[1])
    return [fmt % tuple(row) for row in data.tolist()]


def save_manifold_csv(path: str, manifold: RadialManifold) -> None:
    grid = manifold.grid
    header = ",".join(f"u_{i + 1}" for i in range(grid.dim)) + ",R"
    lines = [header] + _csv_rows(np.column_stack([grid.vertices, manifold.radii]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_manifold_csv(path: str, grid: BarycentricGrid) -> RadialManifold:
    """The manifold stored at path over grid; a malformed file raises GridError naming its fault.

    After the header, the body is parsed by one np.loadtxt call, which rounds as
    float() does and rejects a non-numeric or ragged row.
    """
    expected_header = ",".join(f"u_{i + 1}" for i in range(grid.dim)) + ",R"
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().strip() != expected_header:
                raise GridError(f"manifold header mismatch: expected '{expected_header}'")
            try:
                with warnings.catch_warnings():  # an empty body is the row-count error below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise GridError(f"manifold file has a non-numeric or ragged row: {exc}") from exc
    except FileNotFoundError as exc:
        raise ConfigError(f"manifold file not found: {path}") from exc
    if data.shape[0] != grid.n_vertices:
        raise GridError(
            f"manifold has {data.shape[0]} rows, grid expects {grid.n_vertices}"
        )
    if data.shape[1] != grid.dim + 1:
        raise GridError("manifold row width does not match the grid dimension")
    if not np.max(np.abs(data[:, : grid.dim] - grid.vertices)) <= 1e-12:  # NaN fails too
        raise GridError("manifold directions do not match the grid lattice")
    radii = data[:, grid.dim]
    bad = np.flatnonzero(~(np.isfinite(radii) & (radii > 0.0)))
    if bad.size:
        raise GridError(f"manifold row {bad[0] + 1} has radius {float(radii[bad[0]])}; "
                        "radii must be positive and finite")
    return RadialManifold(grid, radii)


def save_trajectory_csv(path: str, traj: np.ndarray, dists: np.ndarray) -> None:
    dim = traj.shape[1]
    header = "n," + ",".join(f"x_{i + 1}" for i in range(dim)) + ",dist"
    rows = _csv_rows(np.column_stack([traj, dists]))
    lines = [header] + [f"{n},{row}" for n, row in enumerate(rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")
