"""Numerical certification of the structural assumptions on a Kolmogorov map.

The checks sample finite grids in place of the continuum quantifiers and keep
a fixed safety margin on the spectral condition, so a passing certificate is
robust to the sampling. The module also selects the margin kappa of the
trapping box [0, 1+kappa]^d and the inner radius epsilon of the starting
manifold epsilon * Delta.

The spectral scan takes the exact maximum of rho(Z) over its grid without
eigen-solving every point. Z is nonnegative, so by Perron-Frobenius each
point's radius lies between max(min row sum, min column sum) and
min(max row sum, max column sum). Only the candidates whose upper bound
reaches the largest lower bound can attain the maximum; they alone go to one
batched eigensolve, which yields each radius bit for bit as a full scan would.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .maps import KolmogorovMap, eval_Z, eval_df, eval_f

__all__ = [
    "AssumptionError",
    "As2Result",
    "As3Result",
    "As4Result",
    "AssumptionReport",
    "check_as2",
    "check_as3",
    "check_as4",
    "jury_condition_ricker2d",
    "find_kappa",
    "find_epsilon",
    "default_resolution",
    "run_assumption_checks",
]

SAFETY_MARGIN = 0.02
KAPPA_LEVELS = 10  # find_kappa tries kappa_max / 2^j for j = 0 ... KAPPA_LEVELS
EPSILON_HALVINGS = 40  # find_epsilon tries 2^-k for k = 1 ... EPSILON_HALVINGS
# Relative widening of the Perron-Frobenius upper bounds in _max_radius. Rounding
# moves a computed row or column sum, and the eigensolver's backward error a
# computed radius, by a few ulps (about 1e-16 relative), far less than this.
RHO_BOUND_MARGIN = 1e-9


class AssumptionError(RuntimeError):
    """A required assumption cannot be certified for this map."""


@dataclass(frozen=True)
class As2Result:
    ok: bool
    max_deviation: float
    deviations: list


@dataclass(frozen=True)
class As3Result:
    mode: str  # strict | weak | fail
    worst_value: float
    worst_entry: tuple
    worst_point: list
    worst_diagonal: float


@dataclass(frozen=True)
class As4Result:
    ok: bool
    max_rho: float
    argmax_point: list
    margin: float


def check_as2(kmap: KolmogorovMap, tol: float = 1e-9) -> As2Result:
    """Each axis must carry its fixed point at the unit: f_i(e_i) = 1."""
    devs = [float(v) for v in np.abs(np.diagonal(eval_f(kmap, np.eye(kmap.dim))) - 1.0)]
    worst = max(devs)
    return As2Result(worst < tol, worst, devs)


def _box_points(top: float, resolution: int, dim: int) -> np.ndarray:
    axes = [np.linspace(0.0, top, resolution)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def check_as3(kmap: KolmogorovMap, rect_top: float, resolution: int) -> As3Result:
    """Sign pattern of the per-capita Jacobian on the rectangle [0, rect_top]^d.

    strict: all entries negative; weak: all nonpositive with negative
    diagonal; fail otherwise, with the worst entry and its location.
    """
    pts = _box_points(rect_top, resolution, kmap.dim)
    jacs = eval_df(kmap, pts)
    worst = int(np.argmax(jacs.max(axis=(1, 2))))  # first point attaining the largest entry
    i, j = np.unravel_index(np.argmax(jacs[worst]), jacs.shape[1:])
    worst_value = float(jacs[worst, i, j])
    worst_entry = (int(i), int(j))
    worst_point = pts[worst]
    worst_diag = float(np.diagonal(jacs, axis1=1, axis2=2).max())
    if worst_value < 0.0:
        mode = "strict"
    elif worst_value <= 1e-12 and worst_diag < 0.0:
        mode = "weak"
    else:
        mode = "fail"
    return As3Result(mode, worst_value, worst_entry, list(worst_point), worst_diag)


def check_as4(
    kmap: KolmogorovMap,
    kappa: float,
    resolution: int,
    margin: float = SAFETY_MARGIN,
) -> As4Result:
    """Spectral radius of the feedback matrix below 1 - margin on the box grid."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    pts = _box_points(1.0 + kappa, resolution, kmap.dim)
    pts = pts[pts.any(axis=1)]  # the origin carries no feedback
    worst, max_rho = _max_radius(eval_Z(kmap, pts))
    return As4Result(max_rho < 1.0 - margin, max_rho, [float(v) for v in pts[worst]], margin)


def _max_radius(z: np.ndarray) -> tuple[int, float]:
    """First index attaining the largest spectral radius of a nonnegative (N, d, d) stack, and that radius.

    Each radius lies between lower = max(min row sum, min column sum) and
    upper = min(max row sum, max column sum). A matrix with
    upper * (1 + RHO_BOUND_MARGIN) < max(lower) has a smaller radius than the
    one attaining max(lower), so only the others are eigen-solved. The sums are
    taken from (N,) slices: a reduction over a short trailing axis is slow.
    """
    d = z.shape[-1]
    rows = [sum(z[:, i, j] for j in range(d)) for i in range(d)]
    cols = [sum(z[:, i, j] for i in range(d)) for j in range(d)]
    upper = np.minimum(np.maximum.reduce(rows), np.maximum.reduce(cols))
    lower = np.maximum(np.minimum.reduce(rows), np.minimum.reduce(cols))
    cand = np.flatnonzero(upper * (1.0 + RHO_BOUND_MARGIN) >= lower.max())
    rho = np.abs(np.linalg.eigvals(z[cand])).max(axis=1)
    best = int(np.argmax(rho))  # candidates keep scan order, so this is the first maximum
    return int(cand[best]), float(rho[best])


def jury_condition_ricker2d(r: float, s: float, a: float, b: float) -> bool:
    """Both feedback eigenvalues at the coexistence corner inside the unit circle."""
    mid = 1.0 + r * s * (1.0 - a * b)
    return r + s < mid < 2.0


def find_kappa(
    kmap: KolmogorovMap,
    resolution: int,
    kappa_max: float = 1.0,
    margin: float = SAFETY_MARGIN,
) -> tuple[float, As4Result]:
    """Largest margin in the geometric scan {kappa_max, kappa_max/2, ...} passing the spectral check.

    Returns the margin with the spectral check that accepted it. Passing
    regions are nested in kappa, so scanning from above is sound.
    """
    for j in range(KAPPA_LEVELS + 1):
        kappa = kappa_max / 2.0**j
        as4 = check_as4(kmap, kappa, resolution, margin)
        if as4.ok:
            return kappa, as4
    raise AssumptionError(
        f"spectral condition fails even at kappa = {kappa_max / 2.0 ** KAPPA_LEVELS:g}"
    )


def find_epsilon(kmap: KolmogorovMap, tol: float = 0.01) -> float:
    """Largest epsilon in {1/2, 1/4, ...} with min_i f_i >= 1 + tol on epsilon * Delta.

    Every x in epsilon * Delta has x <= epsilon * 1, and under AS3 f does not
    increase in any coordinate, so f(x) >= f(epsilon * 1): one evaluation per
    halving bounds the whole set. The bound holds only as far as AS3 does, and
    AS3 is itself a sampled check (check_as3).
    """
    eps = 1.0
    for _ in range(EPSILON_HALVINGS):
        eps *= 0.5
        if eval_f(kmap, np.full(kmap.dim, eps)).min() >= 1.0 + tol:
            return eps
    raise AssumptionError(
        "per-capita growth never exceeds 1 near the origin; the origin is not a repeller"
    )


def default_resolution(dim: int) -> int:
    """Grid points per edge for the assumption scans; cost grows as resolution^dim."""
    if dim <= 2:
        return 64
    if dim == 3:
        return 24
    return 12


@dataclass(frozen=True)
class AssumptionReport:
    map_name: str
    map_params: dict
    dim: int
    as2_ok: bool
    as2_max_deviation: float
    as3_mode: str
    as3_worst_value: float
    as3_worst_entry: tuple
    as3_worst_point: list
    as4_ok: bool
    as4_max_rho: float
    as4_argmax: list
    kappa: float | None
    epsilon: float | None
    grid_resolution: int
    safety_margin: float

    @property
    def passed(self) -> bool:
        return (
            self.as2_ok
            and self.as3_mode in ("strict", "weak")
            and self.as4_ok
            and self.kappa is not None
            and self.epsilon is not None
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["passed"] = self.passed
        out["as3_worst_entry"] = list(self.as3_worst_entry)
        return out


def run_assumption_checks(
    kmap: KolmogorovMap,
    resolution: int | None = None,
    kappa_max: float = 1.0,
    margin: float = SAFETY_MARGIN,
    eps_tol: float = 0.01,
) -> AssumptionReport:
    """Full certification pass: axis fixed points, Jacobian signs, spectral margin, kappa, epsilon."""
    resolution = resolution or default_resolution(kmap.dim)
    as2 = check_as2(kmap)
    base = check_as4(kmap, 0.0, resolution, margin)
    kappa: float | None = None
    epsilon: float | None = None
    as4 = base
    if base.ok:
        try:
            kappa, as4 = find_kappa(kmap, resolution, kappa_max, margin)
        except AssumptionError:
            kappa = None
    as3 = check_as3(kmap, 1.0 + (kappa or 0.0), resolution)
    if base.ok and as2.ok and as3.mode in ("strict", "weak"):
        try:
            epsilon = find_epsilon(kmap, eps_tol)
        except AssumptionError:
            epsilon = None
    return AssumptionReport(
        map_name=kmap.name,
        map_params=dict(kmap.params),
        dim=kmap.dim,
        as2_ok=as2.ok,
        as2_max_deviation=float(as2.max_deviation),
        as3_mode=as3.mode,
        as3_worst_value=float(as3.worst_value),
        as3_worst_entry=as3.worst_entry,
        as3_worst_point=[float(v) for v in as3.worst_point],
        as4_ok=as4.ok,
        as4_max_rho=float(as4.max_rho),
        as4_argmax=[float(v) for v in as4.argmax_point],
        kappa=kappa,
        epsilon=epsilon,
        grid_resolution=resolution,
        safety_margin=margin,
    )
