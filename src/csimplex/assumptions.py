"""Numerical certification of the structural assumptions on a Kolmogorov map.

The checks sample finite grids in place of the continuum quantifiers and keep
a fixed safety margin, SAFETY_MARGIN, on the spectral condition, so a passing
certificate is robust to the sampling. The module also selects the margin
kappa of the trapping box [0, 1+kappa]^d and the inner radius epsilon of the
starting manifold epsilon * Delta.

Each check returns what AssumptionReport stores, keyed by the report's own
field names: check_as2 the as2_ fields, check_as4 the as3_ and as4_ fields,
find_kappa kappa or None with the scan it rests on, find_epsilon a float or None.

One scan per box grid (check_as4) evaluates Df and f once per block of
SCAN_BLOCK points, f on all but the origin, and yields AS3 and AS4 together;
run_assumption_checks scans the kappa boxes first, each distinct box once, and
takes AS3 and AS4 from the box that accepted kappa, and scans the base box
[0, 1]^d only when none does and it was not among them. The scan takes the
exact maximum of rho(Z) without eigen-solving every point: Z is nonnegative,
so by Perron-Frobenius each point's radius lies between
max(min row sum, min column sum) and min(max row sum, max column sum).
Only the candidates whose upper bound reaches the block's largest lower bound,
the best radius so far and a multi-block scan's diagonal floor can attain the
maximum; each block solves them in one batched eigensolve, which yields each
radius bit for bit as a full scan would.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, asdict

import numpy as np

from .maps import KolmogorovMap, MapDomainError, _at, eval_df, eval_f

__all__ = [
    "AssumptionReport",
    "check_as2",
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
# _feedback raises below -FEEDBACK_TOL and clips the entries above it to 0 (rounding).
FEEDBACK_TOL = 1e-9
# Points per check_as4 block: every scan at a default resolution up to d = 4
# (12^4 = 20,736 points) is one block, and a block's d = 6 Jacobians take at most 9.4 MB.
SCAN_BLOCK = 2**15


def check_as2(kmap: KolmogorovMap, tol: float = 1e-9) -> dict:
    """Each axis must carry its fixed point at the unit, f_i(e_i) = 1: as2_ok and as2_max_deviation."""
    worst = float(np.abs(np.diagonal(eval_f(kmap, np.eye(kmap.dim))) - 1.0).max())
    return {"as2_ok": worst < tol, "as2_max_deviation": worst}


def _box_blocks(axis: np.ndarray, dim: int):
    """The grid axis^dim in C order, origin first, in runs of at most SCAN_BLOCK points.

    Each run is an (n, dim) view of (dim, n) columns. Column k holds each
    axis value n^(dim-1-k) times in turn, cyclically, so a run's column is a
    slice of np.repeat over the few values it meets: no index is unravelled.
    """
    n = len(axis)
    size = n**dim
    for start in range(0, size, SCAN_BLOCK):
        stop = min(start + SCAN_BLOCK, size)
        cols = np.empty((dim, stop - start))
        for k in range(dim):
            rep = n ** (dim - 1 - k)
            first = start // rep  # index of the value at the run's start, before the cycle's mod n
            values = axis[np.arange(first, (stop - 1) // rep + 1) % n]
            cols[k] = np.repeat(values, rep)[start - first * rep : stop - first * rep]
        yield cols.T


def _sign_pattern(jac: np.ndarray, pts: np.ndarray) -> tuple[float, tuple, list, float]:
    """A block's largest Jacobian entry, read as (N,) slices, its (i, j), its first point, and the largest diagonal entry."""
    d = pts.shape[1]
    top = functools.reduce(np.maximum, [jac[:, i, j] for i in range(d) for j in range(d)])
    worst = int(np.argmax(top))  # first point attaining the largest entry
    i, j = np.unravel_index(np.argmax(jac[worst]), (d, d))
    diag = float(functools.reduce(np.maximum, [jac[:, k, k] for k in range(d)]).max())
    return float(jac[worst, i, j]), (int(i), int(j)), list(pts[worst]), diag


def _feedback(kmap: KolmogorovMap, x: np.ndarray, f: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Feedback matrices Z_ij = -x_i Df_ij / f_i as (d, d, *batch), written over jac; see FEEDBACK_TOL."""
    d = x.shape[-1]
    # jac is finite and f positive, so row i is +-0 where x_i = 0, and +0 once clipped below
    z = np.moveaxis(jac if jac.flags.writeable else jac.copy(), (-2, -1), (0, 1))
    for i in range(d):
        for j in range(d):
            np.multiply(x[..., i], jac[..., i, j], out=z[i, j, ...])
        np.divide(z[i], -f[..., i], out=z[i])  # the same bits as -(x_i Df_ij / f_i)
    if z.size and z.min() < -FEEDBACK_TOL:
        neg = z.min(axis=(0, 1)) < -FEEDBACK_TOL
        zr = z[(slice(None), slice(None)) + tuple(np.argwhere(neg)[0])]
        i, j = np.unravel_index(np.argmin(zr), zr.shape)
        raise MapDomainError(f"{kmap.name}: negative feedback entry {zr[i, j]:.3e} at ({i},{j}), "
                             f"x={_at(x, neg)}")
    return np.maximum(z, 0.0, out=z)


def check_as4(kmap: KolmogorovMap, kappa: float, resolution: int) -> dict:
    """AS3, and AS4 (radius below 1 - SAFETY_MARGIN), on the grid of [0, 1+kappa]^d from one Df and one f call per block.

    Returns the report's as3_ and as4_ fields as one dict. The grid goes in
    blocks of SCAN_BLOCK points, in scan order, so memory holds one block.
    AS3 keeps the first point of the largest Jacobian entry and AS4 the first
    point of the largest radius: a later block replaces either only when
    larger. Each block solves the feedback matrices whose widened upper bound
    reaches the best radius so far, its own largest lower bound and, in a
    multi-block scan, the largest lower bound on the grid's diagonal.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    axis = np.linspace(0.0, 1.0 + kappa, resolution)
    worst, diag, floor, max_rho, argmax = None, -np.inf, -np.inf, -np.inf, None
    if resolution**kmap.dim > SCAN_BLOCK:  # a first floor from the grid's diagonal, top corner included
        probe = np.repeat(axis[1:, None], kmap.dim, axis=1)
        floor = _radius_bounds(_feedback(kmap, probe, eval_f(kmap, probe), eval_df(kmap, probe)))[1].max()
    for n, pts in enumerate(_box_blocks(axis, kmap.dim)):
        jac = eval_df(kmap, pts)
        *block, block_diag = _sign_pattern(jac, pts)  # before _feedback writes Z over jac
        worst = block if worst is None or block[0] > worst[0] else worst
        diag = max(diag, block_diag)
        if n == 0:  # the origin, first in the first block, carries no feedback
            pts, jac = pts[1:], jac[1:]
        best, rho = _max_radius(_feedback(kmap, pts, eval_f(kmap, pts), jac), max(floor, max_rho))
        if rho > max_rho:
            max_rho, argmax = rho, [float(v) for v in pts[best]]
    value, entry, point = worst
    # strict: all negative; weak: all nonpositive with a negative diagonal
    mode = "strict" if value < 0.0 else "weak" if value <= 1e-12 and diag < 0.0 else "fail"
    return {"as3_mode": mode, "as3_worst_value": value, "as3_worst_entry": entry,
            "as3_worst_point": [float(v) for v in point],
            "as4_ok": max_rho < 1.0 - SAFETY_MARGIN, "as4_max_rho": max_rho, "as4_argmax": argmax}


def _radius_bounds(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds widened by RHO_BOUND_MARGIN and lower bounds on the radii of a nonnegative (d, d, N) stack.

    Each radius lies between lower = max(min row sum, min column sum) and
    upper = min(max row sum, max column sum).
    """
    rows, cols = z[:, 0].copy(), z[0].copy()  # (d, N): row i's and column j's sums at each point
    for k in range(1, z.shape[0]):
        rows += z[:, k]
        cols += z[k]
    upper = np.minimum(rows.max(axis=0), cols.max(axis=0))
    return upper * (1.0 + RHO_BOUND_MARGIN), np.maximum(rows.min(axis=0), cols.min(axis=0))


def _max_radius(z: np.ndarray, floor: float) -> tuple[int, float]:
    """First index attaining the largest spectral radius of a nonnegative (d, d, N) stack, and that radius.

    A matrix whose widened upper bound (_radius_bounds) is below floor or
    max(lower) has a smaller radius than the one attaining that value, so
    only the others go, as a (C, d, d) stack, to the eigensolver. When none
    reaches floor, the result is (-1, -inf).
    """
    upper, lower = _radius_bounds(z)
    cand = np.flatnonzero(upper >= max(floor, lower.max()))
    if not cand.size:
        return -1, -np.inf
    moduli = np.abs(np.linalg.eigvals(z[:, :, cand].transpose(2, 0, 1)))  # (C, d)
    rho = functools.reduce(np.maximum, moduli.T)  # by columns: a short-axis max is 7x slower
    best = int(np.argmax(rho))  # candidates keep scan order, so this is the first maximum
    return int(cand[best]), float(rho[best])


def jury_condition_ricker2d(r: float, s: float, a: float, b: float) -> bool:
    """Both feedback eigenvalues at the coexistence corner inside the unit circle."""
    mid = 1.0 + r * s * (1.0 - a * b)
    return r + s < mid < 2.0


def find_kappa(kmap: KolmogorovMap, resolution: int, kappa_max: float = 1.0) -> tuple[float | None, dict]:
    """Largest margin in the geometric scan {kappa_max, kappa_max/2, ...} passing the spectral check.

    Returns the margin with the check_as4 scan of the box that accepted it,
    or None with the scan of the last box, kappa_max / 2^KAPPA_LEVELS, when
    none does. Passing regions are nested in kappa, so scanning from above is
    sound. Each distinct box is scanned once: kappa_max = 0 gives the one box [0, 1]^d.
    """
    for kappa in dict.fromkeys(kappa_max / 2.0**j for j in range(KAPPA_LEVELS + 1)):
        scan = check_as4(kmap, kappa, resolution)
        if scan["as4_ok"]:
            return kappa, scan
    return None, scan


def find_epsilon(kmap: KolmogorovMap, tol: float = 0.01) -> float | None:
    """Largest epsilon in {1/2, ..., 2^-EPSILON_HALVINGS} with min_i f_i >= 1 + tol on epsilon * Delta, else None.

    Every x in epsilon * Delta has x <= epsilon * 1, and under AS3 f does not
    increase in any coordinate, so f(x) >= f(epsilon * 1): one evaluation per
    halving bounds the whole set. The bound holds only as far as AS3 does, and
    AS3 is itself a sampled check (check_as4). All halvings go to one eval_f call.
    None means that per-capita growth never exceeds 1 + tol near the origin:
    the origin is not a repeller.
    """
    eps = 0.5 ** np.arange(1, EPSILON_HALVINGS + 1)
    ok = eval_f(kmap, np.repeat(eps[:, None], kmap.dim, axis=1)).min(axis=1) >= 1.0 + tol
    return float(eps[ok.argmax()]) if ok.any() else None


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
) -> AssumptionReport:
    """Full certification pass: axis fixed points, Jacobian signs, spectral margin, kappa, epsilon.

    AS3 and AS4 are those of the box that accepted kappa. When no kappa box
    passes, the base box [0, 1]^d is reported, to say why; it is scanned
    unless it was the last kappa box, as it is when kappa_max / 2^KAPPA_LEVELS
    is 0. epsilon is searched only when AS2, AS3 and AS4 pass.
    """
    resolution = resolution or default_resolution(kmap.dim)
    as2 = check_as2(kmap)
    kappa, scan = find_kappa(kmap, resolution, kappa_max)
    if kappa is None and kappa_max / 2.0**KAPPA_LEVELS != 0.0:
        scan = check_as4(kmap, 0.0, resolution)
    certified = as2["as2_ok"] and scan["as3_mode"] in ("strict", "weak") and scan["as4_ok"]
    return AssumptionReport(map_name=kmap.name, map_params=dict(kmap.params), dim=kmap.dim, **as2, **scan,
                            kappa=kappa, epsilon=find_epsilon(kmap) if certified else None,
                            grid_resolution=resolution, safety_margin=SAFETY_MARGIN)
