"""Test-only references for the sign pattern AS3 and the spectral condition AS4.

`spectral_radius` and `power_radius` cross-check the dense eigensolve.
`dense_check_as3` and `dense_check_as4` are the two separate scans that
`assumptions.check_as4` fuses: the first reads the Jacobian at every grid
point as (N, d, d) blocks, the second forms the feedback matrix the same way
and eigen-solves it at every grid point but the origin. `two_box_report` is
`run_assumption_checks` in its earlier order, base box first, from those two.
"""
import numpy as np

from csimplex.assumptions import (
    KAPPA_LEVELS,
    SAFETY_MARGIN,
    As3Result,
    As4Result,
    AssumptionReport,
    check_as2,
    find_epsilon,
)
from csimplex.maps import eval_df, eval_f


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the step budget."""


def power_radius(matrix, tol: float = 1e-13, max_iter: int = 10000) -> float:
    """Spectral radius of a nonnegative matrix by shifted power iteration.

    The +I shift keeps the dominant eigenvalue simple-signed and removes
    periodicity, so the Rayleigh quotient converges for every nonnegative
    input with a spectral gap. It cross-checks the dense eigensolve.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    shifted = m + np.eye(n)
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        w = shifted @ v
        v = w / np.linalg.norm(w)
        lam = float(v @ (shifted @ v))
        if np.linalg.norm(shifted @ v - lam * v) <= tol * max(1.0, abs(lam)):
            return lam - 1.0
    raise PowerIterationError(f"no convergence after {max_iter} steps")


def spectral_radius(matrix, method: str = "auto") -> float:
    """Largest eigenvalue modulus by dense eigensolve ("auto", "eig") or power iteration."""
    m = np.asarray(matrix, dtype=float)
    if method not in ("auto", "eig", "power"):
        raise ValueError(f"unknown method '{method}'")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite")
    if method == "power":
        return power_radius(m)
    return float(np.max(np.abs(np.linalg.eigvals(m)))) if m.size else 0.0


def dense_radius(z: np.ndarray) -> tuple[int, float]:
    """First index attaining the largest spectral radius of an (N, d, d) stack, and that radius."""
    rho = np.abs(np.linalg.eigvals(z)).max(axis=1)
    worst = int(np.argmax(rho))
    return worst, float(rho[worst])


def box_points(top: float, resolution: int, dim: int) -> np.ndarray:
    """The whole grid on [0, top]^dim in C order, origin first, as an (N, dim) view of (dim, N) columns."""
    axes = [np.linspace(0.0, top, resolution)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False)).reshape(dim, -1).T


def dense_check_as3(kmap, rect_top: float, resolution: int) -> As3Result:
    """Sign pattern of the per-capita Jacobian on the rectangle [0, rect_top]^d.

    strict: all entries negative; weak: all nonpositive with negative
    diagonal; fail otherwise, with the worst entry and its location.
    """
    pts = box_points(rect_top, resolution, kmap.dim)
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
    return As3Result(mode, worst_value, worst_entry, list(worst_point))


def dense_feedback(kmap, x) -> np.ndarray:
    """Feedback matrices Z_ij = -x_i Df_ij / f_i as (..., d, d) blocks, row i zero where x_i = 0."""
    z = -(x[..., :, None] * eval_df(kmap, x)) / eval_f(kmap, x)[..., :, None]
    return np.maximum(np.where((x == 0.0)[..., :, None], 0.0, z), 0.0)


def dense_check_as4(kmap, kappa: float, resolution: int, margin: float = SAFETY_MARGIN) -> As4Result:
    """The AS4 half of check_as4 by a dense eigensolve of the feedback matrix at every grid point."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    pts = box_points(1.0 + kappa, resolution, kmap.dim)
    pts = pts[pts.any(axis=1)]  # the origin carries no feedback
    worst, max_rho = dense_radius(dense_feedback(kmap, pts))
    return As4Result(max_rho < 1.0 - margin, max_rho, [float(v) for v in pts[worst]])


def two_box_report(kmap, resolution: int) -> dict:
    """The report when the base box [0, 1]^d gates the kappa search, from the dense oracles.

    The base box's AS4 scan runs first; only when it passes are the boxes
    [0, 1 + 2^-j]^d scanned from j = 0 down, and the first passing one gives
    kappa and AS4. AS3 is read from the accepted box, or the base box.
    """
    as2 = check_as2(kmap)
    base = as4 = dense_check_as4(kmap, 0.0, resolution)
    kappa = None
    for j in range(KAPPA_LEVELS + 1) if base.ok else ():
        scan = dense_check_as4(kmap, 1.0 / 2.0**j, resolution)
        if scan.ok:
            kappa, as4 = 1.0 / 2.0**j, scan
            break
    as3 = dense_check_as3(kmap, 1.0 + (kappa or 0.0), resolution)
    certified = base.ok and as2.ok and as3.mode in ("strict", "weak")
    return AssumptionReport(
        kmap.name, dict(kmap.params), kmap.dim, as2.ok, as2.max_deviation, as3.mode,
        as3.worst_value, as3.worst_entry, [float(v) for v in as3.worst_point], as4.ok,
        as4.max_rho, as4.argmax_point, kappa, find_epsilon(kmap, 0.01) if certified else None,
        resolution, SAFETY_MARGIN,
    ).to_dict()
