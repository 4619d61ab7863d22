"""Test-only references for the spectral condition AS4.

`spectral_radius` and `power_radius` cross-check the dense eigensolve, and
`dense_check_as4` is the full scan that `assumptions.check_as4` prunes: it
eigen-solves the feedback matrix at every grid point.
"""
import numpy as np

from csimplex.assumptions import SAFETY_MARGIN, As4Result, _box_points
from csimplex.maps import eval_Z


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


def dense_check_as4(kmap, kappa: float, resolution: int, margin: float = SAFETY_MARGIN) -> As4Result:
    """check_as4 by a dense eigensolve of the feedback matrix at every grid point."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    pts = _box_points(1.0 + kappa, resolution, kmap.dim)
    pts = pts[pts.any(axis=1)]  # the origin carries no feedback
    worst, max_rho = dense_radius(eval_Z(kmap, pts))
    return As4Result(max_rho < 1.0 - margin, max_rho, [float(v) for v in pts[worst]], margin)
