"""Kolmogorov maps F(x) = diag[x] f(x) and their derivatives.

A map is described by its per-capita part f (componentwise positive on the
working box) together with an optional analytic Jacobian of f; a central
finite-difference fallback with one-sided steps at the coordinate faces is
used when the Jacobian is missing. Custom maps enter only through the
registry so derivative correctness stays testable. A value of f that is not
finite and positive is a MapDomainError, one that underflows to 0.0 too:
F never moves a point with x_i > 0 onto the face x_i = 0, and a zero rate would.

Every evaluation is batched: f takes an array of points of shape (..., d) and
returns (..., d), df returns (..., d, d), and a single point is the batch of
shape (d,). A custom map indexes coordinates as x[..., i]:

    def f(x):  # x has shape (..., 2)
        return np.stack([np.exp(1.0 - x[..., 0]), 2.0 / (1.0 + x[..., 1])], axis=-1)
    REGISTRY["decoupled"] = lambda: KolmogorovMap("decoupled", 2, {}, f)  # df by finite differences
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MapDomainError",
    "KolmogorovMap",
    "eval_f",
    "eval_F",
    "eval_df",
    "fd_jacobian",
    "beverton_holt",
    "atkinson_allen",
    "ricker1d",
    "ricker2d",
    "leslie_gower",
    "REGISTRY",
    "make_map",
]


class MapDomainError(ValueError):
    """The map was evaluated where its defining inequalities fail."""


@dataclass(frozen=True, eq=False)
class KolmogorovMap:
    """Per-capita part f of a map of dimension d, with its optional Jacobian df.

    f maps points of shape (..., d) to (..., d) and df maps them to
    (..., d, d), row by row, for any leading batch shape. With arrays r of
    shape (d,) and A of shape (d, d), Leslie-Gower competition reads:

        def f(x):
            return (1.0 + r) / (1.0 + (A @ x[..., None])[..., 0])
        kmap = KolmogorovMap("lg", len(r), {}, f)
    """

    name: str
    dim: int
    params: dict
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray] | None = None


def _at(x: np.ndarray, bad: np.ndarray) -> str:
    """The first point of the batch x flagged in bad, with its row index in a batch."""
    row = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"{x[row]}" + (f" (row {row[0] if len(row) == 1 else row})" if row else "")


def _check_input(kmap: KolmogorovMap, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != kmap.dim:
        raise ValueError(f"{kmap.name} expects points of dimension {kmap.dim}")
    if x.size and not (x.min() >= 0.0 and x.max() < np.inf):  # NaN fails min() >= 0
        bad = ~(np.isfinite(x) & (x >= 0.0)).all(axis=-1)
        raise MapDomainError(f"input {_at(x, bad)} is not finite and nonnegative")
    return x


def _f(kmap: KolmogorovMap, x: np.ndarray) -> np.ndarray:
    y = np.asarray(kmap.f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"{kmap.name}: f returned shape {y.shape} for points {x.shape}")
    if y.size and not (y.min() > 0.0 and y.max() < np.inf):
        bad = ~(np.isfinite(y) & (y > 0.0)).all(axis=-1)
        raise MapDomainError(f"{kmap.name}: f is not strictly positive at {_at(x, bad)}")
    return y


def eval_f(kmap: KolmogorovMap, x) -> np.ndarray:
    """Per-capita values f(x); strictly positive on the admissible domain."""
    return _f(kmap, _check_input(kmap, x))


def eval_F(kmap: KolmogorovMap, x) -> np.ndarray:
    """One step of the dynamics, F_i(x) = x_i f_i(x); coordinate faces are exact."""
    x = _check_input(kmap, x)
    return x * _f(kmap, x)


def fd_jacobian(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray, dim: int) -> np.ndarray:
    """Finite-difference Jacobian, central step 1e-5 (1 + |x_j|), one-sided at faces."""
    x = np.asarray(x, dtype=float)
    jac = np.empty(x.shape + (dim,))
    for j in range(dim):
        h = 1e-5 * (1.0 + np.abs(x[..., j]))
        one_sided = x[..., j] - h < 0.0
        xp, xm = x.copy(), x.copy()
        xp[..., j] += h
        xm[..., j] -= np.where(one_sided, 0.0, h)
        step = np.where(one_sided, h, 2.0 * h)[..., None]
        jac[..., j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / step
    return jac


def eval_df(kmap: KolmogorovMap, x) -> np.ndarray:
    """Jacobian of the per-capita part, analytic when available."""
    x = _check_input(kmap, x)
    if kmap.df is not None:
        jac = np.asarray(kmap.df(x), dtype=float)
    else:
        jac = fd_jacobian(kmap.f, x, kmap.dim)
    if jac.shape != x.shape + (kmap.dim,):
        raise ValueError(f"{kmap.name}: Jacobian of shape {jac.shape} for points {x.shape}")
    if jac.size and not (jac.min() > -np.inf and jac.max() < np.inf):
        bad = ~np.isfinite(jac).all(axis=(-2, -1))
        raise MapDomainError(f"{kmap.name}: bad Jacobian at {_at(x, bad)}")
    return jac


# ---------------------------------------------------------------------------
# registry of built-in maps


def beverton_holt() -> KolmogorovMap:
    """One-species Beverton-Holt recruitment, f(x) = 2 / (1 + x)."""

    def f(x):
        return 2.0 / (1.0 + x)

    def df(x):
        return (-2.0 / (1.0 + x) ** 2)[..., None]

    return KolmogorovMap("beverton_holt", 1, {}, f, df)


def atkinson_allen(lam: float = 0.5) -> KolmogorovMap:
    """One-species map with survival fraction lam, f(x) = lam + 2(1-lam)/(1+x)."""
    lam = float(lam)
    if not 0.0 <= lam < 1.0:
        raise ValueError("lam must lie in [0, 1)")

    def f(x):
        return lam + 2.0 * (1.0 - lam) / (1.0 + x)

    def df(x):
        return (-2.0 * (1.0 - lam) / (1.0 + x) ** 2)[..., None]

    return KolmogorovMap("atkinson_allen", 1, {"lam": lam}, f, df)


def ricker1d(lam: float = 0.5) -> KolmogorovMap:
    """One-species Ricker map, f(x) = exp(lam (1 - x))."""
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lam must be positive")

    def f(x):
        return np.exp(lam * (1.0 - x))

    def df(x):
        return (-lam * np.exp(lam * (1.0 - x)))[..., None]

    return KolmogorovMap("ricker1d", 1, {"lam": lam}, f, df)


def ricker2d(r: float = 0.5, s: float = 0.5, a: float = 0.5, b: float = 0.5) -> KolmogorovMap:
    """Planar Ricker competition, F = (x e^{r(1-x-ay)}, y e^{s(1-y-bx)})."""
    r, s, a, b = float(r), float(s), float(a), float(b)
    if r <= 0.0 or s <= 0.0 or a < 0.0 or b < 0.0:
        raise ValueError("need r, s > 0 and a, b >= 0")

    def rates(x):
        f1 = np.exp(r * (1.0 - x[..., 0] - a * x[..., 1]))
        f2 = np.exp(s * (1.0 - x[..., 1] - b * x[..., 0]))
        return f1, f2

    def f(x):
        return np.stack(rates(x), axis=-1)

    def df(x):
        f1, f2 = rates(x)
        top = np.stack([-r * f1, -a * r * f1], axis=-1)
        bottom = np.stack([-s * b * f2, -s * f2], axis=-1)
        return np.stack([top, bottom], axis=-2)

    return KolmogorovMap("ricker2d", 2, {"r": r, "s": s, "a": a, "b": b}, f, df)


def leslie_gower(r=(1.0, 1.0), A=((1.0, 0.5), (0.5, 1.0))) -> KolmogorovMap:
    """Leslie-Gower competition, f_i(x) = (1 + r_i) / (1 + (A x)_i).

    The i-th axis carries a unit fixed point exactly when A_ii = r_i.
    """
    r = np.asarray(r, dtype=float)
    A = np.asarray(A, dtype=float)
    d = r.shape[0]
    if r.ndim != 1 or A.shape != (d, d):
        raise ValueError("r must be a vector and A a matching square matrix")
    if np.any(r <= 0.0) or np.any(A < 0.0):
        raise ValueError("need r > 0 and A >= 0 entrywise")

    num, at = 1.0 + r, A.T.copy()  # at[j] is column j of A

    def denominators(x):
        """1 + (A x)_i shaped (d, *reversed batch), with 1 + r and the columns of A shaped alike.

        A_ij x_j is summed left to right over j with no BLAS call, so a point
        rounds alike in any batch, and each ufunc spans the whole batch.
        """
        pad = (1,) * (x.ndim - 1)
        cols, xt = at.reshape(at.shape + pad), x.T
        t = cols[0] * xt[0]
        for j in range(1, d):
            t += cols[j] * xt[j]
        t += 1.0
        return t, num.reshape((d,) + pad), cols

    def f(x):
        t, n, _ = denominators(x)
        out = np.empty(x.shape)
        np.divide(n, t, out=out.T)
        return out

    def df(x):
        t, n, cols = denominators(x)
        np.divide(n, np.multiply(t, t, out=t), out=t)
        np.negative(t, out=t)  # -(1 + r_i) / (1 + (A x)_i)^2
        return (cols * t).T

    params = {"r": r.tolist(), "A": A.tolist()}
    return KolmogorovMap("leslie_gower", d, params, f, df)


REGISTRY: dict[str, Callable[..., KolmogorovMap]] = {
    "beverton_holt": beverton_holt,
    "atkinson_allen": atkinson_allen,
    "ricker1d": ricker1d,
    "ricker2d": ricker2d,
    "leslie_gower": leslie_gower,
}


def make_map(name: str, params: dict | None = None) -> KolmogorovMap:
    """Instantiate a registered map; a NaN or infinite numeric parameter raises ValueError."""
    if name not in REGISTRY:
        raise KeyError(f"unknown map '{name}'; known: {sorted(REGISTRY)}")
    for key, value in (params or {}).items():
        try:
            finite = np.isfinite(np.asarray(value, dtype=float)).all()
        except (TypeError, ValueError):  # not numeric: the map's own checks name it
            continue
        if not finite:
            raise ValueError(f"map parameter {key} must be finite")
    return REGISTRY[name](**(params or {}))
