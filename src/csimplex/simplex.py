"""Convergence driver and verification suite for the carrying simplex.

The surface is the fixed point of the graph transform G on the grid. A
decreasing sequence starts on the boundary of the trapping box and steps
alone while the lower manifold is held at the small simplex epsilon·Δ. Once
the upper steps stall, the lower is inflated to L = max(U - delta, epsilon):
G is order preserving, so G(L) >= L puts the fixed point above G(L), and the
lower steps on from G(L) together with the upper; if no delta up to the cap
passes, the lower steps from epsilon·Δ instead. Each recorded pair encloses
the discrete fixed point, its vertexwise gap is an a-posteriori error bound,
and the midpoint is reported as the carrying simplex once the gap passes the
tolerance.

verify_cs reads the invariance F(Sigma) = Sigma on the surface itself: its
defect is the largest ray gap to sigma of the images of sigma's vertex points,
which land between the lattice directions. It is sampled, not certified.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    BarycentricGrid,
    RadialManifold,
    box_boundary_manifold,
    constant_manifold,
    grid_spacing,
    harnack_distance,
    hausdorff_bound,
    lipschitz_estimate,
    order_check,
    radius_at,
    sup_gap,
    symmetrized_order,
    vertex_points,
)
from .maps import KolmogorovMap, eval_F
from .transform import ResampleError, graph_step, pushforward

__all__ = [
    "EscapeError",
    "ConvergenceReport",
    "VerificationReport",
    "compute_cs",
    "surface_distance",
    "gamma_membership",
    "attract_trajectory",
    "harnack_battery",
    "retrotone_battery",
    "attraction_battery",
    "verify_cs",
]


class EscapeError(RuntimeError):
    """An orbit left the configured safety box: the run is not dissipative."""


def _field_dict(report, skip=()) -> dict:
    """A report's fields by name, leaving out the named ones; lists are copied."""
    out = {f.name: getattr(report, f.name) for f in fields(report) if f.name not in skip}
    return {k: list(v) if isinstance(v, list) else v for k, v in out.items()}


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    iterations: int
    termination: str  # converged | max_iter | fold_error
    final_gap: float
    gap_history: list
    hausdorff_bound_history: list
    harnack_history: list
    lower_min_steps: list
    upper_max_steps: list
    sandwich_mins: list
    sigma: RadialManifold | None
    lower: RadialManifold
    upper: RadialManifold
    interp_error: float
    certified_error: float
    kappa: float
    epsilon: float
    tolerance: float
    certified_by: str  # inflation | lockstep: where the last lower came from
    fold_message: str | None = None

    @property
    def monotone_ok(self) -> bool:
        """Both radial sequences monotone and ordered at every recorded cycle, to a few ulps."""
        t = 8.0 * np.finfo(float).eps * float(self.upper.radii.max())
        return (
            all(v >= -t for v in self.lower_min_steps)
            and all(v <= t for v in self.upper_max_steps)
            and all(v >= -t for v in self.sandwich_mins)
        )

    @property
    def gap_monotone_ok(self) -> bool:
        """The gap never rose by more than a few ulps of the largest upper radius."""
        t = 8.0 * np.finfo(float).eps * float(self.upper.radii.max())
        g = self.gap_history
        return all(b <= a + t for a, b in zip(g, g[1:]))

    def to_dict(self) -> dict:
        out = _field_dict(self, skip=("sigma", "lower", "upper"))
        # the pair encloses the fixed point of the graph transform on the grid, not the surface
        out.update(enclosure="discrete", monotone_ok=self.monotone_ok,
                   gap_monotone_ok=self.gap_monotone_ok)
        return out


# Doublings of the inflation offset delta tried before the lower falls back to epsilon·Δ.
INFLATION_TRIES = 8


def _inflated_lower(kmap, lower, upper, delta, box_top):
    """First G(L), L = max(U - delta·2^k, lower), with G(L) >= L, else G(lower); and its source."""
    for k in range(INFLATION_TRIES):
        trial = RadialManifold(upper.grid, np.maximum(upper.radii - delta * 2.0**k, lower.radii))
        stepped = graph_step(kmap, trial, box_top)
        if np.all(stepped.radii >= trial.radii):
            return stepped, "inflation"
    return graph_step(kmap, lower, box_top), "lockstep"


def compute_cs(
    kmap: KolmogorovMap,
    grid: BarycentricGrid,
    kappa: float,
    epsilon: float,
    tolerance: float = 1e-6,
    max_iter: int = 10000,
    on_iteration=None,
) -> ConvergenceReport:
    """Step the upper sequence, inflate the lower once it stalls, until the radial gap closes.

    on_iteration(n, lower, upper) is invoked after every cycle, e.g. to dump
    iterates; the lower stays epsilon·Δ until it is inflated. A held cycle
    records no lower step. A fold during resampling ends the run with
    termination "fold_error" and the partial manifolds retained.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    box_top = 1.0 + kappa
    lower = constant_manifold(grid, epsilon)
    upper = box_boundary_manifold(grid, box_top)

    gap_history = [sup_gap(lower, upper)]
    hausdorff_bound_history = [hausdorff_bound(lower, upper)]
    harnack_history = [harnack_distance(lower, upper)]
    lower_min_steps: list[float] = []
    upper_max_steps: list[float] = []
    sandwich_mins: list[float] = []
    termination = "max_iter"
    certified_by = "lockstep"
    fold_message = None
    iterations = 0
    held, last_step = True, np.inf

    for n in range(1, max_iter + 1):
        try:
            new_upper = graph_step(kmap, upper, box_top)
            moved = new_upper.radii - upper.radii
            step = -float(moved.min())
            # inflate when the upper step passes tolerance / 2 or stalls at the rounding floor
            if held and (step < tolerance / 2.0 or step >= last_step):
                held = False
                delta = max(tolerance, 2.0 * step)
                new_lower, certified_by = _inflated_lower(kmap, lower, new_upper, delta, box_top)
            elif not held:
                new_lower = graph_step(kmap, lower, box_top)
        except ResampleError as err:
            termination = "fold_error"
            fold_message = str(err)
            break
        iterations, last_step = n, step
        if not held:
            lower_min_steps.append(float((new_lower.radii - lower.radii).min()))
            lower = new_lower
        upper_max_steps.append(float(moved.max()))
        upper = new_upper
        sandwich_mins.append(float((upper.radii - lower.radii).min()))
        gap = sup_gap(lower, upper)
        gap_history.append(gap)
        hausdorff_bound_history.append(hausdorff_bound(lower, upper))
        harnack_history.append(harnack_distance(lower, upper))
        if on_iteration is not None:
            on_iteration(n, lower, upper)
        if gap < tolerance:
            termination = "converged"
            break

    final_gap = gap_history[-1]
    sigma = None
    if termination != "fold_error":
        sigma = RadialManifold(grid, 0.5 * (lower.radii + upper.radii))
    interp_error = lipschitz_estimate(sigma if sigma is not None else lower) * grid_spacing(grid)
    return ConvergenceReport(
        iterations=iterations,
        termination=termination,
        final_gap=final_gap,
        gap_history=gap_history,
        hausdorff_bound_history=hausdorff_bound_history,
        harnack_history=harnack_history,
        lower_min_steps=lower_min_steps,
        upper_max_steps=upper_max_steps,
        sandwich_mins=sandwich_mins,
        sigma=sigma,
        lower=lower,
        upper=upper,
        interp_error=interp_error,
        certified_error=final_gap / 2.0 + interp_error,
        kappa=kappa,
        epsilon=epsilon,
        tolerance=tolerance,
        certified_by=certified_by,
        fold_message=fold_message,
    )


def surface_distance(sigma: RadialManifold, x):
    """Upper bound of the distance from points to the flat-facet surface.

    x has shape (d,), giving a float, or (N, d), giving an (N,) array. A point
    x = s u with u on the simplex (a finite positive sum s, no negative
    coordinate) has the surface point R(u) u on its own ray, so it gets the ray
    gap |s - R(u)| |u|. A point with no such ray (in practice the origin) gets
    its distance to the nearest vertex point of the surface.
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    s = rows.sum(axis=1)
    ray = np.isfinite(s) & (s > 0.0) & np.all(rows >= 0.0, axis=1)
    dist = np.empty(rows.shape[0])
    u = rows[ray] / s[ray, None]
    dist[ray] = np.abs(s[ray] - radius_at(sigma, u)) * np.sqrt(np.vecdot(u, u))
    dist[~ray] = np.sqrt(((rows[~ray, None] - vertex_points(sigma)) ** 2).sum(axis=-1).min(axis=1))
    return float(dist[0]) if x.ndim == 1 else dist


def gamma_membership(sigma: RadialManifold, x, tol: float) -> tuple[str, float]:
    """Classify x against the attractor [0,1]*Sigma: below, on, or above the surface.

    Returns the label and the signed radial margin ||x||_1 - R(T(x)).
    """
    x = np.asarray(x, dtype=float)
    s = float(x.sum())
    if s <= 0.0:
        raise ValueError("the origin is classified separately; membership needs x != 0")
    margin = s - radius_at(sigma, x / s)
    if margin < -tol:
        return "below", margin
    if margin > tol:
        return "above", margin
    return "on", margin


def attract_trajectory(
    kmap: KolmogorovMap,
    sigma: RadialManifold,
    x0,
    n_steps: int,
    safety_top: float = 1e6,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward orbit of x0 with its distance to the surface at every step."""
    x = np.asarray(x0, dtype=float)
    traj = np.empty((n_steps + 1, kmap.dim))
    traj[0] = x
    for n in range(1, n_steps + 1):
        x = eval_F(kmap, x)
        if not np.all(np.isfinite(x)) or float(x.max(initial=0.0)) > safety_top:
            raise EscapeError(f"orbit escaped the safety box at step {n}: {x}")
        traj[n] = x
    return traj, surface_distance(sigma, traj)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    invariance_defect: float
    unorder_violations: int | None
    order_margin: float | None
    fixed_point_residuals: list
    harnack_samples: int | None
    harnack_pair_count: int
    retrotone_samples: int | None
    retrotone_ordered_count: int
    attraction_stats: float | None
    attraction_failures: int
    sample_count: int
    horizon: int
    seed: int
    attraction_tol: float
    tol_order: float
    vacuous: list

    def passed(
        self,
        fixed_point_max: float = 1e-4,
        invariance_max: float = 0.05,
        attraction_min: float = 0.95,
    ) -> bool:
        checks = [self.invariance_defect < invariance_max]
        if self.fixed_point_residuals:
            checks.append(max(self.fixed_point_residuals) < fixed_point_max)
        if self.unorder_violations is not None:
            checks.append(self.unorder_violations == 0)
        if self.harnack_samples is not None:
            checks.append(self.harnack_samples == 0)
        if self.retrotone_samples is not None:
            checks.append(self.retrotone_samples == 0)
        if self.attraction_stats is not None:
            checks.append(self.attraction_stats >= attraction_min)
        return all(checks)

    def to_dict(self) -> dict:
        return _field_dict(self)


def _ordered_pairs(rng, count: int, dim: int, box_top: float) -> np.ndarray:
    """Strictly ordered pairs with a common support inside the box, as (count, 2, dim).

    x is uniform on [1e-6, box_top)^dim. When dim > 1, 3 pairs in 10 keep a random
    support: each coordinate with probability 1/2, one drawn coordinate when none is
    kept, and x is 0 off it. On the support y = x + U·(box_top − x)·0.999 + 1e-9,
    U uniform on [0, 1), capped at box_top; off it y = x = 0.
    """
    x = rng.uniform(1e-6, box_top, (count, dim))
    if dim > 1:
        sparse = rng.random(count) < 0.3
        keep = (rng.random((count, dim)) < 0.5) | ~sparse[:, None]
        empty = np.flatnonzero(~keep.any(axis=1))
        keep[empty, rng.integers(dim, size=empty.size)] = True
        x[~keep] = 0.0
    support = x > 0.0
    y = np.where(support, x + rng.random((count, dim)) * (box_top - x) * 0.999 + 1e-9, x)
    return np.stack([x, np.minimum(y, box_top)], axis=1)


def harnack_battery(
    kmap: KolmogorovMap,
    kappa: float,
    sample_count: int,
    seed: int = 0,
    margin: float = 1e-12,
) -> tuple[int, int]:
    """Sampled strict growth of the symmetrized order function on ordered pairs.

    Returns (violations, pairs tested); a violation is a pair where the
    symmetrized order fails to grow by more than the margin under the map.
    The sample_count pairs are drawn together by _ordered_pairs from
    np.random.default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    pairs = _ordered_pairs(rng, sample_count, kmap.dim, 1.0 + kappa)
    images = eval_F(kmap, pairs)
    before = symmetrized_order(pairs[:, 0], pairs[:, 1])
    after = symmetrized_order(images[:, 0], images[:, 1])
    return int(np.count_nonzero(after - before <= margin)), sample_count


def _retrotone_counts(pairs: np.ndarray, images: np.ndarray) -> tuple[int, int]:
    """(violations, ordered image pairs) over (n, 2, d) points and their images.

    A row counts in the orientation whose image pair is ordered, Fp <= Fq with
    Fp != Fq; at most one orientation can be. It violates unless p <= q, p != q
    and p < q in every coordinate where Fp < Fq.
    """
    tested = violations = 0
    for i, j in ((0, 1), (1, 0)):
        p, q, fp, fq = pairs[:, i], pairs[:, j], images[:, i], images[:, j]
        grows = fp < fq
        ordered = np.all(fp <= fq, axis=1) & np.any(grows, axis=1)
        ok = np.all(p <= q, axis=1) & np.any(p < q, axis=1) & np.all((p < q) | ~grows, axis=1)
        tested += int(np.count_nonzero(ordered))
        violations += int(np.count_nonzero(ordered & ~ok))
    return violations, tested


def retrotone_battery(
    kmap: KolmogorovMap,
    kappa: float,
    sample_count: int,
    seed: int = 0,
) -> tuple[int, int]:
    """Sampled backward order propagation: ordered images must come from ordered points.

    Returns (violations, ordered image pairs found among sample_count draws).
    """
    rng = np.random.default_rng(seed)
    box_top = 1.0 + kappa
    pairs = rng.uniform(0.0, box_top, (sample_count, 2, kmap.dim))
    return _retrotone_counts(pairs, eval_F(kmap, pairs))


# Least coordinate sum of an attraction seed: the origin is a repeller, not attracted.
MIN_MASS = 0.1
FIXED_ORBIT_EVERY = 8  # attraction_battery asks every this many steps whether F left its seeds unchanged


def attraction_battery(
    kmap: KolmogorovMap,
    sigma: RadialManifold,
    kappa: float,
    sample_count: int,
    horizon: int,
    tol: float,
    seed: int = 0,
) -> tuple[int, int]:
    """Monte Carlo attraction: seeds in the box with mass >= MIN_MASS, distance after horizon steps.

    Seeds are drawn in blocks of sample_count and iterated together. The
    orbits stop early once a step returns its input unchanged, since a fixed
    batch stays fixed; only every FIXED_ORBIT_EVERY-th step is compared.

    Returns (failures, seeds tested).
    """
    rng = np.random.default_rng(seed)
    box_top = 1.0 + kappa
    seeds = np.empty((0, kmap.dim))
    while seeds.shape[0] < sample_count:
        block = rng.uniform(0.0, box_top, (sample_count, kmap.dim))
        seeds = np.concatenate([seeds, block[block.sum(axis=1) >= MIN_MASS]])
    x = seeds[:sample_count]
    for step in range(1, horizon + 1):
        y = eval_F(kmap, x)
        if step % FIXED_ORBIT_EVERY == 0 and np.array_equal(x, y):
            break
        x = y
    failures = int(np.count_nonzero(surface_distance(sigma, x) >= tol))
    return failures, sample_count


def verify_cs(
    kmap: KolmogorovMap,
    sigma: RadialManifold,
    kappa: float,
    sample_count: int = 1000,
    horizon: int = 200,
    seed: int = 0,
    attraction_tol: float = 1e-3,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Property battery for a computed surface.

    Counts violations instead of raising: the invariance defect, weak
    unorderedness, unit corners, strict growth of the symmetrized order
    function on ordered pairs, backward propagation of image order, and Monte
    Carlo attraction. The invariance defect is the largest ray gap to sigma of
    the images of sigma's vertex points; pushforward raises TrappingError when
    the points or their images leave the box [0, 1 + kappa]^d. tolerance is the
    radial error delta that the order check forgives (geometry.order_check).
    """
    grid = sigma.grid
    vacuous: list[str] = []

    images = pushforward(kmap, sigma, 1.0 + kappa).points
    invariance_defect = float(surface_distance(sigma, images).max())

    unorder, order_margin, tol_order = order_check(sigma, tolerance)
    if grid.dim == 1:  # one point, no cell: nothing to order
        unorder = order_margin = None
        vacuous.extend(["unorder_violations", "order_margin"])

    fixed_point_residuals = [abs(float(r) - 1.0) for r in sigma.radii[grid.corners]]

    if sample_count > 0:
        harnack_viol, harnack_pairs = harnack_battery(kmap, kappa, sample_count, seed)
        harnack_samples: int | None = harnack_viol
        retro_viol, retro_tested = retrotone_battery(kmap, kappa, sample_count, seed + 1)
        retrotone_samples: int | None = retro_viol
        failures, _ = attraction_battery(
            kmap, sigma, kappa, sample_count, horizon, attraction_tol, seed + 2
        )
        attraction_stats: float | None = 1.0 - failures / sample_count
    else:
        harnack_samples = None
        harnack_pairs = 0
        retrotone_samples = None
        retro_tested = 0
        attraction_stats = None
        failures = 0
        vacuous.extend(["harnack_samples", "retrotone_samples", "attraction_stats"])

    return VerificationReport(
        invariance_defect=invariance_defect,
        unorder_violations=unorder,
        order_margin=order_margin,
        fixed_point_residuals=fixed_point_residuals,
        harnack_samples=harnack_samples,
        harnack_pair_count=harnack_pairs,
        retrotone_samples=retrotone_samples,
        retrotone_ordered_count=retro_tested,
        attraction_stats=attraction_stats,
        attraction_failures=failures,
        sample_count=sample_count,
        horizon=horizon,
        seed=seed,
        attraction_tol=attraction_tol,
        tol_order=tol_order,
        vacuous=vacuous,
    )
