"""Test-only references for the graph transform.

`bisection_resample` is an independent planar resample that solves along the
image polyline by bisection, with no linear algebra, to cross-check the tiling
of `transform.resample`. `iterate_manifold` iterates one manifold under
`graph_step` until its steps are small, the single sequence whose fixed point
`simplex.compute_cs` encloses. `lockstep_sigma` is the two-sided sandwich
that steps the lower and the upper manifold on every iteration, the reference
for `compute_cs`'s held-then-inflated lower. `harnack` and
`vertex_hausdorff` are the point-set metrics, by their definitions, against
which the vertex passes `geometry.harnack_distance` and
`geometry.hausdorff_bound` are checked; `facet_partners` reads two flat-facet
surfaces as convex combinations of their vertex points, with no radius
formula. `dense_weakly_unordered` compares every pair of vertex points of
each face, the order that `geometry.order_check` decides from the facet
normals, and `row_ratios` is the projection ratio of point pairs by its
definition.
"""
import numpy as np

from csimplex.geometry import (
    BarycentricGrid,
    GridError,
    RadialManifold,
    box_boundary_manifold,
    constant_manifold,
    sup_gap,
    symmetrized_order,
    vertex_points,
)
from csimplex.maps import KolmogorovMap
from csimplex.transform import FoldError, PushforwardCloud, graph_step


def bisection_resample(cloud: PushforwardCloud, tol: float = 1e-13) -> RadialManifold:
    """Planar-only alternative solver: bisection along the image polyline.

    Solves T(p) = u for p on the polyline through the image points without any
    linear algebra, serving as an independent oracle for the tiling path.
    """
    grid = cloud.grid
    if grid.dim != 2:
        raise GridError("bisection resampling is a planar-only path")
    order = np.argsort(grid.vertices[:, 0], kind="stable")
    v1 = cloud.directions[order, 0]
    if not np.all(np.diff(v1) > 0.0):
        raise FoldError("image directions are not strictly monotone along the segment")
    pts = cloud.points[order]

    radii = np.empty(grid.n_vertices)
    for t, u in enumerate(grid.vertices):
        u1 = float(u[0])
        j = int(np.searchsorted(v1, u1))
        if j == 0:
            radii[t] = pts[0].sum()
            continue
        if j >= v1.shape[0]:
            radii[t] = pts[-1].sum()
            continue
        a, b = pts[j - 1], pts[j]

        def gap(s: float) -> float:
            p = (1.0 - s) * a + s * b
            return p[0] / p.sum() - u1

        lo, hi = 0.0, 1.0
        glo = gap(lo)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            gm = gap(mid)
            if gm == 0.0 or hi - lo < tol:
                break
            if (gm > 0.0) == (glo > 0.0):
                lo, glo = mid, gm
            else:
                hi = mid
        s = 0.5 * (lo + hi)
        radii[t] = float(((1.0 - s) * a + s * b).sum())
    corners = [grid.corner_index(i) for i in range(grid.dim)]
    radii[corners] = cloud.radii[corners]
    return RadialManifold(grid, radii)


def iterate_manifold(
    kmap: KolmogorovMap,
    seed_manifold: RadialManifold,
    box_top: float,
    step_tol: float = 1e-8,
    max_iter: int = 10000,
) -> tuple[RadialManifold, int, list]:
    """Iterate one manifold until successive iterates differ by less than step_tol."""
    current = seed_manifold
    history: list[float] = []
    for n in range(1, max_iter + 1):
        nxt = graph_step(kmap, current, box_top)
        step = sup_gap(nxt, current)
        history.append(step)
        current = nxt
        if step < step_tol:
            return current, n, history
    return current, max_iter, history


def lockstep_sigma(
    kmap: KolmogorovMap,
    grid: BarycentricGrid,
    kappa: float,
    epsilon: float,
    tolerance: float,
    max_iter: int = 10000,
) -> RadialManifold:
    """Midpoint of the lockstep sandwich: both sequences step until their gap passes tolerance."""
    box_top = 1.0 + kappa
    lower = constant_manifold(grid, epsilon)
    upper = box_boundary_manifold(grid, box_top)
    for _ in range(max_iter):
        lower, upper = graph_step(kmap, lower, box_top), graph_step(kmap, upper, box_top)
        if sup_gap(lower, upper) < tolerance:
            break
    return RadialManifold(grid, 0.5 * (lower.radii + upper.radii))


def harnack(x, y):
    """Harnack distance 1 - min(order both ways); 0 at equal points, 1 on disjoint supports.

    x and y have shape (..., d); a float for a single pair, else one value per row.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    zero = ~np.any(x > 0.0, axis=-1) | ~np.any(y > 0.0, axis=-1)
    if np.any(zero):
        row = "" if zero.ndim == 0 else f" (row {np.flatnonzero(zero)[0]})"
        raise ValueError(f"harnack distance needs nonzero points{row}")
    return 1.0 - symmetrized_order(x, y)


def facet_partners(a: RadialManifold, b: RadialManifold, u) -> tuple[np.ndarray, np.ndarray]:
    """The point of a's flat facets over each direction u, and b's point at the same weights.

    In the cell of u, a's point is the convex combination sum_k l_k p_k of its vertex
    points p_k = r_k v_k that lies on the ray of u: l_k is proportional to w_k / r_k, w the
    barycentric weights of u. b's partner is sum_k l_k p'_k, on b's facet of the same cell.
    """
    idx, w = a.grid.locate(u)
    lam = w / a.radii[idx]
    lam /= lam.sum(axis=1, keepdims=True)
    return (np.einsum("nk,nkd->nd", lam, vertex_points(a)[idx]),
            np.einsum("nk,nkd->nd", lam, vertex_points(b)[idx]))


def vertex_hausdorff(a, b) -> float:
    """Exact Hausdorff distance of two point sets by the broadcast formula, 256 rows at a time."""
    def directed(p, q):
        return max(np.sqrt(((p[s:s + 256, None] - q[None]) ** 2).sum(axis=-1)).min(axis=1).max()
                   for s in range(0, p.shape[0], 256))

    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return float(max(directed(a, b), directed(b, a)))


def dense_weakly_unordered(manifold: RadialManifold, tol_order: float) -> list:
    """Vertex pairs (i, j) of one support where point j exceeds point i by more than tol_order.

    Compared in every support coordinate, by one (n, n, s) array per support group;
    groups in increasing support key, pairs row-major.
    """
    pts = vertex_points(manifold)
    supp = manifold.grid.lattice > 0
    keys = supp @ (1 << np.arange(manifold.grid.dim))
    violations = []
    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        if members.size < 2:
            continue
        p = pts[np.ix_(members, np.flatnonzero(supp[members[0]]))]
        dom = (p[None, :, :] - p[:, None, :]).min(axis=-1) > tol_order
        for i, j in zip(*np.nonzero(dom)):
            violations.append((int(members[i]), int(members[j])))
    return violations


def row_ratios(pts, i, j):
    """|x_i - x_j| / |P(x_i - x_j)| for row pairs (i, j), P the projection onto e-perp; inf at 0."""
    diffs = pts[i] - pts[j]
    proj = diffs - diffs.mean(axis=1, keepdims=True)
    num = np.linalg.norm(diffs, axis=1)
    den = np.linalg.norm(proj, axis=1)
    return np.where(den > 1e-300, num / np.maximum(den, 1e-300), np.inf)
