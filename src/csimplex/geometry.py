"""Geometry of the probability simplex and of radially represented manifolds.

Directions live on the probability simplex Delta = {u >= 0, sum(u) = 1}.
A manifold of the admissible class is stored as one positive radius per
lattice direction; the surface point over u is R(u) * u, with R interpolated
piecewise-linearly over a simplicial decomposition of Delta.

The decomposition is the standard Kuhn triangulation expressed in cumulative
coordinates s_i = m * (u_1 + ... + u_i): the dilated simplex becomes the
region 0 <= s_1 <= ... <= s_{d-1} <= m, which is a union of complete Kuhn
cells of the integer cube grid, so point location needs only floor/sort.

The two metrics between manifolds of one grid are single passes over the
vertices. Both compare the points R(u) u and R'(u) u of one ray. The Harnack
distance of such a pair is 1 - min(R/R', R'/R), and a ratio of two positive
affine functions on a cell takes its extremes at the vertices, so the vertex
maximum is the exact supremum over the two surfaces (see harnack_distance).
The Hausdorff distance is bounded by the largest vertex gap, weighted by the
norm of the directions it can reach (see hausdorff_bound).
The dominance scan buckets the points on a grid and solves only the bucket
pairs whose boxes can hold a dominated pair (Bentley, Weide and Yao, ACM TOMS
6(4), 1980; see _dominated_pairs). One zero-tolerance run of it over all
vertex points answers both surface order checks (see order_scan): weak
unorderedness of the interior, and the projection Lipschitz ratio, which is
bounded, not searched, since a pair ordered in no direction has ratio at most
sqrt(d).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "GridError",
    "BarycentricGrid",
    "RadialManifold",
    "make_grid",
    "simplex_lattice",
    "order_function",
    "symmetrized_order",
    "radius_at",
    "vertex_points",
    "box_boundary_manifold",
    "constant_manifold",
    "sup_gap",
    "hausdorff_bound",
    "harnack_distance",
    "order_scan",
    "grid_spacing",
    "lipschitz_estimate",
]


class GridError(ValueError):
    """Point location failed or two grids are incompatible."""


def simplex_lattice(dim: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points k (nonnegative ints, sum = resolution) and directions k/resolution.

    The points are enumerated by their cumulative coordinates s = cumsum(k)[:-1],
    the ordered integer points 0 <= s_1 <= ... <= s_{d-1} <= m, in lexicographic
    order; this is lexicographic in k as well, so for dim = 2 the first
    coordinate of the directions is increasing.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    cube = np.indices((resolution + 1,) * (dim - 1))
    ordered = np.all(np.diff(cube, axis=0) >= 0, axis=0)
    s = np.moveaxis(cube, 0, -1)[ordered]
    lattice = np.diff(s, axis=1, prepend=0, append=resolution)
    return lattice, lattice / float(resolution)


@dataclass(frozen=True, eq=False)
class BarycentricGrid:
    """Simplicial lattice on the probability simplex.

    vertices[i] = lattice[i] / resolution, rows summing to one; cells hold the
    vertex indices of each top-dimensional simplex, cell_orient the sign of
    det([v_0 ... v_{d-1}]) for its canonical vertex order. s_table, the grid's
    one index, holds the vertex index at each integer cumulative coordinate s in
    [0, m]^(d-1): vertex k sits at s = cumsum(k)[:-1], and integer points outside
    the ordered region 0 <= s_1 <= ... <= s_{d-1} <= m hold -1.
    """

    dim: int
    resolution: int
    lattice: np.ndarray
    vertices: np.ndarray
    cells: np.ndarray
    cell_orient: np.ndarray
    s_table: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def vertex_index(self, k) -> int:
        k = [int(v) for v in k]
        if len(k) != self.dim or min(k) < 0 or sum(k) != self.resolution:
            raise GridError(f"{k} is not a lattice point of the grid")
        return int(self.s_table[tuple(itertools.accumulate(k[:-1]))])

    def corner_index(self, i: int) -> int:
        k = [0] * self.dim
        k[i] = self.resolution
        return self.vertex_index(k)

    @cached_property
    def corners(self) -> np.ndarray:
        """Vertex index of each unit corner e_i, in order of i; built once per grid."""
        return np.array([self.corner_index(i) for i in range(self.dim)])

    def compatible(self, other: "BarycentricGrid") -> bool:
        return self.dim == other.dim and self.resolution == other.resolution

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each cell edge once, as (vertex a, vertex b, length |u_a - u_b|); built once per grid.

        The edges of the Kuhn cells are the pairs s, s + delta of the ordered
        region with delta a nonzero vector of {0, 1}^(d-1); the region is convex,
        so each such pair lies in a cell. The one-point simplex has none.
        """
        m, tab = self.resolution, self.s_table
        a, b = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for delta in itertools.product((0, 1), repeat=self.dim - 1):
            if any(delta):
                lo = tab[tuple(slice(0, m + 1 - k) for k in delta)]
                hi = tab[tuple(slice(k, m + 1) for k in delta)]
                both = (lo >= 0) & (hi >= 0)
                a.append(lo[both])
                b.append(hi[both])
        a, b = np.concatenate(a), np.concatenate(b)
        return a, b, np.linalg.norm(self.vertices[a] - self.vertices[b], axis=1)

    @cached_property
    def reach(self) -> np.ndarray:
        """Per vertex k, the largest |v| over v_k and the vertices of the cells around k.

        Those vertices are k's neighbours along the cell edges. Every direction u
        of a cell around k has |u| <= reach[k], the norm being convex. Built once
        per grid; see hausdorff_bound.
        """
        norms = np.linalg.norm(self.vertices, axis=1)
        a, b, _ = self.edges
        reach = norms.copy()
        np.maximum.at(reach, a, norms[b])
        np.maximum.at(reach, b, norms[a])
        return reach

    def locate(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Containing cells of directions u as (vertex indices, barycentric weights).

        u has shape (d,) or (N, d); the results have the same shape, one cell
        per row.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.dim:
            raise GridError(f"direction must have shape ({self.dim},) or (N, {self.dim})")
        on = (np.abs(u.sum(axis=-1) - 1.0) <= 1e-12) & (u.min(axis=-1) >= -1e-12)
        if not np.all(on):
            if u.ndim == 1:
                raise GridError(f"point {u} is not on the simplex")
            k = int(np.argmin(on))
            raise GridError(f"point {u[k]} (row {k}) is not on the simplex")
        d, m = self.dim, self.resolution
        if d == 1:
            return np.zeros(u.shape, dtype=int), np.ones(u.shape)
        s = m * np.cumsum(np.maximum(u, 0.0), axis=-1)[..., :-1]
        s = np.maximum.accumulate(np.clip(s, 0.0, m), axis=-1)
        base = np.minimum(np.floor(s).astype(int), m - 1)
        frac = s - base
        D = d - 1
        # descending fractional parts; ties broken toward the larger index so
        # every partial-increment vertex stays inside the ordered region
        order = np.lexsort((np.broadcast_to(-np.arange(D), frac.shape), -frac), axis=-1)
        steps = np.zeros(frac.shape[:-1] + (d, D), dtype=int)
        np.put_along_axis(steps[..., 1:, :], order[..., None], 1, axis=-1)
        s_pts = base[..., None, :] + np.cumsum(steps, axis=-2)
        fs = np.take_along_axis(frac, order, axis=-1)
        weights = np.empty(u.shape)
        weights[..., 0] = 1.0 - fs[..., 0]
        weights[..., 1:D] = fs[..., :-1] - fs[..., 1:]
        weights[..., D] = fs[..., -1]
        weights = np.maximum(weights, 0.0)
        idx = self.s_table[tuple(np.moveaxis(s_pts, -1, 0))]
        if np.any(idx < 0):  # pragma: no cover - defensive
            raise GridError("point location failed")
        return idx, weights


def make_grid(dim: int, resolution: int) -> BarycentricGrid:
    """Build the lattice grid with its Kuhn-cell decomposition.

    Cell vertices are base + (unit steps along perm), for every integer base of
    [0, m - 1]^(d-1) in lexicographic order and, within a base, every
    permutation in itertools order; a cell is kept when all its vertices lie in
    the ordered region.
    """
    lattice, vertices = simplex_lattice(dim, resolution)
    m, D = resolution, dim - 1
    s_table = np.full((m + 1,) * D, -1, dtype=np.intp)
    if D == 0:  # the one-point simplex: one vertex, no cells
        s_table[...] = 0
        return BarycentricGrid(dim, m, lattice, vertices, np.empty((0, 1), dtype=int),
                               np.empty((0,), dtype=int), s_table)
    s_table[tuple(np.cumsum(lattice[:, :-1], axis=1).T)] = np.arange(lattice.shape[0])

    bases = np.indices((m,) * D).reshape(D, -1).T
    bases = bases[np.all(np.diff(bases, axis=1) >= 0, axis=1)]  # a cell's base is its vertex 0
    perms = np.array(list(itertools.permutations(range(D))))
    steps = np.zeros((perms.shape[0], D + 1, D), dtype=int)
    steps[:, 1:] = np.cumsum(np.eye(D, dtype=int)[perms], axis=1)
    pts = (bases[:, None, None, :] + steps).reshape(-1, D + 1, D)
    keep = np.all(np.diff(pts, axis=-1) >= 0, axis=(1, 2))
    cells = s_table[tuple(np.moveaxis(pts[keep], -1, 0))]
    # the cell of permutation pi has sign det([v_0 ... v_D]) = (-1)^(d+1) sign(pi)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    orient = np.tile((-1) ** (dim + 1 + inversions), bases.shape[0])[keep]
    return BarycentricGrid(dim, m, lattice, vertices, cells, orient, s_table)


@dataclass(frozen=True, eq=False)
class RadialManifold:
    """Positive radii over a grid; the surface {R(u) u : u in Delta}."""

    grid: BarycentricGrid
    radii: np.ndarray

    def __post_init__(self):
        radii = np.array(self.radii, dtype=float)  # own copy; manifolds are immutable values
        radii.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        if radii.shape != (self.grid.n_vertices,):
            raise GridError("radii do not match the grid")
        if not np.all(np.isfinite(radii)) or np.any(radii <= 0.0):
            raise ValueError("radii must be strictly positive and finite")


def order_function(x, y):
    """sup{t >= 0 : y - t x stays in the nonnegative cone}; inf iff x = 0.

    x and y have shape (..., d); a float for a single point, else one value per row.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ratios = np.divide(y, x, out=np.full(np.broadcast_shapes(x.shape, y.shape), np.inf),
                       where=x > 0.0)
    t = ratios.min(axis=-1)
    return float(t) if t.ndim == 0 else t


def symmetrized_order(x, y):
    t = np.minimum(order_function(x, y), order_function(y, x))
    return float(t) if t.ndim == 0 else t


def radius_at(manifold: RadialManifold, u):
    """Interpolated radius R(u): a float for u of shape (d,), an (N,) array for (N, d)."""
    idx, w = manifold.grid.locate(u)
    r = np.vecdot(w, manifold.radii[idx])
    return float(r) if r.ndim == 0 else r


def vertex_points(manifold: RadialManifold) -> np.ndarray:
    """All vertex sample points R(u_i) u_i as an (N, d) array."""
    return manifold.radii[:, None] * manifold.grid.vertices


def constant_manifold(grid: BarycentricGrid, value: float) -> RadialManifold:
    return RadialManifold(grid, np.full(grid.n_vertices, float(value)))


def box_boundary_manifold(grid: BarycentricGrid, a: float) -> RadialManifold:
    """Boundary of the box [0, a]^d as a radial manifold: R(u) = a / max_i(u_i)."""
    if a <= 0.0:
        raise ValueError("box size must be positive")
    return RadialManifold(grid, a / grid.vertices.max(axis=1))


def sup_gap(a: RadialManifold, b: RadialManifold) -> float:
    """Max vertexwise |R - R'| for two manifolds on the same grid."""
    if not a.grid.compatible(b.grid):
        raise GridError("manifolds live on different grids")
    return float(np.max(np.abs(a.radii - b.radii)))


def hausdorff_bound(a: RadialManifold, b: RadialManifold) -> float:
    """Upper bound of the Hausdorff distance of two piecewise-linear surfaces on one grid.

    The point R(u) u of one surface, u in a cell, has the partner R'(u) u on the
    other, at distance |R(u) - R'(u)| |u|. Both factors are at most their vertex
    maxima over the cell, so max_k |R_k - R'_k| * grid.reach[k] bounds every such
    distance, both ways. It is at most sup_gap, and at least the Hausdorff
    distance of the two vertex clouds; for d = 1 it is |R - R'|.
    """
    if not a.grid.compatible(b.grid):
        raise GridError("manifolds live on different grids")
    return float(np.max(np.abs(a.radii - b.radii) * a.grid.reach))


def harnack_distance(a: RadialManifold, b: RadialManifold) -> float:
    """Largest Harnack distance between the points R(u) u and R'(u) u of a ray, over all u.

    The points of one ray are ordered both ways with factors R/R' and R'/R, so their
    Harnack distance is 1 - min(R/R', R'/R). Over a cell, a ratio of two positive
    affine functions takes its extremes at the vertices, so the vertex maximum is
    exact for the two piecewise-linear surfaces.
    """
    if not a.grid.compatible(b.grid):
        raise GridError("manifolds live on different grids")
    return float(1.0 - np.minimum(a.radii / b.radii, b.radii / a.radii).min())


# Row pairs in one block of the dominance scan _dominated_pairs: each temporary
# stays near half a MB, whatever the number of points. The size has not been
# timed on this scan.
PAIR_BLOCK = 1 << 16
# Rows per occupied bucket of _buckets, the grid of the dominance scan _dominated_pairs.
# Larger buckets loosen the box test, so more pairs are solved; smaller ones make more
# bucket pairs to screen. On converged 3-species surfaces at res 128 and 4-species at
# res 32, the per-support scan of weak unorderedness took 0.33 s at 4 rows, 0.29 s at 5
# and at 6 rows (medians of 15, 2-core x86_64).
RATIO_FILL = 5


def _pair_ratios(pts, i, j) -> np.ndarray:
    """|x_i - x_j| / |P(x_i - x_j)| for row pairs (i, j); inf where the projection is <= 1e-300.

    Columns are gathered and summed one at a time, ((c0 + c1) + c2) ..., the order of
    numpy's norm and mean over a short axis, so for d < 8 each ratio equals the row formula's.
    """
    diffs = [pts[i, k] - pts[j, k] for k in range(pts.shape[1])]
    mean = sum(diffs) / len(diffs)
    num = np.sqrt(sum(c * c for c in diffs))
    den = np.sqrt(sum((c - mean) ** 2 for c in diffs))
    return np.where(den > 1e-300, num / np.maximum(den, 1e-300), np.inf)


def _buckets(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of grid (n, k) in buckets of a regular grid, about RATIO_FILL rows each.

    Returns (perm, start, count): bucket b holds rows perm[start[b]:][:count[b]] in increasing order.
    """
    n = grid.shape[0]
    grid = grid - grid.min(axis=0)
    unit, k = grid.max() or 1.0, grid.shape[1]
    m = (n / RATIO_FILL) ** (1.0 / k)  # cells along the longest axis, were the box filled
    for _ in range(2):  # then corrected once by the measured fill
        side = max(1, int(m))
        cells = np.minimum(grid * (side / unit), side - 1).astype(np.intp)
        key = np.ravel_multi_index(cells.T, (side,) * k)
        perm = np.argsort(key, kind="stable")
        start, count = np.unique(key[perm], return_index=True, return_counts=True)[1:]
        m *= (n / start.size / RATIO_FILL) ** (1.0 / k)
    return perm, start, count


def _row_pairs(buckets, pa, pb, budget):
    """Row pairs of the bucket pairs (pa[k], pb[k]) of buckets = (perm, start, count), in order.

    Yields blocks of budget pairs (k, i, j): each pair's bucket pair k and its rows' positions
    in perm, i in bucket pa[k] and j, running fastest, in pb[k].
    """
    perm, start, count = buckets
    sizes = count[pa] * count[pb]
    ends = np.cumsum(sizes)
    for pos in range(0, int(sizes.sum()), budget):
        flat = np.arange(pos, min(pos + budget, ends[-1]))
        k = np.searchsorted(ends, flat, side="right")
        i, j = np.divmod(flat - (ends[k] - sizes[k]), count[pb[k]])
        del flat  # a generator's locals stay alive while its caller works
        i += start[pa[k]]
        j += start[pb[k]]
        yield k, i, j


def _flagged(p, i, j, tol_order) -> np.ndarray:
    """The row pairs (i, j) of p, as a (2, k) array, where p_j - p_i > tol_order in every column."""
    low = p[j, 0] - p[i, 0]
    for k in range(1, p.shape[1]):
        np.minimum(low, p[j, k] - p[i, k], out=low)
    keep = low > tol_order
    return np.stack([i[keep], j[keep]])


def _dominated_pairs(p, tol_order) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, j) of p (n, s), in row-major order, where p_j - p_i > tol_order in every column.

    Sets above one block of PAIR_BLOCK pairs are bucketed over q = p - mean. A bucket pair
    (A, B) can hold such a pair only if max_B p_k - min_A p_k > tol_order in every column
    k, an exact test since fl(x - y) is monotone in x and y. Bucket pairs are screened,
    and the row pairs of those that pass solved, PAIR_BLOCK at a time.
    """
    n, s = p.shape
    if n * n <= PAIR_BLOCK:  # one dense block
        low = p[None, :, 0] - p[:, None, 0]
        for k in range(1, s):
            np.minimum(low, p[None, :, k] - p[:, None, k], out=low)
        return np.nonzero(low > tol_order)
    perm, start, count = _buckets((p - p.mean(axis=1, keepdims=True))[:, :min(s - 1, 3) or 1])
    lo, hi = (f.reduceat(p[perm], start, axis=0).T.copy() for f in (np.minimum, np.maximum))
    found = []
    rows = max(1, PAIR_BLOCK // start.size)
    for first in range(0, start.size, rows):
        a = np.arange(first, min(start.size, first + rows))
        can = hi[0] - lo[0, a, None] > tol_order
        for k in range(1, s):
            can &= hi[k] - lo[k, a, None] > tol_order
        ii, jj = np.nonzero(can)
        for _, i, j in _row_pairs((perm, start, count), a[ii], jj, PAIR_BLOCK):
            # a call, so a block's temporaries are freed before the next block is built
            found.append(_flagged(p, perm[i], perm[j], tol_order))
    i, j = np.concatenate(found or [np.empty((2, 0), dtype=np.intp)], axis=1)
    order = np.lexsort((j, i))
    return i[order], j[order]


def order_scan(manifold: RadialManifold, tol_order: float) -> tuple[list[tuple[int, int]], float]:
    """Weak unorderedness and the projection Lipschitz bound of the vertex points, in one scan.

    Returns (violations, ratio_bound). violations are the vertex pairs (i, j) with common
    support where the point of j exceeds the point of i by more than tol_order >= 0 in
    every support coordinate, in row-major order within each support group, groups in
    increasing support key; an admissible manifold has none. ratio_bound bounds
    |x - y| / |P(x - y)| over all pairs, P the projection onto e-perp: if v = y - x has
    sum(v) >= 0 and some v_j <= 0, then sum_{i != j} v_i >= sum(v) >= 0, Cauchy-Schwarz
    gives sum(v)^2 <= (d - 1) |v|^2, and |Pv|^2 = |v|^2 - sum(v)^2 / d >= |v|^2 / d. So
    the bound is sqrt(d), raised by the ratios (_pair_ratios) of the strictly ordered pairs.

    The sign of a float difference is exact, so one zero-tolerance _dominated_pairs scan
    over all points and coordinates finds those pairs. It also gives the violations of
    the interior, whose support is full: the flagged pairs of two interior points whose
    least difference, as the scan computed it, exceeds tol_order. Only the small
    proper-face groups are scanned again, on their support columns at tol_order. Memory
    stays linear in the number of vertices; the points of a manifold are finite and
    distinct.
    """
    if tol_order < 0.0:
        raise ValueError("tol_order must be nonnegative")
    pts = vertex_points(manifold)
    supp = manifold.grid.lattice > 0
    keys = supp @ (1 << np.arange(manifold.grid.dim))
    interior = supp.all(axis=1)
    by_key = np.argsort(keys, kind="stable")
    violations: list[tuple[int, int]] = []
    for members in np.split(by_key, np.flatnonzero(np.diff(keys[by_key])) + 1):
        if members.size > 1 and not interior[members[0]]:  # the interior, the largest key, is last
            cols = np.flatnonzero(supp[members[0]])
            i, j = _dominated_pairs(pts[np.ix_(members, cols)], tol_order)
            violations.extend(zip(members[i].tolist(), members[j].tolist()))
    i, j = _dominated_pairs(pts, 0.0)
    keep = interior[i] & interior[j] & ((pts[j] - pts[i]).min(axis=1) > tol_order)
    violations.extend(zip(i[keep].tolist(), j[keep].tolist()))
    return violations, float(_pair_ratios(pts, i, j).max(initial=np.sqrt(pts.shape[1])))


def grid_spacing(grid: BarycentricGrid) -> float:
    """Longest edge of any cell (zero for the one-point simplex)."""
    return float(grid.edges[2].max(initial=0.0))


def lipschitz_estimate(manifold: RadialManifold) -> float:
    """Empirical Lipschitz bound of the radius over all cell edges."""
    a, b, e = manifold.grid.edges
    return float((np.abs(manifold.radii[a] - manifold.radii[b]) / e).max(initial=0.0))
