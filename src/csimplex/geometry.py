"""Geometry of the probability simplex and of radially represented manifolds.

Directions live on the probability simplex Delta = {u >= 0, sum(u) = 1}.
A manifold of the admissible class is stored as one positive radius per
lattice direction. Its surface is the union of the flat facets through the
vertex points of each cell of a simplicial decomposition of Delta: over u it
is R(u) u with 1/R = sum_k w_k / r_k affine in the cell's weights, so R lies
between the cell's vertex radii and grows with each (see facet_radius).

The decomposition is the standard Kuhn triangulation expressed in cumulative
coordinates s_i = m * (u_1 + ... + u_i): the dilated simplex becomes the
region 0 <= s_1 <= ... <= s_{d-1} <= m, which is a union of complete Kuhn
cells of the integer cube grid, so point location needs only floor/sort.

The two metrics between manifolds of one grid are single passes over the
vertices. The Harnack distance of the points R(u) u and R'(u) u of one ray
is 1 - min(R/R', R'/R); R/R' is a ratio of positive affine functions of the
weights on a cell, so the vertex maximum is the exact supremum (see
harnack_distance). The Hausdorff distance is bounded by the largest distance
between corresponding vertex points (see hausdorff_bound). The order check
reads the same facets as a·x = 1, one pass over cells (see order_check).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
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
    "facet_radius",
    "radius_at",
    "vertex_points",
    "box_boundary_manifold",
    "constant_manifold",
    "sup_gap",
    "hausdorff_bound",
    "harnack_distance",
    "facet_normals",
    "order_check",
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
    n, D = math.comb(resolution + dim - 1, dim - 1), dim - 1
    # the ordered points are the multisets of D values in [0, m], listed in lexicographic order
    flat = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(resolution + 1), D))
    s = np.fromiter(flat, dtype=np.intp, count=n * D).reshape(n, D)
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
    def norms(self) -> np.ndarray:
        """|v_k| of every vertex direction; built once per grid, see hausdorff_bound."""
        return np.linalg.norm(self.vertices, axis=1)

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
    the ordered region: its base is ordered and, at each tie b_i = b_{i+1}, axis
    i+1 is stepped no later than axis i, read off a (bases x permutations) mask.
    """
    lattice, vertices = simplex_lattice(dim, resolution)
    m, D = resolution, dim - 1
    s_table = np.full((m + 1,) * D, -1, dtype=np.intp)
    if D == 0:  # the one-point simplex: one vertex, no cells
        s_table[...] = 0
        return BarycentricGrid(dim, m, lattice, vertices, np.empty((0, 1), dtype=int),
                               np.empty((0,), dtype=int), s_table)
    s = np.cumsum(lattice[:, :-1], axis=1)
    s_table[tuple(s.T)] = np.arange(lattice.shape[0])

    bases = s[s[:, -1] < m]  # a cell's base is its vertex 0
    perms = np.array(list(itertools.permutations(range(D))))
    ties = bases[:, 1:] == bases[:, :-1]
    late = np.argsort(perms, axis=1)  # the step at which each axis is taken
    late = late[:, 1:] > late[:, :-1]  # axis i+1 stepped after axis i
    keep = np.empty((bases.shape[0], perms.shape[0]), dtype=bool)
    for p in range(perms.shape[0]):
        keep[:, p] = ~ties[:, late[p]].any(axis=1)
    base, perm = np.nonzero(keep)  # base-major, then itertools order
    steps = np.zeros((perms.shape[0], D + 1, D), dtype=int)
    steps[:, 1:] = np.cumsum(np.eye(D, dtype=int)[perms], axis=1)
    stride = (m + 1) ** np.arange(D - 1, -1, -1)  # flat offsets into s_table
    start, offset, table = (bases @ stride)[base], steps @ stride, s_table.ravel()
    cells = np.empty((base.size, D + 1), dtype=np.intp)
    for j in range(D + 1):
        cells[:, j] = table[start + offset[perm, j]]
    # the cell of permutation pi has sign det([v_0 ... v_D]) = (-1)^(d+1) sign(pi)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    orient = ((-1) ** (dim + 1 + inversions))[perm]
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


def facet_radius(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """1 / sum_k w_k / r_k: the flat facet through the points r_k v_k at weights w (..., d)."""
    return 1.0 / (w / r).sum(axis=-1)


def radius_at(manifold: RadialManifold, u):
    """Radius R(u) of the surface: a float for u of shape (d,), an (N,) array for (N, d)."""
    idx, w = manifold.grid.locate(u)
    r = facet_radius(w, manifold.radii[idx])
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
    """Upper bound of the Hausdorff distance of two flat-facet surfaces on one grid.

    Each surface is the union over cells of the simplices conv{p_k}, p_k = R_k v_k,
    so a point sum_k l_k p_k of one has the partner sum_k l_k p'_k on the other, at
    distance at most max_k |p_k - p'_k| = max_k |R_k - R'_k| |v_k|, both ways. It
    is at most sup_gap, since |v_k| <= 1, and at least the Hausdorff distance of
    the two vertex clouds; for d = 1 it is |R - R'|.
    """
    if not a.grid.compatible(b.grid):
        raise GridError("manifolds live on different grids")
    return float(np.max(np.abs(a.radii - b.radii) * a.grid.norms))


def harnack_distance(a: RadialManifold, b: RadialManifold) -> float:
    """Largest Harnack distance between the points R(u) u and R'(u) u of a ray, over all u.

    The points of one ray are ordered both ways with factors R/R' and R'/R, so their
    Harnack distance is 1 - min(R/R', R'/R). Over a cell, R/R' is a ratio of two
    positive affine functions of the weights, sum_k w_k / r'_k over sum_k w_k / r_k,
    so the vertex maximum is exact for the two flat-facet surfaces.
    """
    if not a.grid.compatible(b.grid):
        raise GridError("manifolds live on different grids")
    return float(1.0 - np.minimum(a.radii / b.radii, b.radii / a.radii).min())


def facet_normals(grid: BarycentricGrid, cells: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal a of each cell's flat facet a·x = 1 through the points v_k / b_k, as (cells, d).

    Edge j of the Kuhn path steps axis l_j: delta_l = b_{j+1} - b_j, a_{d-1} = b_0 - sum_l s0_l
    delta_l with s0 the base's cumulative coordinates, and a_i = a_{d-1} + m sum_{l >= i} delta_l.
    b, one value per vertex, meets only +, - and *, so it may hold Fractions; no temporary
    exceeds a column.
    """
    m, D = grid.resolution, grid.dim - 1
    pos = np.flatnonzero(grid.s_table.ravel() >= 0)  # flat offsets, in vertex (lexicographic) order
    stride = (m + 1) ** np.arange(D)  # a step along axis D - 1 - up adds stride[up]
    a, rows = np.empty(cells.shape, dtype=b.dtype), np.arange(cells.shape[0])
    for j in range(D):
        up = np.searchsorted(stride, pos[cells[:, j + 1]] - pos[cells[:, j]])
        a[rows, D - 1 - up] = b[cells[:, j + 1]] - b[cells[:, j]]
    base, last = pos[cells[:, 0]], b[cells[:, 0]]
    for l in range(D - 1, -1, -1):
        base, s0 = np.divmod(base, m + 1)
        last = last - s0 * a[:, l]
    a[:, D], tail = last, 0
    for i in range(D - 1, -1, -1):
        tail = tail + a[:, i]
        a[:, i] = last + m * tail
    return a


def order_check(manifold: RadialManifold, delta: float) -> tuple[int, float, float]:
    """Weak unorderedness of the flat-facet surface from its facet normals, in one pass over cells.

    Returns (violations, margin, tol): the number of cells whose normal a has
    min a_i < -tol, the least min a_i / |a| over all cells (inf without cells),
    and tol = K delta / (r_min (r_min - delta)) with K = 1 + 2 (d - 1) m.

    With margin >= 0, a·x grows along every increasing path, so the region under
    the surface is a down-set and its boundary, vertex and face points included,
    holds no strictly ordered pair. For two such points take v = y - x with
    sum(v) >= 0; some v_j <= 0, so sum(v)^2 <= (sum_{i != j} v_i)^2 <= (d - 1) |v|^2
    and |Pv|^2 = |v|^2 - sum(v)^2 / d >= |v|^2 / d, P the projection onto e-perp:
    the projection Lipschitz ratio is at most sqrt(d).

    Radii moved by at most delta move b = 1/r by at most delta / (r_min (r_min - delta)),
    and a = V^-1 b by at most ||V^-1||_inf times that (tol is inf for delta >= r_min,
    which can reach zero radius). ||V^-1||_inf <= K: as sum_i v0_i = 1, each a_j is
    a·v_0 + sum_i v0_i (a_j - a_i), with |a·v_0| = |b_0| <= |b|_inf. The Kuhn path's edge
    along axis l moves the direction by (e_l - e_{l+1}) / m, so a_l - a_{l+1} is m times
    one change of b, at most 2 m |b|_inf; the path takes each of the d - 1 axes once, so
    |a_j - a_i| <= 2 (d - 1) m |b|_inf and |a_j| <= K |b|_inf. A flagged cell is thus a
    violation that no delta-perturbation of the radii explains.

    facet_normals evaluates that path to about 2 d K eps |b|_inf; a cell whose least entry is
    within 4 d K eps |b|_inf of zero is evaluated again on the rationals 1/r, so margin has the
    sign of the exact facets through the points (k/m) r_k, exact lattice directions included.
    """
    grid = manifold.grid
    r_min = float(manifold.radii.min())
    k = 1 + 2 * (grid.dim - 1) * grid.resolution
    tol = k * delta / (r_min * (r_min - delta)) if delta < r_min else np.inf
    a = facet_normals(grid, grid.cells, 1.0 / manifold.radii)
    near = np.flatnonzero(np.abs(a.min(axis=1)) <= 4 * grid.dim * k * np.finfo(float).eps / r_min)
    cells, b = grid.cells[near], np.empty(grid.n_vertices, dtype=object)
    b[cells] = 1 / np.frompyfunc(Fraction, 1, 1)(manifold.radii[cells])
    a[near] = facet_normals(grid, cells, b).astype(float)
    low = a.min(axis=1)
    margin = float((low / np.linalg.norm(a, axis=1)).min(initial=np.inf))
    return int(np.count_nonzero(low < -tol)), margin, tol


def grid_spacing(grid: BarycentricGrid) -> float:
    """Longest edge of any cell (zero for the one-point simplex)."""
    return float(grid.edges[2].max(initial=0.0))


def lipschitz_estimate(manifold: RadialManifold) -> float:
    """Empirical Lipschitz bound of the radius over all cell edges."""
    a, b, e = manifold.grid.edges
    return float((np.abs(manifold.radii[a] - manifold.radii[b]) / e).max(initial=0.0))
