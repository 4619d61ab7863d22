"""Geometry of the probability simplex and of radially represented manifolds.

Directions live on the probability simplex Delta = {u >= 0, sum(u) = 1}.
A manifold of the admissible class is stored as one positive radius per
lattice direction; the surface point over u is R(u) * u, with R interpolated
piecewise-linearly over a simplicial decomposition of Delta.

The decomposition is the standard Kuhn triangulation expressed in cumulative
coordinates s_i = m * (u_1 + ... + u_i): the dilated simplex becomes the
region 0 <= s_1 <= ... <= s_{d-1} <= m, which is a union of complete Kuhn
cells of the integer cube grid, so point location needs only floor/sort.

The metrics between point sets are exact and linear in memory. The nearest
point search behind the Hausdorff distance is pruned to a band: each query's
distance to its same-index partner (for two vertex clouds of one grid, the
radial gap at that vertex) bounds how far its nearest point can lie along the
key coordinate, and only the points within that bound, widened by a relative
margin against rounding, are compared (see nearest_distances). The
Hausdorff distance needs only the largest nearest distance, so it solves rows
in descending order of that bound and stops at the first whose bound cannot
exceed the largest found: an exact early exit (Taha and Hanbury, IEEE TPAMI
37(11), 2015; see hausdorff_points). The projection Lipschitz ratio prunes its
pairs by grid buckets and the same exact early exit (see projection_ratio_max),
and the dominance scan of weak unorderedness runs in row blocks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridError",
    "BarycentricGrid",
    "RadialManifold",
    "make_grid",
    "simplex_lattice",
    "radial_project",
    "order_function",
    "symmetrized_order",
    "harnack",
    "restricted_harnack",
    "project_e_perp",
    "eval_radial",
    "radius_at",
    "vertex_points",
    "box_boundary_manifold",
    "constant_manifold",
    "sup_gap",
    "hausdorff_points",
    "nearest_distances",
    "projection_ratio_max",
    "is_weakly_unordered",
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

    def compatible(self, other: "BarycentricGrid") -> bool:
        return self.dim == other.dim and self.resolution == other.resolution

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
    pts = pts[np.all(np.diff(pts, axis=-1) >= 0, axis=(1, 2))]
    cells = s_table[tuple(np.moveaxis(pts, -1, 0))]
    orient = np.sign(np.linalg.det(np.swapaxes(vertices[cells], 1, 2))).astype(int)
    return BarycentricGrid(dim, m, lattice, vertices, cells, orient, s_table)


@dataclass(frozen=True, eq=False)
class RadialManifold:
    """Positive radii over a grid; the surface {R(u) u : u in Delta}."""

    grid: BarycentricGrid
    radii: np.ndarray
    provenance: str = ""
    iteration: int = 0

    def __post_init__(self):
        radii = np.array(self.radii, dtype=float)  # own copy; manifolds are immutable values
        radii.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        if radii.shape != (self.grid.n_vertices,):
            raise GridError("radii do not match the grid")
        if not np.all(np.isfinite(radii)) or np.any(radii <= 0.0):
            raise ValueError("radii must be strictly positive and finite")


def radial_project(x) -> np.ndarray:
    """Direction x / ||x||_1 on the simplex of each row of x, shape (..., d); undefined at 0."""
    x = np.asarray(x, dtype=float)
    s = x.sum(axis=-1, keepdims=True)
    bad = (s[..., 0] <= 0.0) | np.any(x < 0.0, axis=-1)
    if np.any(bad):
        row = "" if x.ndim == 1 else f" (row {np.flatnonzero(bad)[0]})"
        raise ValueError(f"radial projection needs a nonzero nonnegative point{row}")
    return x / s


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


def restricted_harnack(x, y, support) -> float:
    """Harnack distance after masking the coordinates outside the given support."""
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[list(support)] = True
    x[~mask] = 0.0
    y[~mask] = 0.0
    return harnack(x, y)


def project_e_perp(x) -> np.ndarray:
    """Projection of each row of x, shape (..., d), onto the hyperplane orthogonal to (1, ..., 1)."""
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=-1, keepdims=True)


def radius_at(manifold: RadialManifold, u):
    """Interpolated radius R(u): a float for u of shape (d,), an (N,) array for (N, d)."""
    idx, w = manifold.grid.locate(u)
    r = np.vecdot(w, manifold.radii[idx])
    return float(r) if r.ndim == 0 else r


def eval_radial(manifold: RadialManifold, u) -> np.ndarray:
    """Surface points R(u) * u with R interpolated over the containing cells."""
    u = np.asarray(u, dtype=float)
    return np.asarray(radius_at(manifold, u))[..., None] * u


def vertex_points(manifold: RadialManifold) -> np.ndarray:
    """All vertex sample points R(u_i) u_i as an (N, d) array."""
    return manifold.radii[:, None] * manifold.grid.vertices


def constant_manifold(grid: BarycentricGrid, value: float, provenance: str = "") -> RadialManifold:
    return RadialManifold(grid, np.full(grid.n_vertices, float(value)), provenance)


def box_boundary_manifold(grid: BarycentricGrid, a: float, provenance: str = "") -> RadialManifold:
    """Boundary of the box [0, a]^d as a radial manifold: R(u) = a / max_i(u_i)."""
    if a <= 0.0:
        raise ValueError("box size must be positive")
    return RadialManifold(grid, a / grid.vertices.max(axis=1), provenance)


def sup_gap(a: RadialManifold, b: RadialManifold) -> float:
    """Max vertexwise |R - R'| for two manifolds on the same grid."""
    if not a.grid.compatible(b.grid):
        raise GridError("manifolds live on different grids")
    return float(np.max(np.abs(a.radii - b.radii)))


# Elements in one block of a pairwise computation: each temporary stays near
# half a MB, whatever the number of points. Among 2^14 ... 2^22 this block
# timed fastest, or within 12% of it, for the all-pairs Hausdorff distance of
# two sets of 1225 to 8385 points; the band search of nearest_distances timed
# within 10% of its best at 2^15 and 2^16 on the same sets.
PAIR_BLOCK = 1 << 16


# Relative widening of a search band in nearest_distances. Rounding moves a
# computed distance or key difference by a few ulps (about 1e-16 relative),
# far less than this.
BAND_MARGIN = 1e-9
# Most rows of a in one block of the band search. The union of a block's bands
# grows by about one row of b per row of a, so larger blocks solve more pairs
# that no row needs, and much smaller ones pay a block's fixed cost (a dozen
# numpy calls) too often. Over the 23 Hausdorff distances of a 3-species run
# at res 48 (medians of 9), 64 and 128 rows took 0.15 s, 32 rows 0.18 s, and
# blocks capped by PAIR_BLOCK alone 0.18 s.
BAND_ROWS = 64
# Rows per occupied bucket of the grid in projection_ratio_max. Larger buckets loosen
# its bounds, so more pairs are solved; smaller ones make more bucket pairs to screen.
# On converged 3-species surfaces at res 128 and 4-species at res 32, 4 rows took 0.50
# and 0.43 s, 6 rows 0.53 and 0.55 s, 3 rows 0.55 and 0.48 s (medians of 7).
RATIO_FILL = 4


def _sq_dists(p, q, buf=None) -> np.ndarray:
    """Squared distances |p - q|^2 of broadcast rows, added as ((d0 + d1) + d2) ...

    For d < 8 this is the order of numpy's .sum(axis=-1), so the result equals
    ((p - q) ** 2).sum(axis=-1) bit for bit. The result and its one temporary
    are views of buf, a (2, >= size) scratch array, when one is given: a loop
    over blocks then allocates nothing, where fresh half-MB temporaries (which
    malloc maps and unmaps each time) doubled the time per pair.
    """
    if buf is None:
        d2 = p[..., 0] - q[..., 0]
        diff = np.empty_like(d2)
    else:
        shape = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
        d2, diff = (row[:np.prod(shape)].reshape(shape) for row in buf)
        np.subtract(p[..., 0], q[..., 0], out=d2)
    d2 *= d2
    for k in range(1, p.shape[-1]):
        np.subtract(p[..., k], q[..., k], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _band_sq(a, b, key, bound) -> np.ndarray:
    """Squared nearest distances from the rows of a to b, by the band rules of nearest_distances.

    b is sorted on its column key, in Fortran order; bound[i] >= row i's distance (inf, NaN: none).
    """
    order = np.argsort(a[:, key])
    a, bound = a[order], bound[order]
    width = bound + BAND_MARGIN * (bound + np.abs(a[:, key])) + 1e-150
    whole = ~np.isfinite(width)
    width[whole] = 0.0
    lo = np.searchsorted(b[:, key], a[:, key] - width, side="left")
    hi = np.searchsorted(b[:, key], a[:, key] + width, side="right")
    lo[whole], hi[whole] = 0, b.shape[0]
    out = np.empty(a.shape[0])
    buf = np.empty((2, max(PAIR_BLOCK, b.shape[0])))  # a block is within PAIR_BLOCK, or one row
    start = 0
    while start < a.shape[0]:
        # the union of the bands grows with the rows; the first row's band caps them
        cap = max(1, PAIR_BLOCK // max(1, hi[start] - lo[start]))
        stop = min(a.shape[0], start + min(BAND_ROWS, cap))
        s = np.minimum.accumulate(lo[start:stop])
        e = np.maximum.accumulate(hi[start:stop])
        fits = np.arange(1, stop - start + 1) * (e - s) <= PAIR_BLOCK
        rows = max(1, int(np.count_nonzero(fits)))
        blk = slice(start, start + rows)
        band = b[None, s[rows - 1]:e[rows - 1]]
        out[order[blk]] = _sq_dists(a[blk, None], band, buf).min(axis=1)
        start += rows
    return out


def nearest_distances(a, b) -> np.ndarray:
    """Distance from each row of a to the nearest row of b.

    Exact: each distance equals that of the broadcast (|a|, |b|, d) formula
    bit for bit, since every pair solved uses the arithmetic of _sq_dists and
    a minimum does not depend on the order of its terms. Memory stays linear
    in |a| + |b|.

    When |a| * |b| <= PAIR_BLOCK all pairs are solved in one block. Otherwise
    the search is pruned to a band (_band_sq):
    - seed bound: row i of a gets r_i = |a_i - b_i|, its distance to the
      same-index row of b (for two vertex clouds of one grid, the radial gap
      at vertex i, so at most sup_gap); rows with no partner, and all rows
      when b is not finite, get inf. The nearest row of b lies within r_i of
      a_i, so its key differs from a_i's by at most r_i;
    - band rule: both sets are sorted on the key coordinate, the one in
      which b spreads most, and row i is compared only with the contiguous
      rows of b whose key lies within w_i = r_i + BAND_MARGIN * (r_i +
      |key_i|) + 1e-150 of its own; an infinite or NaN w_i takes all of b;
    - widening margin: the relative term covers the rounding of r_i, of the
      computed distances and of key_i -+ w_i, the absolute one a key
      difference below 2.2e-162 whose square underflows to zero;
    - sorted rows of a are taken in blocks of at most BAND_ROWS rows, whose
      rows times the union of their bands is at most PAIR_BLOCK (or one row,
      if its band alone is larger).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("distance to an empty set")
    na, nb = a.shape[0], b.shape[0]
    if na * nb <= PAIR_BLOCK:
        return np.sqrt(_sq_dists(a[:, None], b[None]).min(axis=1))
    n = min(na, nb)
    bound = np.full(na, np.inf)
    if np.all(np.isfinite(b)):  # a NaN in b reaches every minimum
        bound[:n] = np.sqrt(_sq_dists(a[:n], b[:n]))
    key = int(np.argmax(np.ptp(b, axis=0)))
    b = np.asfortranarray(b[np.argsort(b[:, key])])
    return np.sqrt(_band_sq(a, b, key, bound))


def _directed_hausdorff(a, b):
    """max_i min_j |a_i - b_j| by exact early exit; see hausdorff_points."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return nearest_distances(a, b).max()
    n = min(a.shape[0], b.shape[0])
    seed = np.full(a.shape[0], np.inf)  # squared; rows with no partner come first
    seed[:n] = _sq_dists(a[:n], b[:n])
    visit = np.argsort(seed)[::-1]
    key = int(np.argmax(np.ptp(b, axis=0)))
    b = np.asfortranarray(b[np.argsort(b[:, key])])
    h2 = 0.0
    for start in range(0, visit.size, BAND_ROWS):
        rows = visit[start:start + BAND_ROWS]
        rows = rows[seed[rows] > h2]  # min_i <= seed_i <= h2 cannot raise the maximum
        if rows.size == 0:
            break
        h2 = max(h2, _band_sq(a[rows], b, key, np.sqrt(seed[rows])).max())
    return np.sqrt(h2)


def hausdorff_points(a, b) -> float:
    """Symmetric Hausdorff distance of two finite point sets, Euclidean norm.

    Exact: equal to the broadcast formula bit for bit. Sets with |a| * |b|
    <= PAIR_BLOCK take both directions from one dense block. Otherwise each
    direction max_i min_j |a_i - b_j| exits early: row i's squared distance
    s_i to the same-index row of b (inf with no partner) bounds its squared
    minimum; rows are solved in descending s_i, BAND_ROWS at a time, by the
    band search of nearest_distances, until the next s_i <= H^2, the largest
    squared minimum so far, as no later row can raise it. Squares are
    compared, so no sqrt rounding enters the test. Sets with a non-finite
    coordinate solve every row.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("distance to an empty set")
    if a.shape[0] * b.shape[0] <= PAIR_BLOCK:
        d2 = _sq_dists(a[:, None], b[None])
        return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))
    return float(max(_directed_hausdorff(a, b), _directed_hausdorff(b, a)))


def _pair_ratios(pts, i, j) -> np.ndarray:
    """|x_i - x_j| / |P(x_i - x_j)| for row pairs i < j; inf where the projection is <= 1e-300."""
    diffs = pts[i] - pts[j]
    proj = diffs - diffs.mean(axis=1, keepdims=True)
    num = np.linalg.norm(diffs, axis=1)
    den = np.linalg.norm(proj, axis=1)
    return np.where(den > 1e-300, num / np.maximum(den, 1e-300), np.inf)


def _bucket_ratio_max(pts, buckets, pa, pb, bound, best):
    """best raised by the ratios of the row pairs of bucket pairs (pa[k], pb[k]), in order.

    Bucket b holds rows perm[start[b]:][:count[b]] of buckets = (perm, start, count), and
    paired with itself gives each of its pairs once. Pairs are solved PAIR_BLOCK // d at a
    time, stopping at the first block whose first bucket pair has bound < best^2.
    """
    perm, start, count = buckets
    sizes = count[pa] * count[pb]
    ends = np.cumsum(sizes)
    budget = max(1, PAIR_BLOCK // pts.shape[1])
    for pos in range(0, int(sizes.sum()), budget):
        flat = np.arange(pos, min(pos + budget, ends[-1]))
        k = np.searchsorted(ends, flat, side="right")
        if bound[k[0]] < best * best:
            break
        i, j = np.divmod(flat - (ends[k] - sizes[k]), count[pb[k]])
        i += start[pa[k]]
        j += start[pb[k]]
        own = (pa[k] != pb[k]) | (i < j)
        i, j = perm[i[own]], perm[j[own]]
        ratios = _pair_ratios(pts, np.minimum(i, j), np.maximum(i, j))
        best = np.maximum(best, ratios.max(initial=0.0))
    return best


def projection_ratio_max(pts) -> float:
    """Largest |x - y| / |P(x - y)| over all pairs of rows x, y, P the projection onto e-perp.

    inf when two rows differ along e = (1, ..., 1) only. Exact: every pair solved uses the
    arithmetic of _pair_ratios, taken as (i < j), and a maximum ignores the order of its
    terms. Sets of at most PAIR_BLOCK // d pairs solve them in one block. Larger sets are
    bucketed on a grid over q = x - h e (h the mean coordinate), about RATIO_FILL rows a
    bucket; as ratio^2 = 1 + d dh^2 / |dq|^2, the (q, h) boxes of two buckets bound the
    ratio^2 of their pairs. The pairs inside and between touching buckets seed best, the
    largest ratio so far. The other bucket pairs are screened in blocks, and a block's
    pairs with bound >= best^2 are solved in descending bound until one falls below
    best^2. Boxes widen by BAND_MARGIN * max|x| + 1e-150, and bounds by the relative
    BAND_MARGIN * (1 + sqrt(bound)), for rounding, underflow and the error of a computed
    ratio, which grows with it. Memory stays linear in the number of rows. With a
    non-finite coordinate, d < 2 or max|x| > 1e150, all rows share one bucket.
    """
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    if n < 2:
        raise ValueError("the ratio needs two points")
    if n * (n - 1) // 2 <= max(1, PAIR_BLOCK // d):
        return float(_pair_ratios(pts, *np.triu_indices(n, 1)).max())
    scale = np.abs(pts).max()
    h = pts.mean(axis=1)
    q = pts - h[:, None]
    # a NaN scale fails the test too
    grid = q[:, :min(d - 1, 3)] if d > 1 and scale <= 1e150 else np.zeros((n, 1))
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
    nb, cell = start.size, cells[perm[start]]
    slack = BAND_MARGIN * scale + 1e-150
    qlo, qhi, hlo, hhi = (f.reduceat(v[perm], start, axis=0) + sign * slack
                          for v in (q, h) for f, sign in ((np.minimum, -1), (np.maximum, 1)))
    best, rows = 0.0, max(1, PAIR_BLOCK // d // nb)
    for seed in (True, False):
        for s in range(0, nb, rows):
            a = np.arange(s, min(nb, s + rows))[:, None]
            b = np.arange(s, nb)
            near = np.ones((a.size, b.size), dtype=bool)
            for c in range(k):
                near &= np.abs(cell[b, c] - cell[a, c]) <= 1
            if seed:
                ii, jj = np.nonzero(near & (b >= a))
                w = np.full(ii.size, np.inf)
            else:
                gap2 = np.zeros(near.shape)
                for c in range(d):
                    gap = np.maximum(qlo[b, c] - qhi[a, c], qlo[a, c] - qhi[b, c])
                    gap2 += np.maximum(gap, 0.0) ** 2
                hspan = np.maximum(hhi[b] - hlo[a], hhi[a] - hlo[b])
                with np.errstate(divide="ignore", over="ignore"):
                    bound = 1.0 + d * (hspan * hspan / gap2)
                bound *= 1.0 + BAND_MARGIN * (1.0 + np.sqrt(bound))
                ii, jj = np.nonzero(~near & (b > a) & (bound >= best * best))
                w = bound[ii, jj]
            order = np.argsort(-w, kind="stable")
            best = _bucket_ratio_max(pts, (perm, start, count), a[ii[order], 0], b[jj[order]],
                                     w[order], best)
    return float(best)


def is_weakly_unordered(manifold: RadialManifold, tol_order: float) -> list[tuple[int, int]]:
    """Vertex pairs with common support where one point strictly dominates the other.

    A pair (i, j) is reported when the points share a support and the point of
    j exceeds the point of i by more than tol_order in every support
    coordinate; an admissible manifold reports no pairs. Pairs come in
    row-major order within each support group, groups in increasing support
    key. Each group is scanned in blocks of rows i of at most PAIR_BLOCK
    pairs, keeping a running minimum of the coordinate differences, so memory
    stays linear in the number of vertices.
    """
    pts = vertex_points(manifold)
    supp = manifold.grid.lattice > 0
    keys = supp @ (1 << np.arange(manifold.grid.dim))
    violations: list[tuple[int, int]] = []
    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        if members.size < 2:
            continue
        p = pts[np.ix_(members, np.flatnonzero(supp[members[0]]))]
        rows = max(1, PAIR_BLOCK // members.size)
        for start in range(0, members.size, rows):
            blk = p[start:start + rows]
            low = p[None, :, 0] - blk[:, None, 0]
            for k in range(1, p.shape[1]):
                np.minimum(low, p[None, :, k] - blk[:, None, k], out=low)
            i, j = np.nonzero(low > tol_order)
            violations.extend(zip(members[start + i].tolist(), members[j].tolist()))
    return violations


def _cell_pair_diffs(grid: BarycentricGrid):
    for i, j in itertools.combinations(range(grid.dim), 2):
        yield grid.cells[:, i], grid.cells[:, j]


def grid_spacing(grid: BarycentricGrid) -> float:
    """Longest edge of any cell (zero for the one-point simplex)."""
    if grid.cells.shape[0] == 0:
        return 0.0
    h = 0.0
    for ia, ib in _cell_pair_diffs(grid):
        e = np.linalg.norm(grid.vertices[ia] - grid.vertices[ib], axis=1)
        h = max(h, float(e.max()))
    return h


def lipschitz_estimate(manifold: RadialManifold) -> float:
    """Empirical Lipschitz bound of the radius over all cell edges."""
    grid = manifold.grid
    if grid.cells.shape[0] == 0:
        return 0.0
    lip = 0.0
    for ia, ib in _cell_pair_diffs(grid):
        e = np.linalg.norm(grid.vertices[ia] - grid.vertices[ib], axis=1)
        dr = np.abs(manifold.radii[ia] - manifold.radii[ib])
        lip = max(lip, float((dr / e).max()))
    return lip
