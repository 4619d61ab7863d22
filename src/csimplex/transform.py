"""One manifold update: push the surface through the map, re-express it radially.

The image of a grid vertex u is y = F(R(u) u); the new surface is the
flat-facet one through the image points. Its radius at a target direction u
solves a ray-simplex intersection, which in direction space reduces to
locating u in the tiling of the simplex by image cells and taking the
harmonic mean of the image radii with the barycentric weights (facet_radius):

    R'(u) = 1 / sum_k (w_k / r_k).

Image cells are taken to the grid's cumulative lattice coordinates
s = m * cumsum(v)[:-1], the coordinates of BarycentricGrid.locate, where the
target vertices are the ordered integer points. Barycentric weights are
affine invariants and s is an affine bijection of the plane sum(v) = 1, so a
cell's weights of a target t are solved there, in closed form: with the edge
matrix E = [s_1 - s_0 ... s_D - s_0] (D = d - 1),

    w_{1..D} = adj(E) (s_t - s_0) / det(E),    w_0 = 1 - sum w_{1..D},

with adj(E) taken by cofactors over arrays of all cells at once and det(E)
from its first column, one pass per step for every d and no LAPACK call.
Since det(E) = (-1)^(d+1) m^D det([v_0 ... v_D]), a grid cell has oriented
determinant (-1)^(d+1) det(E) * cell_orient = 1 at every resolution.

Point location is a cell-centric raster: each cell is solved only against the
integer points in its widened bounding box (_raster_pairs), linear in the cells
plus the candidates, a small multiple of the cells for an unfolded tiling.

The graph transform needs the image to stay a radial graph, so every image
cell must keep its grid cell's orientation by DEGENERATE_DET; a collapsed or
reversed cell raises FoldError. Faces map to faces and the corners are fixed,
so the direction map then has degree one and the image cells cover every target.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import BarycentricGrid, GridError, RadialManifold, facet_radius, vertex_points
from .maps import KolmogorovMap, eval_F

__all__ = [
    "TransformError",
    "TrappingError",
    "ResampleError",
    "FoldError",
    "PushforwardCloud",
    "pushforward",
    "resample",
    "graph_step",
]

# Oriented det(E) below which an image cell has collapsed or reversed, in
# lattice units: a grid cell has oriented det(E) = 1 at every resolution.
DEGENERATE_DET = 1e-9
CONTAINMENT_TOL = 1e-9
BOX_DRIFT_TOL = 1e-9
# Widening of an image cell's bounding box, relative to the resolution m. A
# target the containment test accepts (every weight >= -CONTAINMENT_TOL) lies
# within (d - 1) * CONTAINMENT_TOL * m of its cell in lattice coordinates, well
# inside this margin, so the raster never misses a pair the test would accept.
RASTER_MARGIN = 1e-7


class TransformError(RuntimeError):
    pass


class TrappingError(TransformError):
    """A surface or its image escapes the trapping box beyond float drift."""


class ResampleError(TransformError):
    pass


class FoldError(ResampleError):
    """An image cell collapsed or reversed its orientation: injectivity lost at this iterate."""


@dataclass(frozen=True, eq=False)
class PushforwardCloud:
    """Images of the grid vertices under the map, with radial split y = r v.

    No per-cell data: _tile takes each image cell's frame from _cell_frames and
    raises FoldError for a cell below DEGENERATE_DET of its grid cell's oriented volume.
    """

    grid: BarycentricGrid
    points: np.ndarray
    directions: np.ndarray
    radii: np.ndarray

    refined_cells = ()  # not a field; read only by perfbench's tracer


def _push_points(kmap: KolmogorovMap, pts: np.ndarray, box_top: float | None) -> np.ndarray:
    if box_top is not None:
        drift = float(pts.max() - box_top)
        if drift > BOX_DRIFT_TOL:
            raise TrappingError(
                f"surface point leaves the box [0, {box_top:g}]^d by {drift:.3e}"
            )
        pts = np.minimum(pts, box_top)
    imgs = eval_F(kmap, pts)
    if box_top is not None:
        drift = float(imgs.max() - box_top)
        if drift > BOX_DRIFT_TOL:
            raise TrappingError(
                f"image leaves the box [0, {box_top:g}]^d by {drift:.3e}; "
                "the box is not trapping for this map"
            )
        imgs = np.minimum(imgs, box_top)
    return imgs


def pushforward(
    kmap: KolmogorovMap,
    manifold: RadialManifold,
    box_top: float | None = None,
) -> PushforwardCloud:
    """Image cloud of a radial manifold under the map.

    Coordinate supports are preserved exactly (faces map to faces), so image
    directions of corner vertices are the corners themselves.
    """
    grid = manifold.grid
    if kmap.dim != grid.dim:
        raise GridError("map dimension does not match the grid")
    src = vertex_points(manifold)
    imgs = _push_points(kmap, src, box_top)
    if not np.array_equal(imgs == 0.0, src == 0.0):  # pragma: no cover - defensive
        raise TransformError("support changed under the map")
    radii = imgs.sum(axis=1)
    return PushforwardCloud(grid=grid, points=imgs, directions=imgs / radii[:, None], radii=radii)


def _minor(edges: np.ndarray, rows: tuple, cols: tuple, memo: dict) -> np.ndarray:
    """Determinant of edges[rows][:, cols], expanded along its first row; memo shares minors."""
    if not rows:
        return 1.0
    if len(rows) == 1:
        return edges[rows[0], cols[0]]
    key = (rows, cols)
    if key not in memo:
        total = edges[rows[0], cols[0]] * _minor(edges, rows[1:], cols[1:], memo)
        for k in range(1, len(cols)):
            term = edges[rows[0], cols[k]] * _minor(edges, rows[1:], cols[:k] + cols[k + 1:], memo)
            total = total - term if k % 2 else total + term
        memo[key] = total
    return memo[key]


def _cell_frames(
    dirs: np.ndarray, cells: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each cell in the lattice coordinates s = m * cumsum(v)[:-1], by one cofactor pass.

    dirs (P, d) holds directions and cells (C, d) rows of dirs. Returns each cell's origin
    s_0 (D, C), edge matrix E = [s_1 - s_0 ... s_D - s_0] (D, D, C), adj(E) (D, D, C) and
    det(E) (C,), matrix indices first so every entry is a contiguous (C,) array. Minors are
    shared between cofactors; det(E) is a Laplace expansion along the first row. Edges sum
    differences of end directions, exact for close ones, so a small cell keeps its accuracy.
    """
    d = dirs.shape[1]
    coords = np.ascontiguousarray(dirs.T)
    rows = np.ascontiguousarray(cells.T)
    origin = np.take(m * np.cumsum(coords, axis=0)[:-1], rows[0], axis=1)
    edges = np.empty((d - 1, d - 1, cells.shape[0]))
    for k in range(d - 1):  # running sums over the coordinates, one (C,) array at a time
        base = np.take(coords[k], rows[0])
        for j in range(d - 1):
            diff = np.take(coords[k], rows[j + 1]) - base
            edges[k, j] = diff if k == 0 else edges[k - 1, j] + diff
    edges *= m
    idx = tuple(range(d - 1))
    memo: dict = {}
    adj = np.empty(edges.shape)
    for i, j in itertools.product(idx, repeat=2):
        cof = _minor(edges, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:], memo)
        adj[i, j] = -cof if (i + j) % 2 else cof
    det = edges[0, 0] * adj[0, 0]
    for j in idx[1:]:
        det = det + edges[0, j] * adj[j, 0]
    return origin, edges, adj, det


def _weights(origin: np.ndarray, inv: np.ndarray, cel: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Barycentric weights (d, n) of lattice points pts (D, n) in the cells cel (n,).

    origin (D, C) holds the cells' origins s_0 and inv (D, D, C) their inverse
    edge matrices adj(E) / det(E). Each pair's weights come from the same
    elementwise operations whatever the batch, so a target gets the same
    weights from a raster candidate list as from an all-pairs one.
    """
    D = pts.shape[0]
    diff = [pts[k] - origin[k, cel] for k in range(D)]
    w = np.empty((D + 1, cel.size))
    for j in range(D):
        acc = inv[j, 0, cel] * diff[0]
        for k in range(1, D):
            acc += inv[j, k, cel] * diff[k]
        w[j + 1] = acc
    w[0] = 1.0 - w[1:].sum(axis=0)
    return w


def _raster_pairs(
    grid: BarycentricGrid, origin: np.ndarray, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target, cell) candidates: target vertices in each cell's widened bounding box.

    The cells are given in the grid's cumulative lattice coordinates, by
    origin (D, C) and edges (D, D, C), where the target vertices are the
    ordered integer points. Returns the target and cell of each candidate and
    the target's lattice point (D, n).
    """
    m = grid.resolution
    margin = RASTER_MARGIN * m
    low = origin + np.minimum(np.minimum.reduce(edges, axis=1), 0.0)
    high = origin + np.maximum(np.maximum.reduce(edges, axis=1), 0.0)
    lo = np.maximum(np.ceil(low - margin), 0).astype(np.intp)
    hi = np.minimum(np.floor(high + margin), m).astype(np.intp)
    extent = np.maximum(hi - lo + 1, 0)
    sizes = extent.prod(axis=0)
    cell = np.repeat(np.arange(sizes.size), sizes)
    rest = np.arange(cell.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pts = np.empty((extent.shape[0], cell.size), dtype=np.intp)
    for k in range(extent.shape[0] - 1, -1, -1):  # mixed-radix digits of the box offset
        e = extent[k, cell]
        pts[k] = lo[k, cell] + rest % e
        rest //= e
    target = grid.s_table[tuple(pts)]
    keep = target >= 0
    return target[keep], cell[keep], pts[:, keep]


def _tile(cloud: PushforwardCloud) -> tuple[np.ndarray, np.ndarray]:
    """Image cell of every grid vertex, as rows of cloud point indices, and its weights.

    Raises FoldError unless every image cell keeps its grid cell's orientation
    by at least DEGENERATE_DET, that is (-1)^(d+1) det(E) * cell_orient >=
    DEGENERATE_DET: a collapsed or reversed cell is a fold.
    """
    grid = cloud.grid
    cells = grid.cells
    origin, edges, inv, det = _cell_frames(cloud.directions, cells, grid.resolution)

    oriented = (-1) ** (grid.dim + 1) * det * grid.cell_orient
    if not oriented.min() >= DEGENERATE_DET:  # a NaN determinant fails too
        n_bad = int(np.count_nonzero(~(oriented >= DEGENERATE_DET)))
        raise FoldError(
            f"image tiling folds: {n_bad} of {oriented.size} cells collapsed or reversed "
            f"orientation (least oriented det(E) {float(oriented.min()):.3e} grid cells)"
        )
    inv /= det

    tgt, cel, pts = _raster_pairs(grid, origin, edges)
    alpha = _weights(origin, inv, cel, pts)
    min_alpha = np.minimum.reduce(alpha, axis=0)
    # per target: the largest minimum weight, then the lowest cell index, which
    # is the lowest candidate index since the raster lists candidates by cell
    top = np.full(grid.n_vertices, -np.inf)
    np.maximum.at(top, tgt, min_alpha)
    ties = np.flatnonzero(min_alpha == top[tgt])
    best = np.full(grid.n_vertices, cel.size)
    np.minimum.at(best, tgt[ties], ties)
    # an oriented tiling with fixed faces covers every target (degree one)
    if top.min() < -CONTAINMENT_TOL:
        t = int(np.argmax(top < -CONTAINMENT_TOL))
        raise ResampleError(f"target vertex {t} (u={grid.vertices[t]}) lies in no image cell")
    return cells[cel[best]], alpha[:, best].T


def resample(cloud: PushforwardCloud) -> RadialManifold:
    """Radial representation of the pushforward surface on the cloud's grid."""
    grid = cloud.grid
    if grid.dim == 1:
        return RadialManifold(grid, cloud.radii.copy())

    cells, w = _tile(cloud)
    radii = facet_radius(w, cloud.radii[cells])

    # corners evolve by the exact scalar axis dynamics
    radii[grid.corners] = cloud.radii[grid.corners]
    return RadialManifold(grid, radii)


def graph_step(
    kmap: KolmogorovMap,
    manifold: RadialManifold,
    box_top: float | None = None,
) -> RadialManifold:
    """One application of the graph transform on the fixed grid."""
    return resample(pushforward(kmap, manifold, box_top))
