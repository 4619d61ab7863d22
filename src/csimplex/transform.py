"""One manifold update: push the surface through the map, re-express it radially.

The image of a grid vertex u is y = F(R(u) u); the new surface is the
piecewise-linear one through the image points. Its radius at a target
direction u solves a ray-simplex intersection, which in direction space
reduces to locating u in the tiling of the simplex by image cells and taking
the harmonic mean of the image radii with the barycentric weights:

    R'(u) = 1 / sum_k (w_k / r_k).

Point location is a cell-centric raster. Each image cell is mapped to the
grid's cumulative lattice coordinates s = m * cumsum(v)[:-1], the
coordinates of BarycentricGrid.locate; the integer points in its bounding box,
widened by RASTER_MARGIN * m, are the only targets it is solved against. A
target takes the candidate cell with the largest minimum barycentric weight,
ties going to the lowest cell index. The cost is linear in the number of
cells plus the number of (target, cell) candidates, which for an unfolded
tiling of cells about one lattice step across is a small multiple of the
number of cells.

Folding of the image tiling (two cells with opposite orientation) means the
map stopped being injective on the surface at this resolution and is reported
as an error rather than silently patched. For planar problems an independent
bisection solver along the image polyline provides a cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BarycentricGrid, GridError, RadialManifold, vertex_points
from .maps import KolmogorovMap, eval_F

__all__ = [
    "TransformError",
    "TrappingError",
    "ResampleError",
    "FoldError",
    "CoverageError",
    "PushforwardCloud",
    "pushforward",
    "resample",
    "bisection_resample",
    "graph_step",
]

DEGENERATE_VOLUME = 1e-14
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
    """The image tiling folds over itself: injectivity lost at this iterate."""


class CoverageError(ResampleError):
    """Some target direction is covered by no image cell."""


@dataclass(frozen=True, eq=False)
class PushforwardCloud:
    """Images of the grid vertices under the map, with radial split y = r v.

    extra_* holds interior refinement samples for source cells whose image
    became numerically degenerate; refined_cells maps such a cell index to the
    row of its refinement point. dets holds det([v_0 ... v_{d-1}]) of every
    grid cell's image directions, as pushforward computed them; None makes
    the tiling compute them.
    """

    grid: BarycentricGrid
    points: np.ndarray
    directions: np.ndarray
    radii: np.ndarray
    extra_directions: np.ndarray
    extra_radii: np.ndarray
    refined_cells: dict = field(default_factory=dict)
    dets: np.ndarray | None = None


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
    directions = imgs / radii[:, None]

    extra_dirs = np.empty((0, grid.dim))
    extra_rads = np.empty((0,))
    refined: dict[int, int] = {}
    dets = np.empty((0,))
    if grid.cells.shape[0]:
        dets = np.linalg.det(np.swapaxes(directions[grid.cells], 1, 2))
        bad = np.flatnonzero(np.abs(dets) < DEGENERATE_VOLUME)
        if bad.size:
            # refine once: push the source surface point over the cell barycenter
            centers = manifold.grid.vertices[grid.cells[bad]].mean(axis=1)
            center_radii = manifold.radii[grid.cells[bad]].mean(axis=1)
            pts = _push_points(kmap, center_radii[:, None] * centers, box_top)
            extra_rads = pts.sum(axis=1)
            extra_dirs = pts / extra_rads[:, None]
            refined = {int(c): k for k, c in enumerate(bad)}
    return PushforwardCloud(
        grid=grid,
        points=imgs,
        directions=directions,
        radii=radii,
        extra_directions=extra_dirs,
        extra_radii=extra_rads,
        refined_cells=refined,
        dets=dets,
    )


def _solve_cells(cloud: PushforwardCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell list for the coverage solve, with refined cells replaced by their subdivision.

    Refined cell c becomes d sub-cells in its place, sub-cell k having vertex k
    replaced by the refinement point of c.
    """
    grid = cloud.grid
    n_cells, d = grid.cells.shape
    centers = np.full(n_cells, -1)
    for c, row in cloud.refined_cells.items():
        centers[c] = cloud.directions.shape[0] + row
    refined = centers >= 0
    reps = np.where(refined, d, 1)
    parents = np.repeat(np.arange(n_cells), reps)
    cells = grid.cells[parents]
    flags = refined[parents]
    sub = np.arange(parents.size) - np.repeat(np.cumsum(reps) - reps, reps)
    cells[flags, sub[flags]] = centers[parents[flags]]
    return cells, parents, flags


def _raster_pairs(grid: BarycentricGrid, cell_dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(target, cell) candidates: target vertices in each cell's widened bounding box.

    cell_dirs (C, d, d) holds the image directions of each cell's vertices.
    Boxes are taken in the grid's cumulative lattice coordinates, where
    the target vertices are the ordered integer points.
    """
    m = grid.resolution
    s = m * np.cumsum(cell_dirs, axis=-1)[..., :-1]  # (C, d, d - 1)
    margin = RASTER_MARGIN * m
    lo = np.maximum(np.ceil(s.min(axis=1) - margin), 0).astype(np.intp)
    hi = np.minimum(np.floor(s.max(axis=1) + margin), m).astype(np.intp)
    extent = np.maximum(hi - lo + 1, 0)
    sizes = extent.prod(axis=1)
    cell = np.repeat(np.arange(sizes.size), sizes)
    rest = np.arange(cell.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    pts = np.empty((cell.size, grid.dim - 1), dtype=np.intp)
    for k in range(grid.dim - 2, -1, -1):  # mixed-radix digits of the box offset
        e = extent[cell, k]
        pts[:, k] = lo[cell, k] + rest % e
        rest //= e
    target = grid.s_table[tuple(pts.T)]
    keep = target >= 0
    return target[keep], cell[keep]


def _tile(cloud: PushforwardCloud) -> tuple[np.ndarray, np.ndarray]:
    """Image cell of every grid vertex, as rows of cloud point indices, and its weights.

    Raises FoldError if the image tiling folds and CoverageError if a target
    lies in no image cell.
    """
    grid = cloud.grid
    all_dirs = np.vstack([cloud.directions, cloud.extra_directions])
    cells, parents, refined = _solve_cells(cloud)
    # det works on each matrix alone: the plain cells reuse pushforward's values
    dets = cloud.dets
    if dets is None:
        dets = np.linalg.det(np.swapaxes(cloud.directions[grid.cells], 1, 2))
    if refined.any():
        dets = dets[parents]
        dets[refined] = np.linalg.det(np.swapaxes(all_dirs[cells[refined]], 1, 2))

    plain = ~refined
    rel = dets[plain] * grid.cell_orient[parents[plain]]
    oriented = rel[np.abs(dets[plain]) >= DEGENERATE_VOLUME]
    if oriented.size and oriented.min() < 0.0 < oriented.max():
        n_flip = int(min(np.sum(oriented < 0.0), np.sum(oriented > 0.0)))
        raise FoldError(
            f"image tiling folds: {n_flip} of {oriented.size} cells reversed orientation"
        )

    usable = np.abs(dets) >= DEGENERATE_VOLUME
    if not usable.any():
        raise CoverageError("all image cells degenerate")
    cells = cells[usable]
    inv = np.linalg.inv(np.swapaxes(all_dirs[cells], 1, 2))

    targets = grid.vertices
    tgt, cel = _raster_pairs(grid, all_dirs[cells])
    alpha = np.einsum("pij,pj->pi", inv[cel], targets[tgt])  # barycentric in direction space
    min_alpha = alpha.min(axis=1)
    # per target: largest minimum weight first, then the lowest cell index
    order = np.lexsort((cel, -min_alpha, tgt))
    lead = order[np.r_[True, tgt[order[1:]] != tgt[order[:-1]]]]
    best = np.full(targets.shape[0], -1)
    best[tgt[lead]] = lead
    covered = best >= 0
    covered[covered] = min_alpha[best[covered]] >= -CONTAINMENT_TOL

    if not covered.all():
        t = int(np.argmin(covered))
        # the one target against every cell, for the nearest cell and its miss
        row = np.einsum("cij,tj->tci", inv, targets[t:t + 1])[0].min(axis=1)
        c = int(np.argmax(row))
        raise CoverageError(
            f"target vertex {t} (u={targets[t]}) uncovered; nearest image cell "
            f"{c} misses by {float(-row[c]):.3e}"
        )
    return cells[cel[best]], alpha[best]


def resample(cloud: PushforwardCloud) -> RadialManifold:
    """Radial representation of the pushforward surface on the cloud's grid."""
    grid = cloud.grid
    if grid.dim == 1:
        return RadialManifold(grid, cloud.radii.copy())

    cells, w = _tile(cloud)
    all_rads = np.concatenate([cloud.radii, cloud.extra_radii])
    radii = 1.0 / (w / all_rads[cells]).sum(axis=1)

    # corners evolve by the exact scalar axis dynamics
    corners = [grid.corner_index(i) for i in range(grid.dim)]
    radii[corners] = cloud.radii[corners]
    return RadialManifold(grid, radii)


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


def graph_step(
    kmap: KolmogorovMap,
    manifold: RadialManifold,
    box_top: float | None = None,
) -> RadialManifold:
    """One application of the graph transform on the fixed grid."""
    out = resample(pushforward(kmap, manifold, box_top))
    return RadialManifold(
        manifold.grid, out.radii, provenance=manifold.provenance, iteration=manifold.iteration + 1
    )
