"""One manifold update: push the surface through the map, re-express it radially.

The image of a grid vertex u is y = F(R(u) u); the new surface is the
piecewise-linear one through the image points. Its radius at a target
direction u solves a ray-simplex intersection, which in direction space
reduces to locating u in the tiling of the simplex by image cells and taking
the harmonic mean of the image radii with the barycentric weights:

    R'(u) = 1 / sum_k (w_k / r_k).

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
    row of its refinement point.
    """

    grid: BarycentricGrid
    source_radii: np.ndarray
    points: np.ndarray
    directions: np.ndarray
    radii: np.ndarray
    extra_directions: np.ndarray
    extra_radii: np.ndarray
    refined_cells: dict = field(default_factory=dict)


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
    if grid.cells.shape[0]:
        mats = np.swapaxes(directions[grid.cells], 1, 2)
        dets = np.linalg.det(mats)
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
        source_radii=manifold.radii.copy(),
        points=imgs,
        directions=directions,
        radii=radii,
        extra_directions=extra_dirs,
        extra_radii=extra_rads,
        refined_cells=refined,
    )


def _solve_cells(cloud: PushforwardCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell list for the coverage solve, with refined cells replaced by their subdivision."""
    grid = cloud.grid
    n = cloud.directions.shape[0]
    cell_rows = []
    parents = []
    refined_flags = []
    for c, cell in enumerate(grid.cells):
        if c in cloud.refined_cells:
            center = n + cloud.refined_cells[c]
            for k in range(grid.dim):
                sub = cell.copy()
                sub[k] = center
                cell_rows.append(sub)
                parents.append(c)
                refined_flags.append(True)
        else:
            cell_rows.append(cell)
            parents.append(c)
            refined_flags.append(False)
    return (
        np.array(cell_rows, dtype=int),
        np.array(parents, dtype=int),
        np.array(refined_flags, dtype=bool),
    )


def resample(cloud: PushforwardCloud, grid: BarycentricGrid | None = None) -> RadialManifold:
    """Radial representation of the pushforward surface on the target grid."""
    src_grid = cloud.grid
    grid = grid if grid is not None else src_grid
    if grid.dim != src_grid.dim:
        raise GridError("target grid dimension mismatch")
    d = grid.dim
    if d == 1:
        return RadialManifold(grid, cloud.radii.copy())

    all_dirs = np.vstack([cloud.directions, cloud.extra_directions])
    all_rads = np.concatenate([cloud.radii, cloud.extra_radii])
    cells, parents, refined = _solve_cells(cloud)
    mats = np.swapaxes(all_dirs[cells], 1, 2)
    dets = np.linalg.det(mats)

    plain = ~refined
    rel = dets[plain] * src_grid.cell_orient[parents[plain]]
    oriented = rel[np.abs(dets[plain]) >= DEGENERATE_VOLUME]
    if oriented.size and oriented.min() < 0.0 < oriented.max():
        n_flip = int(min(np.sum(oriented < 0.0), np.sum(oriented > 0.0)))
        raise FoldError(
            f"image tiling folds: {n_flip} of {oriented.size} cells reversed orientation"
        )

    usable = np.abs(dets) >= DEGENERATE_VOLUME
    if not usable.any():
        raise CoverageError("all image cells degenerate")
    mats = mats[usable]
    cells = cells[usable]
    inv = np.linalg.inv(mats)
    cell_rads = all_rads[cells]  # (C, d)

    targets = grid.vertices
    alpha = np.einsum("cij,tj->tci", inv, targets)  # barycentric in direction space
    min_alpha = alpha.min(axis=2)  # (T, C)
    best = np.argmax(min_alpha, axis=1)
    covered = min_alpha[np.arange(targets.shape[0]), best] >= -CONTAINMENT_TOL

    if not covered.all():
        t = int(np.flatnonzero(~covered)[0])
        gap = float(-min_alpha[t, best[t]])
        raise CoverageError(
            f"target vertex {t} (u={targets[t]}) uncovered; nearest image cell "
            f"{int(best[t])} misses by {gap:.3e}"
        )

    w = alpha[np.arange(targets.shape[0]), best]  # (T, d)
    radii = 1.0 / (w / cell_rads[best]).sum(axis=1)

    # corners evolve by the exact scalar axis dynamics
    for i in range(d):
        radii[grid.corner_index(i)] = cloud.radii[src_grid.corner_index(i)]
    return RadialManifold(grid, radii)


def bisection_resample(
    cloud: PushforwardCloud,
    grid: BarycentricGrid | None = None,
    tol: float = 1e-13,
) -> RadialManifold:
    """Planar-only alternative solver: bisection along the image polyline.

    Solves T(p) = u for p on the polyline through the image points without any
    linear algebra, serving as an independent oracle for the tiling path.
    """
    src_grid = cloud.grid
    grid = grid if grid is not None else src_grid
    if grid.dim != 2:
        raise GridError("bisection resampling is a planar-only path")
    order = np.argsort(src_grid.vertices[:, 0], kind="stable")
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
    for i in range(2):
        radii[grid.corner_index(i)] = cloud.radii[src_grid.corner_index(i)]
    return RadialManifold(grid, radii)


def graph_step(
    kmap: KolmogorovMap,
    manifold: RadialManifold,
    box_top: float | None = None,
) -> RadialManifold:
    """One application of the graph transform on the fixed grid."""
    out = resample(pushforward(kmap, manifold, box_top), manifold.grid)
    return RadialManifold(
        manifold.grid, out.radii, provenance=manifold.provenance, iteration=manifold.iteration + 1
    )
