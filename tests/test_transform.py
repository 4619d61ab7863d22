import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from csimplex import transform
from csimplex.geometry import (
    RadialManifold,
    box_boundary_manifold,
    constant_manifold,
    make_grid,
    order_check,
    sup_gap,
    vertex_points,
)
from csimplex.maps import (
    KolmogorovMap,
    beverton_holt,
    eval_f,
    leslie_gower,
    ricker2d,
)
from csimplex.transform import (
    CONTAINMENT_TOL,
    DEGENERATE_DET,
    FoldError,
    PushforwardCloud,
    ResampleError,
    TrappingError,
    graph_step,
    pushforward,
    resample,
)
from surface_oracles import bisection_resample

RNG = np.random.default_rng(33)


def identity_map(dim):
    def f(x):
        return np.ones_like(x)

    def df(x):
        return np.zeros(x.shape + (dim,))

    return KolmogorovMap("identity", dim, {}, f, df)


def dense_resample(cloud):
    """All-pairs solve of every target against every image cell (reference for the raster).

    The weights come from the tiling's own cofactor helpers, so the cell choice
    (largest minimum weight, then lowest cell index) compares exactly. Every
    cell is solved: a collapsed or reversed one is a fold before any target
    is. Returns the resampled manifold and, per target, the chosen cell as a
    row of cloud point indices.
    """
    grid = cloud.grid
    d = grid.dim
    origin, edges, adj, det = transform._cell_frames(cloud.directions, grid.cells, grid.resolution)
    oriented = (-1) ** (d + 1) * det * grid.cell_orient
    bad = oriented < DEGENERATE_DET
    if bad.any():
        raise FoldError(
            f"image tiling folds: {bad.sum()} of {bad.size} cells collapsed or reversed "
            f"orientation (least oriented det(E) {oriented.min():.3e} grid cells)"
        )
    cells, inv = grid.cells, adj / det
    n_t, n_c = grid.n_vertices, cells.shape[0]
    pts = np.cumsum(grid.lattice, axis=1)[:, :-1].T
    tgt = np.repeat(np.arange(n_t), n_c)
    cel = np.tile(np.arange(n_c), n_t)
    alpha = transform._weights(origin, inv, cel, pts[:, tgt]).reshape(d, n_t, n_c)
    min_alpha = alpha.min(axis=0)
    best = np.argmax(min_alpha, axis=1)
    covered = min_alpha[np.arange(n_t), best] >= -CONTAINMENT_TOL
    if not covered.all():
        t = int(np.flatnonzero(~covered)[0])
        raise ResampleError(f"target vertex {t} (u={grid.vertices[t]}) lies in no image cell")
    w = alpha[:, np.arange(n_t), best].T
    radii = 1.0 / (w / cloud.radii[cells[best]]).sum(axis=1)
    for i in range(d):
        radii[grid.corner_index(i)] = cloud.radii[grid.corner_index(i)]
    return RadialManifold(grid, radii), cells[best]


def lapack_resample(cloud):
    """Radii from LAPACK inverses of every cell in direction space.

    An independent reference for the cofactor solve: the weights of a target u
    in a cell with vertex directions V are inv(V) u.
    """
    grid = cloud.grid
    cells = grid.cells
    mats = np.swapaxes(cloud.directions[cells], 1, 2)
    alpha = np.einsum("cij,tj->tci", np.linalg.inv(mats), grid.vertices)
    best = np.argmax(alpha.min(axis=2), axis=1)
    w = alpha[np.arange(grid.n_vertices), best]
    radii = 1.0 / (w / cloud.radii[cells[best]]).sum(axis=1)
    for i in range(grid.dim):
        radii[grid.corner_index(i)] = cloud.radii[grid.corner_index(i)]
    return radii


def coupled_lg(dim):
    a = np.full((dim, dim), 0.3) + 0.7 * np.eye(dim)
    return leslie_gower(r=(1.0,) * dim, A=a)


def perturbed_cloud(cloud, rng, scale):
    """The cloud with each direction moved by up to scale within its own support."""
    noise = rng.uniform(-scale, scale, cloud.directions.shape) * (cloud.directions > 0.0)
    dirs = cloud.directions + noise
    dirs /= dirs.sum(axis=1, keepdims=True)
    return PushforwardCloud(
        grid=cloud.grid,
        points=dirs * cloud.radii[:, None],
        directions=dirs,
        radii=cloud.radii,
    )


def test_pushforward_corners_follow_axis_maps():
    for kmap in [ricker2d(0.5, 0.5, 0.5, 0.5), leslie_gower()]:
        grid = make_grid(kmap.dim, 8)
        manifold = box_boundary_manifold(grid, 1.2)
        cloud = pushforward(kmap, manifold)
        for i in range(kmap.dim):
            c = grid.corner_index(i)
            np.testing.assert_allclose(cloud.directions[c], grid.vertices[c], atol=0)
            r = manifold.radii[c]
            expected = r * eval_f(kmap, r * np.eye(kmap.dim)[i])[i]
            assert cloud.radii[c] == pytest.approx(expected, abs=1e-14)


def test_pushforward_d1_beverton_holt():
    grid = make_grid(1, 1)
    cloud = pushforward(beverton_holt(), constant_manifold(grid, 0.5))
    assert cloud.points[0, 0] == pytest.approx(2.0 / 3.0)
    assert cloud.radii[0] == pytest.approx(2.0 / 3.0)
    np.testing.assert_allclose(cloud.directions, [[1.0]])


def test_pushforward_decoupled_product_structure():
    kmap = ricker2d(0.5, 0.5, 0.0, 0.0)
    grid = make_grid(2, 16)
    manifold = box_boundary_manifold(grid, 1.0)
    cloud = pushforward(kmap, manifold)
    src = vertex_points(manifold)
    for j in range(grid.n_vertices):
        axes = [s * eval_f(kmap, s * np.eye(2)[i])[i] for i, s in enumerate(src[j])]
        np.testing.assert_allclose(cloud.points[j], axes, atol=1e-14)


def test_pushforward_support_preserved():
    kmap = leslie_gower(
        r=(1.0, 1.0, 1.0),
        A=((1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0)),
    )
    grid = make_grid(3, 6)
    cloud = pushforward(kmap, constant_manifold(grid, 0.8))
    assert np.array_equal(cloud.directions == 0.0, grid.vertices == 0.0)


def test_pushforward_trapping_checks():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    grid = make_grid(2, 8)
    with pytest.raises(TrappingError):
        pushforward(kmap, constant_manifold(grid, 2.0), box_top=1.25)
    # a box that is not actually trapping: images of small points jump out
    with pytest.raises(TrappingError):
        pushforward(kmap, constant_manifold(grid, 0.85), box_top=0.9)


def test_resample_identity_is_exact():
    for dim, m in [(2, 8), (3, 5)]:
        grid = make_grid(dim, m)
        radii = 0.6 + 0.3 * RNG.random(grid.n_vertices)
        manifold = RadialManifold(grid, radii)
        out = resample(pushforward(identity_map(dim), manifold))
        np.testing.assert_allclose(out.radii, radii, atol=1e-12)


def test_resample_d1_returns_image_radius():
    grid = make_grid(1, 1)
    cloud = pushforward(beverton_holt(), constant_manifold(grid, 0.5))
    out = resample(cloud)
    assert out.radii[0] == pytest.approx(2.0 / 3.0)


def test_bisection_matches_tiling_on_coupled_ricker():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    grid = make_grid(2, 64)
    manifold = constant_manifold(grid, 1.0)
    for _ in range(3):
        manifold = graph_step(kmap, manifold, box_top=1.25)
    cloud = pushforward(kmap, manifold, box_top=1.25)
    tiled = resample(cloud)
    bisected = bisection_resample(cloud)
    assert sup_gap(tiled, bisected) < 1e-8


def test_bisection_matches_tiling_on_box_seed():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    grid = make_grid(2, 32)
    cloud = pushforward(kmap, box_boundary_manifold(grid, 1.25), box_top=1.25)
    assert sup_gap(resample(cloud), bisection_resample(cloud)) < 1e-8


def test_graph_step_monotone_first_steps():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    grid = make_grid(2, 24)
    kappa, eps = 0.25, 0.5
    lower = constant_manifold(grid, eps)
    upper = box_boundary_manifold(grid, 1.0 + kappa)
    lower1 = graph_step(kmap, lower, box_top=1.0 + kappa)
    upper1 = graph_step(kmap, upper, box_top=1.0 + kappa)
    assert np.all(lower1.radii > lower.radii)
    assert np.all(upper1.radii < upper.radii)
    assert np.all(lower1.radii < upper1.radii)


def test_graph_step_fixed_point_d1():
    grid = make_grid(1, 1)
    out = graph_step(beverton_holt(), constant_manifold(grid, 1.0))
    assert out.radii[0] == pytest.approx(1.0)


def test_graph_step_preserves_weak_unorder():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    grid = make_grid(2, 16)
    manifold = box_boundary_manifold(grid, 1.25)
    for _ in range(4):
        manifold = graph_step(kmap, manifold, box_top=1.25)
        assert order_check(manifold, 1e-9)[0] == 0


def test_graph_step_preserves_manifold_order():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    grid = make_grid(2, 16)
    lo = constant_manifold(grid, 0.6)
    hi = constant_manifold(grid, 0.9)
    lo1 = graph_step(kmap, lo, box_top=1.25)
    hi1 = graph_step(kmap, hi, box_top=1.25)
    assert np.all(lo1.radii <= hi1.radii + 1e-12)


def test_face_consistency_leslie_gower():
    # the planar restriction of the 3-species step equals the step of the
    # planar submap on the shared face
    a_full = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
    kmap3 = leslie_gower(r=(1.0, 1.0, 1.0), A=a_full)
    kmap2 = leslie_gower(r=(1.0, 1.0), A=a_full[:2, :2])
    m = 12
    grid3 = make_grid(3, m)
    grid2 = make_grid(2, m)
    step3 = graph_step(kmap3, constant_manifold(grid3, 0.8))
    step2 = graph_step(kmap2, constant_manifold(grid2, 0.8))
    for k1 in range(m + 1):
        i3 = grid3.vertex_index((k1, m - k1, 0))
        i2 = grid2.vertex_index((k1, m - k1))
        assert step3.radii[i3] == pytest.approx(step2.radii[i2], abs=1e-9)


def test_resample_detects_fold():
    grid = make_grid(2, 8)
    manifold = constant_manifold(grid, 1.0)
    cloud = pushforward(identity_map(2), manifold)
    dirs = cloud.directions.copy()
    dirs[[3, 4]] = dirs[[4, 3]]  # swap two interior directions: orientation flips
    folded = PushforwardCloud(
        grid=cloud.grid,
        points=cloud.points,
        directions=dirs,
        radii=cloud.radii,
    )
    with pytest.raises(FoldError):
        resample(folded)
    with pytest.raises(FoldError):
        bisection_resample(folded)


@pytest.mark.parametrize("dim,m,axes", [(2, 8, [1, 0]), (3, 5, [1, 0, 2])])
def test_resample_reversed_tiling_is_a_fold(dim, m, axes):
    # a transposition of the coordinates reverses every image cell; the signs
    # never mix, so only each cell's own orientation shows the fold
    grid = make_grid(dim, m)
    rng = np.random.default_rng(70 + dim)
    cloud = pushforward(identity_map(dim), RadialManifold(grid, 0.6 + 0.3 * rng.random(grid.n_vertices)))
    mirrored = dataclasses.replace(cloud, points=cloud.points[:, axes], directions=cloud.directions[:, axes])
    message = rf"{grid.cells.shape[0]} of {grid.cells.shape[0]} cells collapsed or reversed"
    with pytest.raises(FoldError, match=message) as raster:
        resample(mirrored)
    with pytest.raises(FoldError) as dense:
        dense_resample(mirrored)
    assert str(raster.value) == str(dense.value)
    if dim == 2:
        with pytest.raises(FoldError):
            bisection_resample(mirrored)


def test_resample_detects_uncovered_target():
    grid = make_grid(2, 8)
    cloud = pushforward(identity_map(2), constant_manifold(grid, 1.0))
    center = np.full(2, 0.5)
    shrunk = 0.5 * (cloud.directions - center) + center
    broken = PushforwardCloud(
        grid=cloud.grid,
        points=shrunk * cloud.radii[:, None],
        directions=shrunk,
        radii=cloud.radii,
    )
    # every cell keeps half its oriented volume, but the corners moved inward
    with pytest.raises(ResampleError, match="lies in no image cell") as err:
        resample(broken)
    assert not isinstance(err.value, FoldError)


def test_graph_step_permutation_equivariance():
    # relabelling the species permutes the result: exercises every asymmetry
    # in point location, tiling and the harmonic solve
    kmap = ricker2d(0.5, 0.7, 0.3, 0.6)
    swapped = ricker2d(0.7, 0.5, 0.6, 0.3)
    m = 16
    grid = make_grid(2, m)
    radii = np.empty(grid.n_vertices)
    rng = np.random.default_rng(8)
    base = RadialManifold(grid, 0.7 + 0.2 * rng.random(grid.n_vertices))
    for i, k in enumerate(grid.lattice):
        radii[grid.vertex_index((k[1], k[0]))] = base.radii[i]
    mirrored = RadialManifold(grid, radii)
    stepped = graph_step(kmap, base)
    stepped_mirror = graph_step(swapped, mirrored)
    for i, k in enumerate(grid.lattice):
        j = grid.vertex_index((k[1], k[0]))
        assert stepped.radii[i] == pytest.approx(stepped_mirror.radii[j], abs=1e-12)


def test_resample_consistent_on_cell_boundaries():
    # radii interpolated at shared faces must not depend on the chosen cell
    from csimplex.geometry import radius_at

    grid = make_grid(3, 6)
    rng = np.random.default_rng(9)
    manifold = RadialManifold(grid, 0.5 + rng.random(grid.n_vertices))
    for _ in range(200):
        cell = grid.cells[rng.integers(grid.cells.shape[0])]
        w = rng.dirichlet(np.ones(3))
        w[rng.integers(3)] = 0.0  # land exactly on a cell face
        w = w / w.sum()
        u = w @ grid.vertices[cell]
        expected = 1.0 / float(w @ (1.0 / manifold.radii[cell]))  # the cell's flat facet
        assert radius_at(manifold, u) == pytest.approx(expected, abs=1e-10)


def oracle_clouds(dim, m):
    rng = np.random.default_rng(100 + dim)
    grid = make_grid(dim, m)
    radii = 0.6 + 0.3 * rng.random(grid.n_vertices)
    identity = pushforward(identity_map(dim), RadialManifold(grid, radii))
    yield "identity", identity
    yield "perturbed identity", perturbed_cloud(identity, rng, 0.15 / (m * dim))
    kmap = coupled_lg(dim)
    yield "coupled box", pushforward(kmap, box_boundary_manifold(grid, 2.0), box_top=2.0)
    smooth = RadialManifold(grid, 0.8 + 0.2 * grid.vertices[:, 0])
    coupled = pushforward(kmap, graph_step(kmap, smooth, box_top=2.0), box_top=2.0)
    yield "coupled", coupled
    yield "perturbed coupled", perturbed_cloud(coupled, rng, 0.1 / (m * dim))


@pytest.mark.parametrize("dim,m", [(2, 3), (2, 8), (3, 4), (3, 7), (4, 3), (4, 5), (5, 3), (5, 4)])
def test_raster_matches_dense_oracle(dim, m):
    for name, cloud in oracle_clouds(dim, m):
        expected, chosen = dense_resample(cloud)
        cells, _ = transform._tile(cloud)
        assert np.array_equal(cells, chosen), name
        radii = resample(cloud).radii
        np.testing.assert_allclose(radii, expected.radii, rtol=0, atol=1e-12)
        np.testing.assert_allclose(radii, lapack_resample(cloud), rtol=0, atol=1e-12)


def forbid_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call in the graph step")

    for name in ("det", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 8), (4, 5), (5, 4)])
def test_graph_step_calls_no_lapack(dim, m, monkeypatch):
    kmap = coupled_lg(dim)
    grid = make_grid(dim, m)  # the grid's own orientation det comes first
    upper = box_boundary_manifold(grid, 2.0)
    lapack = lapack_resample(pushforward(kmap, upper, box_top=2.0))
    forbid_lapack(monkeypatch)
    out = graph_step(kmap, upper, box_top=2.0)
    np.testing.assert_allclose(out.radii, lapack, rtol=0, atol=1e-12)


def test_raster_coverage_error_matches_dense_oracle():
    grid = make_grid(2, 8)
    cloud = pushforward(identity_map(2), constant_manifold(grid, 1.0))
    center = np.full(2, 0.5)
    shrunk = 0.5 * (cloud.directions - center) + center
    broken = PushforwardCloud(
        grid=cloud.grid,
        points=shrunk * cloud.radii[:, None],
        directions=shrunk,
        radii=cloud.radii,
    )
    with pytest.raises(ResampleError) as raster:
        resample(broken)
    with pytest.raises(ResampleError) as dense:
        dense_resample(broken)
    assert str(raster.value) == str(dense.value)


def test_resample_memory_is_output_sensitive():
    # the dense solve held a (targets x cells x d) array: 282 MB for this call
    grid = make_grid(3, 64)
    kmap = coupled_lg(3)
    cloud = pushforward(kmap, box_boundary_manifold(grid, 2.0), box_top=2.0)
    tracemalloc.start()
    try:
        resample(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_collapsed_cell_error_matches_dense_oracle():
    # image cell 0 collapses inside a shrunk tiling: a fold, named by its count
    # and its oriented volume, before any target is located
    grid = make_grid(2, 8)
    cloud = pushforward(identity_map(2), constant_manifold(grid, 1.0))
    center = np.full(2, 0.5)
    shrunk = 0.5 * (cloud.directions - center) + center
    shrunk[1] = shrunk[0]
    broken = dataclasses.replace(cloud, points=shrunk * cloud.radii[:, None], directions=shrunk)
    assert grid.cells[:2].tolist() == [[0, 1], [1, 2]]
    message = r"1 of 8 cells collapsed or reversed orientation \(least oriented det\(E\) 0\.000e\+00"
    with pytest.raises(FoldError, match=message) as raster:
        resample(broken)
    with pytest.raises(FoldError) as dense:
        dense_resample(broken)
    assert str(raster.value) == str(dense.value)


def random_cells(rng, dim, n):
    """n cells of random directions: the directions (n * dim, dim) and the cells' rows."""
    return rng.dirichlet(np.ones(dim), size=n * dim), np.arange(n * dim).reshape(n, dim)


@pytest.mark.parametrize("dim,m", [(2, 24), (3, 12), (4, 6), (5, 4)])
def test_cell_frames_match_lapack(dim, m):
    # image-like cells: grid cells with each direction moved by up to a third
    # of a lattice step within its support
    rng = np.random.default_rng(40 + dim)
    grid = make_grid(dim, m)
    noise = rng.uniform(-1.0, 1.0, grid.vertices.shape) * (grid.vertices > 0.0)
    dirs = grid.vertices + noise / (3 * m)
    dirs /= dirs.sum(axis=1, keepdims=True)
    cells = grid.cells
    origin, edges, adj, det = transform._cell_frames(dirs, cells, m)
    mats = np.swapaxes(dirs[cells], 1, 2)
    lapack = np.linalg.det(mats)
    scale = (-1) ** (dim + 1) * m ** (dim - 1)
    np.testing.assert_allclose(det / scale, lapack, rtol=1e-12, atol=0)
    # targets inside each cell and up to a tenth of its size outside
    n = cells.shape[0]
    w_true = rng.dirichlet(np.ones(dim), size=n) * 1.2 - 0.2 / dim
    u = np.einsum("cij,cj->ci", mats, w_true)
    pts = m * np.cumsum(u, axis=1)[:, :-1].T
    w = transform._weights(origin, adj / det, np.arange(n), pts)
    np.testing.assert_allclose(w.T, np.linalg.solve(mats, u[..., None])[..., 0], rtol=0, atol=1e-12)


def exact_lattice_volume(v):
    """det([v_0 ... v_D]) of one cell as an exact Fraction, in the lattice chart.

    The edges are the exact cumulative sums of the direction differences, so
    the value is that of the cell the float directions span within the plane
    sum(v) = 1, whatever rounding moved the directions off it.
    """
    d = v.shape[0]
    a = [[sum(Fraction(float(v[j, i])) - Fraction(float(v[0, i])) for i in range(k + 1))
          for j in range(1, d)] for k in range(d - 1)]
    det = Fraction((-1) ** (d + 1))
    for c in range(d - 1):  # Gaussian elimination
        p = next((r for r in range(c, d - 1) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, d - 1):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def unit_lattice_cell(dim, m):
    """Directions (dim, dim) of a grid cell at resolution m, whose |det(E)| is 1.

    Its cumulative coordinates are s_0 = (1, 2, ..., D) plus the unit steps
    e_1, e_1 + e_2, ..., the Kuhn cell of the identity permutation.
    """
    s = np.arange(1, dim) + np.tri(dim, dim - 1, -1)
    k = np.diff(s, axis=1, prepend=0.0, append=float(m))
    return k / m


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_cell_frames_classify_near_degenerate_cells(dim):
    # in lattice units, where a grid cell has |det(E)| = 1 at every m: random
    # cells shrunk toward their centroid to within a factor of ten of
    # DEGENERATE_DET on either side, and a grid cell shrunk to 1e-10 and to
    # 1e-8 of its volume, classify alike at every resolution
    rng = np.random.default_rng(50 + dim)
    n, D = 300, dim - 1
    for m in (6, 24, 256):
        dirs, cells = random_cells(rng, dim, n)
        v = dirs[cells]
        center = v.mean(axis=1, keepdims=True)
        scale = DEGENERATE_DET * 10.0 ** rng.uniform(-1.0, 1.0, n) / (m ** D * np.abs(np.linalg.det(v)))
        v = center + scale[:, None, None] ** (1.0 / D) * (v - center)
        det = transform._cell_frames(v.reshape(-1, dim), cells, m)[3]
        exact = np.array([float(exact_lattice_volume(c) * (-1) ** (dim + 1) * m ** D) for c in v])
        assert np.any(np.abs(exact) < DEGENERATE_DET) and np.any(np.abs(exact) >= DEGENERATE_DET)
        clear = np.abs(np.abs(exact) / DEGENERATE_DET - 1.0) > 1e-9
        assert np.array_equal((np.abs(det) < DEGENERATE_DET)[clear],
                              (np.abs(exact) < DEGENERATE_DET)[clear])
        np.testing.assert_allclose(det, exact, rtol=1e-9, atol=0)

        cell = unit_lattice_cell(dim, m)
        mid = cell.mean(axis=0)
        shrunk = [cell] + [mid + f ** (1.0 / D) * (cell - mid) for f in (1e-10, 1e-8)]
        det = transform._cell_frames(np.concatenate(shrunk), np.arange(3 * dim).reshape(3, dim), m)[3]
        assert abs(det[0]) == 1.0, m
        assert abs(det[1]) < DEGENERATE_DET <= abs(det[2]), m


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 8), (4, 5)])
def test_graph_step_takes_one_cell_pass(dim, m, monkeypatch):
    calls = []
    frames = transform._cell_frames

    def counted(*args):
        calls.append(args)
        return frames(*args)

    monkeypatch.setattr(transform, "_cell_frames", counted)
    kmap = coupled_lg(dim)
    manifold = box_boundary_manifold(make_grid(dim, m), 2.0)
    for step in (1, 2, 3):
        manifold = graph_step(kmap, manifold, box_top=2.0)
        assert len(calls) == step


@pytest.mark.parametrize("dim,m,p,q", [(2, 8, (4, 4), (3, 5)), (3, 4, (1, 1, 2), (1, 2, 1))])
def test_resample_collapsed_cell_is_a_fold(dim, m, p, q, monkeypatch):
    # interior vertex p moves onto its neighbour q: the image cells holding
    # both collapse, and the step fails before any target is located, even
    # though the rest of p's convex star still tiles it
    grid = make_grid(dim, m)
    p, q = grid.vertex_index(p), grid.vertex_index(q)
    rng = np.random.default_rng(60 + dim)
    cloud = pushforward(identity_map(dim), RadialManifold(grid, 0.7 + 0.2 * rng.random(grid.n_vertices)))
    dirs = cloud.directions.copy()
    dirs[p] = dirs[q]
    collapsed_cloud = dataclasses.replace(cloud, points=dirs * cloud.radii[:, None], directions=dirs)
    collapsed = np.flatnonzero([p in c and q in c for c in grid.cells.tolist()])
    assert collapsed.size == dim - 1
    if dim == 2:
        assert (p, q, collapsed.tolist()) == (4, 3, [3])

    candidates = []
    raster = transform._raster_pairs

    def recorded(*args):
        out = raster(*args)
        candidates.append(out[1])
        return out

    monkeypatch.setattr(transform, "_raster_pairs", recorded)
    message = rf"{dim - 1} of {grid.cells.shape[0]} cells collapsed or reversed"
    with pytest.raises(FoldError, match=message) as tiled:
        resample(collapsed_cloud)
    assert candidates == []
    with pytest.raises(FoldError) as dense:
        dense_resample(collapsed_cloud)
    assert str(tiled.value) == str(dense.value)
