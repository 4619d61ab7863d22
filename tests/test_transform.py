import dataclasses
import tracemalloc

import numpy as np
import pytest

from csimplex import transform
from csimplex.geometry import (
    RadialManifold,
    box_boundary_manifold,
    constant_manifold,
    is_weakly_unordered,
    make_grid,
    sup_gap,
    vertex_points,
)
from csimplex.maps import (
    KolmogorovMap,
    axis_map,
    beverton_holt,
    leslie_gower,
    ricker2d,
)
from csimplex.transform import (
    CONTAINMENT_TOL,
    DEGENERATE_VOLUME,
    CoverageError,
    FoldError,
    PushforwardCloud,
    TrappingError,
    bisection_resample,
    graph_step,
    pushforward,
    resample,
)

RNG = np.random.default_rng(33)


def identity_map(dim):
    def f(x):
        return np.ones_like(x)

    def df(x):
        return np.zeros(x.shape + (dim,))

    return KolmogorovMap("identity", dim, {}, f, df)


def loop_solve_cells(cloud):
    """Per-cell loop form of the refined cell list (reference for the vectorised one)."""
    grid = cloud.grid
    n = cloud.directions.shape[0]
    cell_rows, parents, refined_flags = [], [], []
    for c, cell in enumerate(grid.cells):
        if c in cloud.refined_cells:
            for k in range(grid.dim):
                sub = cell.copy()
                sub[k] = n + cloud.refined_cells[c]
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


def dense_resample(cloud, grid=None):
    """All-pairs solve of every target against every image cell (reference for the raster).

    Returns the resampled manifold and, per target, the chosen cell as a row of
    cloud point indices.
    """
    src_grid = cloud.grid
    grid = grid if grid is not None else src_grid
    d = grid.dim
    all_dirs = np.vstack([cloud.directions, cloud.extra_directions])
    all_rads = np.concatenate([cloud.radii, cloud.extra_radii])
    cells, parents, refined = loop_solve_cells(cloud)
    mats = np.swapaxes(all_dirs[cells], 1, 2)
    dets = np.linalg.det(mats)
    plain = ~refined
    rel = dets[plain] * src_grid.cell_orient[parents[plain]]
    oriented = rel[np.abs(dets[plain]) >= DEGENERATE_VOLUME]
    if oriented.size and oriented.min() < 0.0 < oriented.max():
        raise FoldError("image tiling folds")
    usable = np.abs(dets) >= DEGENERATE_VOLUME
    mats = mats[usable]
    cells = cells[usable]
    inv = np.linalg.inv(mats)
    cell_rads = all_rads[cells]
    targets = grid.vertices
    alpha = np.einsum("cij,tj->tci", inv, targets)
    min_alpha = alpha.min(axis=2)
    best = np.argmax(min_alpha, axis=1)
    covered = min_alpha[np.arange(targets.shape[0]), best] >= -CONTAINMENT_TOL
    if not covered.all():
        t = int(np.flatnonzero(~covered)[0])
        gap = float(-min_alpha[t, best[t]])
        raise CoverageError(
            f"target vertex {t} (u={targets[t]}) uncovered; nearest image cell "
            f"{int(best[t])} misses by {gap:.3e}"
        )
    w = alpha[np.arange(targets.shape[0]), best]
    radii = 1.0 / (w / cell_rads[best]).sum(axis=1)
    for i in range(d):
        radii[grid.corner_index(i)] = cloud.radii[src_grid.corner_index(i)]
    return RadialManifold(grid, radii), cells[best]


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
        extra_directions=cloud.extra_directions,
        extra_radii=cloud.extra_radii,
        refined_cells=cloud.refined_cells,
    )


def test_pushforward_corners_follow_axis_maps():
    for kmap in [ricker2d(0.5, 0.5, 0.5, 0.5), leslie_gower()]:
        grid = make_grid(kmap.dim, 8)
        manifold = box_boundary_manifold(grid, 1.2)
        cloud = pushforward(kmap, manifold)
        for i in range(kmap.dim):
            c = grid.corner_index(i)
            np.testing.assert_allclose(cloud.directions[c], grid.vertices[c], atol=0)
            expected = axis_map(kmap, i).G(manifold.radii[c])
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
    g1 = axis_map(kmap, 0).G
    g2 = axis_map(kmap, 1).G
    src = vertex_points(manifold)
    for j in range(grid.n_vertices):
        np.testing.assert_allclose(
            cloud.points[j], [g1(src[j, 0]), g2(src[j, 1])], atol=1e-14
        )


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
    assert out.iteration == 1


def test_graph_step_preserves_weak_unorder():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    grid = make_grid(2, 16)
    manifold = box_boundary_manifold(grid, 1.25)
    for _ in range(4):
        manifold = graph_step(kmap, manifold, box_top=1.25)
        assert is_weakly_unordered(manifold, 1e-9) == []


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
        extra_directions=cloud.extra_directions,
        extra_radii=cloud.extra_radii,
        refined_cells={},
    )
    with pytest.raises(FoldError):
        resample(folded)
    with pytest.raises(FoldError):
        bisection_resample(folded)


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
        extra_directions=cloud.extra_directions,
        extra_radii=cloud.extra_radii,
        refined_cells={},
    )
    with pytest.raises(CoverageError):
        resample(broken)


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
        expected = float(w @ manifold.radii[cell])
        assert radius_at(manifold, u) == pytest.approx(expected, abs=1e-10)


def test_refined_cell_plumbing_keeps_values():
    # a synthetic refinement of one cell must not change a flat surface
    grid = make_grid(2, 6)
    manifold = constant_manifold(grid, 0.9)
    cloud = pushforward(identity_map(2), manifold)
    center_dir = grid.vertices[grid.cells[0]].mean(axis=0)
    refined = PushforwardCloud(
        grid=cloud.grid,
        points=cloud.points,
        directions=cloud.directions,
        radii=cloud.radii,
        extra_directions=center_dir[None, :],
        extra_radii=np.array([0.9]),
        refined_cells={0: 0},
    )
    out = resample(refined)
    np.testing.assert_allclose(out.radii, 0.9, atol=1e-12)


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


@pytest.mark.parametrize("dim,m", [(2, 3), (2, 8), (3, 4), (3, 7), (4, 3), (4, 5)])
def test_raster_matches_dense_oracle(dim, m):
    for name, cloud in oracle_clouds(dim, m):
        expected, chosen = dense_resample(cloud)
        cells, _ = transform._tile(cloud)
        assert np.array_equal(cells, chosen), name
        np.testing.assert_allclose(resample(cloud).radii, expected.radii, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim,m", [(2, 6), (3, 5), (4, 3)])
def test_raster_matches_dense_oracle_on_refined_cells(dim, m):
    grid = make_grid(dim, m)
    rng = np.random.default_rng(7)
    cloud = pushforward(identity_map(dim), RadialManifold(grid, 0.7 + 0.2 * rng.random(grid.n_vertices)))
    picked = [0, grid.cells.shape[0] // 2, grid.cells.shape[0] - 1]
    refined = PushforwardCloud(
        grid=grid,
        points=cloud.points,
        directions=cloud.directions,
        radii=cloud.radii,
        extra_directions=grid.vertices[grid.cells[picked]].mean(axis=1),
        extra_radii=np.array([0.8, 0.9, 1.0]),
        refined_cells={c: k for k, c in enumerate(picked)},
    )
    for got, want in zip(transform._solve_cells(refined), loop_solve_cells(refined)):
        assert np.array_equal(got, want)
    expected, chosen = dense_resample(refined)
    cells, _ = transform._tile(refined)
    assert np.array_equal(cells, chosen)
    np.testing.assert_allclose(resample(refined).radii, expected.radii, rtol=0, atol=1e-12)


def count_det_calls(monkeypatch):
    calls = [0]
    det = np.linalg.det

    def counted(a):
        calls[0] += 1
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    return calls


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 8), (4, 5)])
def test_graph_step_takes_one_det_pass(dim, m, monkeypatch):
    kmap = coupled_lg(dim)
    grid = make_grid(dim, m)  # the grid's own orientation det comes first
    upper = box_boundary_manifold(grid, 2.0)
    assert pushforward(kmap, upper, box_top=2.0).refined_cells == {}
    calls = count_det_calls(monkeypatch)
    graph_step(kmap, upper, box_top=2.0)
    assert calls[0] == 1


@pytest.mark.parametrize("dim,m", [(2, 6), (3, 5), (4, 3)])
def test_refined_cloud_reuses_pushforward_dets(dim, m, monkeypatch):
    grid = make_grid(dim, m)
    rng = np.random.default_rng(11)
    cloud = pushforward(coupled_lg(dim), RadialManifold(grid, 0.7 + 0.2 * rng.random(grid.n_vertices)))
    picked = [0, grid.cells.shape[0] // 2, grid.cells.shape[0] - 1]
    centers = cloud.directions[grid.cells[picked]].mean(axis=1)
    centers[0] = cloud.directions[grid.cells[0, 0]]  # a vertex: degenerate sub-cells
    refined = dataclasses.replace(
        cloud,
        extra_directions=centers,
        extra_radii=np.array([0.8, 0.9, 1.0]),
        refined_cells={c: k for k, c in enumerate(picked)},
    )
    fresh = dataclasses.replace(refined, dets=None)
    expected, chosen = dense_resample(refined)
    calls = count_det_calls(monkeypatch)
    cells, w = transform._tile(refined)
    assert calls[0] == 1  # the sub-cells of the refined cells only
    assert np.array_equal(cells, chosen)
    fresh_cells, fresh_w = transform._tile(fresh)
    assert np.array_equal(cells, fresh_cells) and np.array_equal(w, fresh_w)
    np.testing.assert_allclose(resample(refined).radii, expected.radii, rtol=0, atol=1e-12)


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
        extra_directions=cloud.extra_directions,
        extra_radii=cloud.extra_radii,
        refined_cells={},
    )
    with pytest.raises(CoverageError) as raster:
        resample(broken)
    with pytest.raises(CoverageError) as dense:
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
