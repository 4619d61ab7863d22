import numpy as np
import pytest

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
        source_radii=cloud.source_radii,
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
        source_radii=cloud.source_radii,
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
        source_radii=cloud.source_radii,
        points=cloud.points,
        directions=cloud.directions,
        radii=cloud.radii,
        extra_directions=center_dir[None, :],
        extra_radii=np.array([0.9]),
        refined_cells={0: 0},
    )
    out = resample(refined)
    np.testing.assert_allclose(out.radii, 0.9, atol=1e-12)
