import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from csimplex import geometry, simplex
from csimplex.maps import leslie_gower, ricker2d
from csimplex.simplex import compute_cs
from csimplex.geometry import (
    GridError,
    box_boundary_manifold,
    constant_manifold,
    grid_spacing,
    harnack_distance,
    hausdorff_bound,
    facet_normals,
    lipschitz_estimate,
    make_grid,
    order_check,
    order_function,
    radius_at,
    sup_gap,
    vertex_points,
    RadialManifold,
)
from surface_oracles import (
    dense_weakly_unordered,
    facet_partners,
    harnack,
    lockstep_sigma,
    row_ratios,
    vertex_hausdorff,
)


def simplex_volume(d):
    # (d-1)-volume of the standard probability simplex in R^d
    return math.sqrt(d) / math.factorial(d - 1)


def cell_volume(verts):
    e = (verts[1:] - verts[0]).T
    return math.sqrt(abs(np.linalg.det(e.T @ e))) / math.factorial(verts.shape[0] - 1)


@pytest.mark.parametrize("dim,m", [(1, 4), (2, 7), (3, 6), (4, 4)])
def test_grid_vertices_on_simplex(dim, m):
    grid = make_grid(dim, m)
    assert grid.lattice.sum(axis=1).tolist() == [m] * grid.n_vertices
    assert np.allclose(grid.vertices.sum(axis=1), 1.0, atol=1e-12)
    assert grid.vertices.min() >= 0.0
    for i in range(dim):
        corner = grid.vertices[grid.corner_index(i)]
        assert corner[i] == 1.0 and corner.sum() == 1.0
    assert grid.n_vertices == math.comb(m + dim - 1, dim - 1)


@pytest.mark.parametrize("dim,m", [(2, 7), (3, 6), (4, 4)])
def test_grid_cells_cover_simplex(dim, m):
    grid = make_grid(dim, m)
    assert grid.cells.shape == (m ** (dim - 1), dim)
    total = sum(cell_volume(grid.vertices[c]) for c in grid.cells)
    assert abs(total - simplex_volume(dim)) < 1e-10
    assert set(np.abs(grid.cell_orient)) == {1}


def loop_make_grid(dim, m):
    """Lattice, cells and vertex index built point by point (reference for make_grid)."""
    rows = []
    for cut in itertools.combinations(range(m + dim - 1), dim - 1):
        prev = -1
        k = []
        for c in cut:
            k.append(c - prev - 1)
            prev = c
        k.append(m + dim - 2 - prev)
        rows.append(k)
    lattice = np.array(rows, dtype=int)
    vertices = lattice / float(m)
    index = {tuple(k): i for i, k in enumerate(lattice.tolist())}
    cells = []
    D = dim - 1
    for base in itertools.product(range(m), repeat=D) if D > 0 else ():
        for perm in itertools.permutations(range(D)):
            pts = [list(base)]
            cur = list(base)
            for axis in perm:
                cur = cur.copy()
                cur[axis] += 1
                pts.append(cur)
            if all(all(p[i] <= p[i + 1] for i in range(D - 1)) and p[-1] <= m and p[0] >= 0
                   for p in pts):
                ks = [[p[0]] + [b - a for a, b in zip(p[:-1], p[1:])] + [m - p[-1]] for p in pts]
                cells.append([index[tuple(k)] for k in ks])
    cells = np.array(cells, dtype=int) if cells else np.empty((0, dim), dtype=int)
    if cells.shape[0]:
        orient = np.sign(np.linalg.det(np.swapaxes(vertices[cells], 1, 2))).astype(int)
    else:
        orient = np.empty((0,), dtype=int)
    return lattice, vertices, cells, orient, index


@pytest.mark.parametrize(
    "dim,m", [(d, m) for d in (1, 2, 3, 4) for m in (1, 2, 5)] + [(3, 48), (4, 12)]
)
def test_make_grid_equals_loop_reference(dim, m):
    grid = make_grid(dim, m)
    lattice, vertices, cells, orient, index = loop_make_grid(dim, m)
    for got, want in [(grid.lattice, lattice), (grid.vertices, vertices),
                      (grid.cells, cells), (grid.cell_orient, orient)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert all(grid.vertex_index(k) == i for k, i in index.items())
    for i in range(dim):
        assert grid.corner_index(i) == index[tuple(m if j == i else 0 for j in range(dim))]


def dense_make_grid(dim, m):
    """Lattice, vertices, cells, orientations and s_table from full cube temporaries.

    The reference for make_grid's mask build: every point of [0, m]^(d-1) and
    every (base, permutation) Kuhn cell of [0, m - 1]^(d-1) is materialised,
    then filtered to the ordered region.
    """
    D = dim - 1
    cube = np.indices((m + 1,) * D)
    s = np.moveaxis(cube, 0, -1)[np.all(np.diff(cube, axis=0) >= 0, axis=0)]
    lattice = np.diff(s, axis=1, prepend=0, append=m)
    s_table = np.full((m + 1,) * D, -1, dtype=np.intp)
    s_table[tuple(np.cumsum(lattice[:, :-1], axis=1).T)] = np.arange(lattice.shape[0])
    bases = np.indices((m,) * D).reshape(D, -1).T
    bases = bases[np.all(np.diff(bases, axis=1) >= 0, axis=1)]
    perms = np.array(list(itertools.permutations(range(D))))
    steps = np.zeros((perms.shape[0], D + 1, D), dtype=int)
    steps[:, 1:] = np.cumsum(np.eye(D, dtype=int)[perms], axis=1)
    pts = (bases[:, None, None, :] + steps).reshape(-1, D + 1, D)
    keep = np.all(np.diff(pts, axis=-1) >= 0, axis=(1, 2))
    cells = s_table[tuple(np.moveaxis(pts[keep], -1, 0))]
    inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    orient = np.tile((-1) ** (dim + 1 + inversions), bases.shape[0])[keep]
    return lattice, lattice / float(m), cells, orient, s_table


@pytest.mark.parametrize(
    "dim,m", [(2, 1), (2, 7), (2, 64), (3, 1), (3, 5), (3, 24), (4, 2), (4, 4), (4, 12),
              (5, 1), (5, 3), (5, 8), (6, 2), (6, 5)]
)
def test_make_grid_equals_dense_construction(dim, m):
    grid = make_grid(dim, m)
    for got, want in zip([grid.lattice, grid.vertices, grid.cells, grid.cell_orient, grid.s_table],
                         dense_make_grid(dim, m)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_cell_orient_and_corners_equal_oracles(dim):
    # make_grid takes cell_orient from the parity of the Kuhn permutation, with no det
    for m in range(1, 9):
        grid = make_grid(dim, m)
        if dim > 1:
            det = np.linalg.det(np.swapaxes(grid.vertices[grid.cells], 1, 2))
            assert grid.cell_orient.tobytes() == np.sign(det).astype(int).tobytes()
        assert grid.corners.tolist() == [grid.corner_index(i) for i in range(dim)]
        assert grid.corners is grid.corners  # cached


def test_vertex_index_rejects_points_off_lattice():
    grid = make_grid(3, 4)
    for k in [(1, 1, 1), (5, -1, 0), (2, 2)]:
        with pytest.raises(GridError):
            grid.vertex_index(k)


@pytest.mark.parametrize("dim,m", [(2, 9), (3, 5), (4, 3)])
def test_locate_exact_at_vertices(dim, m):
    rng = np.random.default_rng(20240818)
    grid = make_grid(dim, m)
    radii = 1.0 + rng.random(grid.n_vertices)
    manifold = RadialManifold(grid, radii)
    for i in range(grid.n_vertices):
        u = grid.vertices[i]
        assert radius_at(manifold, u) == pytest.approx(radii[i], abs=1e-13)
        np.testing.assert_allclose(radius_at(manifold, u) * u, radii[i] * u, atol=1e-13)


@pytest.mark.parametrize("dim,m", [(2, 9), (3, 6), (4, 4)])
def test_locate_weights_reconstruct_point(dim, m):
    rng = np.random.default_rng(20240819)
    grid = make_grid(dim, m)
    for _ in range(200):
        w = rng.dirichlet(np.ones(dim))
        idx, wts = grid.locate(w)
        assert wts.min() >= 0.0
        assert abs(wts.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(wts @ grid.vertices[idx], w, atol=1e-12)


def test_locate_rejects_points_off_simplex():
    grid = make_grid(3, 4)
    with pytest.raises(GridError):
        grid.locate(np.array([0.5, 0.2, 0.2]))
    with pytest.raises(GridError):
        grid.locate(np.array([1.2, -0.2, 0.0]))
    with pytest.raises(GridError, match="row 1"):
        grid.locate(np.array([[0.2, 0.3, 0.5], [0.5, 0.2, 0.2]]))
    with pytest.raises(GridError, match="row 0"):
        grid.locate(np.array([[np.nan, 0.5, 0.5]]))


def loop_locate(grid, u):
    """Single-point location by sorting fractional parts (reference for the batched one)."""
    d, m = grid.dim, grid.resolution
    if d == 1:
        return np.array([0]), np.array([1.0])
    s = m * np.cumsum(np.maximum(u, 0.0))[:-1]
    s = np.maximum.accumulate(np.clip(s, 0.0, m))
    base = np.minimum(np.floor(s).astype(int), m - 1)
    frac = s - base
    D = d - 1
    order = np.lexsort((-np.arange(D), -frac))
    s_pts = [base.copy()]
    cur = base.copy()
    for axis in order:
        cur = cur.copy()
        cur[axis] += 1
        s_pts.append(cur)
    fs = frac[order]
    weights = np.empty(d)
    weights[0] = 1.0 - fs[0]
    weights[1:D] = fs[:-1] - fs[1:]
    weights[D] = fs[-1]
    weights = np.maximum(weights, 0.0)
    ks = [[int(p[0])] + [int(b) - int(a) for a, b in zip(p[:-1], p[1:])] + [m - int(p[-1])]
          for p in s_pts]
    return np.array([grid.vertex_index(k) for k in ks]), weights


@pytest.mark.parametrize("dim,m", [(1, 1), (2, 9), (3, 6), (4, 4)])
def test_locate_batch_equals_single_point_reference(dim, m):
    rng = np.random.default_rng(20240820)
    grid = make_grid(dim, m)
    faces = np.zeros((60 if dim > 1 else 0, dim))  # on the facet u_1 = 0
    faces[:, 1:] = rng.dirichlet(np.ones(dim - 1), faces.shape[0])
    edges = 0.5 * (grid.vertices[grid.cells[:, 0]] + grid.vertices[grid.cells[:, -1]])
    u = np.vstack([rng.dirichlet(np.ones(dim), 200), grid.vertices, faces, edges.reshape(-1, dim)])
    idx, w = grid.locate(u)
    manifold = RadialManifold(grid, 1.0 + rng.random(grid.n_vertices))
    radii = radius_at(manifold, u)
    points = radius_at(manifold, u)[..., None] * u
    for k, row in enumerate(u):
        i1, w1 = loop_locate(grid, row)
        assert np.array_equal(idx[k], i1) and np.array_equal(w[k], w1)
        # the flat facet through the cell's vertex points; w / r and w * (1 / r) round apart
        facet = 1.0 / float(w1 @ (1.0 / manifold.radii[i1]))
        assert abs(radii[k] - facet) <= 4 * np.spacing(facet)
        assert np.array_equal(points[k], radii[k] * row)
        assert radius_at(manifold, row) == radii[k]


def test_constant_manifold_interpolates_constant():
    # sigma = c is the flat plane sum(x) = c, one facet for every cell: it is reproduced
    # between the vertices to the rounding of the weights' sum (1 ulp measured, 2 once)
    rng = np.random.default_rng(20240821)
    for dim, m in [(2, 9), (3, 8), (4, 5)]:
        grid = make_grid(dim, m)
        u = np.vstack([rng.dirichlet(np.ones(dim), 1000), probe_directions(grid)])
        for c in (0.3, 0.7, 1.0, 2.5):
            r = radius_at(constant_manifold(grid, c), u)
            assert np.abs(r - c).max() <= 2 * np.spacing(c)


@pytest.mark.parametrize("dim,m,off_kink", [(2, 16, 16), (3, 16, 240), (4, 8, 428)])
def test_flat_facets_reproduce_the_decoupled_surface_off_the_kink(dim, m, off_kink):
    # on a cell whose vertices share one largest coordinate i, 1/R = max(u) = u_i is
    # affine in the weights, so the exact surface 1/max(u) of a decoupled map is one
    # flat facet there; reading R itself as affine misses it by up to 0.35%, 0.59% and
    # 4.2% on these cells
    rng = np.random.default_rng(20241019 + dim)
    grid = make_grid(dim, m)
    corners = grid.vertices[grid.cells]  # (cells, d, d): one vertex direction per row
    shared = (corners == corners.max(axis=2, keepdims=True)).all(axis=1).any(axis=1)
    assert np.count_nonzero(shared) == off_kink
    weights = np.vstack([rng.dirichlet(np.ones(dim), (off_kink, 5)).swapaxes(0, 1),
                         np.full((1, off_kink, dim), 1.0 / dim)])  # random points, barycentres
    u = np.einsum("jck,ckd->jcd", weights, corners[shared]).reshape(-1, dim)
    exact = 1.0 / u.max(axis=1)
    got = radius_at(box_boundary_manifold(grid, 1.0), u)
    assert np.all(np.abs(got - exact) <= 4 * np.finfo(float).eps * exact)


@pytest.mark.parametrize("m,gap", [(32, 4.98e-4), (64, 1.26e-4), (128, 3.14e-5)])
def test_flat_facet_and_affine_readings_differ_at_second_order(m, gap):
    # on a smooth surface the two interpolants of the vertex radii part by O(h^2): the
    # reader follows the facets that resample builds, not an affine R
    grid = make_grid(3, m)
    sigma = compute_cs(lg(3, 0.3), grid, 1.0, 0.5, tolerance=1e-9).sigma
    u = probe_directions(grid)
    idx, w = grid.locate(u)
    affine = np.vecdot(w, sigma.radii[idx])
    assert np.abs(radius_at(sigma, u) - affine).max() == pytest.approx(gap, rel=0.1)


def test_order_function_examples():
    assert order_function([1.0, 2.0], [2.0, 2.0]) == 1.0
    assert order_function([0.0, 0.0], [1.0, 2.0]) == np.inf
    assert order_function([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_order_function_scaling():
    rng = np.random.default_rng(20240822)
    for _ in range(100):
        x = rng.random(4) + 0.01
        y = rng.random(4) + 0.01
        c = rng.random() * 4 + 0.1
        assert order_function(c * x, y) == pytest.approx(order_function(x, y) / c)


def loop_order(x, y):
    """Order function of one pair (reference for the batched one)."""
    mask = x > 0.0
    if not mask.any():
        return np.inf
    return float(np.min(y[mask] / x[mask]))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_order_batch_equals_single_point_reference(dim):
    rng = np.random.default_rng(11)
    x = rng.random((300, dim)) * (rng.random((300, dim)) < 0.7)  # zero rows, partial supports
    y = rng.random((300, dim)) * (rng.random((300, dim)) < 0.7)
    x[:5] = 0.0
    y[5:10] = 0.0
    if dim > 1:  # disjoint supports
        x[10:15, 0], y[10:15, 0] = 0.0, 1.0
        x[10:15, 1:], y[10:15, 1:] = 1.0, 0.0
    fwd, back = order_function(x, y), order_function(y, x)
    sym = geometry.symmetrized_order(x, y)
    want_fwd = np.array([loop_order(a, b) for a, b in zip(x, y)])
    want_back = np.array([loop_order(b, a) for a, b in zip(x, y)])
    assert fwd.tobytes() == want_fwd.tobytes() and back.tobytes() == want_back.tobytes()
    assert sym.tobytes() == np.array([min(f, b) for f, b in zip(want_fwd, want_back)]).tobytes()
    assert np.isinf(fwd[:5]).all() and np.isinf(back[5:10]).all()
    if dim > 1:
        assert (sym[10:15] == 0.0).all()
    for k in range(x.shape[0]):
        assert type(order_function(x[k], y[k])) is float
        assert order_function(x[k], y[k]) == want_fwd[k]
        assert geometry.symmetrized_order(x[k], y[k]) == sym[k]
    stacked = order_function(x.reshape(3, 100, dim), y.reshape(3, 100, dim))
    assert stacked.tobytes() == want_fwd.tobytes()


def test_harnack_examples_and_properties():
    rng = np.random.default_rng(20240823)
    assert harnack([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.5)
    assert harnack([1.0, 0.0], [0.0, 1.0]) == 1.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        x = rng.random(d) + 1e-3
        y = rng.random(d) + 1e-3
        h = harnack(x, y)
        assert harnack(x, x) == 0.0
        assert h == pytest.approx(harnack(y, x))
        assert -1e-15 <= h <= 1.0
    x, y = rng.random((50, 3)) + 1e-3, rng.random((50, 3)) * (rng.random((50, 3)) < 0.7)
    y[:, 0] += 1e-3  # partial supports, none empty
    assert harnack(x, y).tobytes() == np.array([harnack(a, b) for a, b in zip(x, y)]).tobytes()
    # the whole batch has a positive entry, the row does not
    with pytest.raises(ValueError, match="row 1"):
        harnack([[1.0, 2.0], [0.0, 0.0]], [[2.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="row 0"):
        harnack([[1.0, 2.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("dim,m,a", [(2, 6, 1.0), (3, 5, 1.0), (3, 7, 2.5), (4, 4, 0.3)])
def test_box_boundary_manifold(dim, m, a):
    grid = make_grid(dim, m)
    manifold = box_boundary_manifold(grid, a)
    pts = vertex_points(manifold)
    # every point sits on the boundary of [0, a]^d
    assert np.allclose(pts.max(axis=1), a, atol=1e-12)
    assert pts.min() >= -1e-15
    for i in range(dim):
        assert manifold.radii[grid.corner_index(i)] == pytest.approx(a)
    assert dense_weakly_unordered(manifold, 1e-12) == []


def test_box_boundary_examples():
    grid2 = make_grid(2, 4)
    mid = [i for i, u in enumerate(grid2.vertices) if np.allclose(u, [0.5, 0.5])][0]
    manifold = box_boundary_manifold(grid2, 1.0)
    assert manifold.radii[mid] == pytest.approx(2.0)
    np.testing.assert_allclose(vertex_points(manifold)[mid], [1.0, 1.0])
    grid3 = make_grid(3, 3)
    bary = [i for i, u in enumerate(grid3.vertices) if np.allclose(u, [1 / 3] * 3)][0]
    assert box_boundary_manifold(grid3, 1.0).radii[bary] == pytest.approx(3.0)


def test_simplex_itself_weakly_unordered():
    for dim, m in [(2, 8), (3, 6)]:
        flat = constant_manifold(make_grid(dim, m), 1.0)
        # every facet of the flat simplex has the normal e: no pair is ordered
        violations, margin, _ = order_check(flat, 1e-6)
        assert violations == 0 and margin == pytest.approx(1.0 / math.sqrt(dim), rel=1e-12)
        assert dense_weakly_unordered(flat, 0.0) == []


def test_weak_unordered_detects_constructed_violation():
    grid = make_grid(2, 4)
    radii = np.ones(grid.n_vertices)
    i_mid, i_hi = grid.vertex_index((2, 2)), grid.vertex_index((1, 3))
    radii[i_mid] = 0.8  # point (0.4, 0.4)
    radii[i_hi] = 1.8   # point (0.45, 1.35), dominates the previous one
    manifold = RadialManifold(grid, radii)
    assert (i_mid, i_hi) in dense_weakly_unordered(manifold, 1e-9)
    # the two cells around (0.45, 1.35) rise to it from both sides
    violations, margin, _ = order_check(manifold, 1e-6)
    assert violations == 2 and margin < 0.0


def test_tilted_facets_are_flagged():
    # one interior radius raised to 2.5 lifts its point to (0.625, 0.625, 1.25), strictly
    # above the neighbours (2, 1, 1) / 4 and (1, 2, 1) / 4, and tilts the six facets around it
    grid = make_grid(3, 4)
    radii = np.ones(grid.n_vertices)
    k = grid.vertex_index((1, 1, 2))
    radii[k] = 2.5
    manifold = RadialManifold(grid, radii)
    assert (grid.vertex_index((2, 1, 1)), k) in dense_weakly_unordered(manifold, 0.0)
    violations, margin, tol = order_check(manifold, 1e-6)
    around = np.flatnonzero((grid.cells == k).any(axis=1))
    flagged = np.flatnonzero(facet_normals(grid, grid.cells, 1.0 / radii).min(axis=1) < -tol)
    assert violations == around.size == 6 and np.array_equal(flagged, around)
    assert margin < 0.0


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 6), (4, 3), (5, 3), (6, 2), (2, 64), (3, 16), (4, 8), (5, 4)])
def test_exact_normals_round_the_float_solve(dim, m):
    # every cell, boundary ones included, on random, box and flat surfaces: the Kuhn-path
    # normals agree with the LAPACK solve and with the same path on the rationals 1/r,
    # within the rounding bound under which order_check evaluates a cell again exactly
    grid = make_grid(dim, m)
    k = 1 + 2 * (dim - 1) * m
    for radii in (np.exp(np.random.default_rng(dim).normal(0.0, 0.3, grid.n_vertices)),
                  1.0 / grid.vertices.max(axis=1), np.ones(grid.n_vertices)):
        b = 1.0 / radii
        bound = 4 * dim * k * np.finfo(float).eps * b.max()
        a = facet_normals(grid, grid.cells, b)
        solved = np.linalg.solve(grid.vertices[grid.cells], b[grid.cells][..., None])[..., 0]
        exact = facet_normals(grid, grid.cells, np.array([1 / Fraction(r) for r in radii.tolist()]))
        assert exact.dtype == object and np.abs(a - solved).max() <= bound
        assert np.abs(a - exact.astype(float)).max() <= bound


def test_weakly_unordered_memory_is_linear():
    # the dense scan held an (n, n, d) array per support group: 126 MB here
    manifold = box_boundary_manifold(make_grid(3, 64), 2.0)
    tracemalloc.start()
    try:
        order_check(manifold, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_sup_gap():
    grid = make_grid(3, 6)
    a = constant_manifold(grid, 1.0)
    b = constant_manifold(grid, 1.5)
    assert sup_gap(a, a) == 0.0
    assert sup_gap(a, b) == pytest.approx(0.5)
    eps = 0.25
    gap = sup_gap(constant_manifold(grid, eps), box_boundary_manifold(grid, 1.0))
    assert gap == pytest.approx(3 - eps)
    with pytest.raises(GridError):
        sup_gap(a, constant_manifold(make_grid(3, 5), 1.0))


def test_hausdorff_examples():
    g1, g3 = make_grid(1, 1), make_grid(3, 6)
    assert hausdorff_bound(constant_manifold(g1, 1.0), constant_manifold(g1, 1.5)) == 0.5
    box = box_boundary_manifold(g3, 1.0)
    assert hausdorff_bound(box, box) == 0.0
    # a constant gap: the corners, at |u| = 1, are the farthest partners
    assert hausdorff_bound(constant_manifold(g3, 1.0), constant_manifold(g3, 1.25)) == 0.25
    # a gap at the centre only: the farthest corresponding points are the centre's own,
    # at |u| = 1/sqrt(3)
    centre = g3.vertex_index((2, 2, 2))
    bump = np.ones(g3.n_vertices)
    bump[centre] = 1.5
    bound = hausdorff_bound(constant_manifold(g3, 1.0), RadialManifold(g3, bump))
    assert bound == 0.5 * g3.norms[centre] == pytest.approx(0.5 / math.sqrt(3), rel=1e-15)
    with pytest.raises(GridError):
        hausdorff_bound(box, constant_manifold(make_grid(3, 5), 1.0))
    with pytest.raises(GridError):
        harnack_distance(box, constant_manifold(make_grid(2, 6), 1.0))


def sandwich(kmap, dim, m, kappa, epsilon):
    """Every (lower, upper) pair of a compute_cs run, the initial pair first."""
    grid = make_grid(dim, m)
    pairs = [(constant_manifold(grid, epsilon), box_boundary_manifold(grid, 1.0 + kappa))]
    compute_cs(kmap, grid, kappa, epsilon, tolerance=1e-6,
               on_iteration=lambda n, lower, upper: pairs.append((lower, upper)))
    return pairs


def lg(dim, offdiag):
    return leslie_gower((1.0,) * dim, np.eye(dim) + offdiag * (1.0 - np.eye(dim)))


@functools.cache
def sandwich_of(dim):
    """The sandwich pairs of Leslie-Gower (d=1; d=3 at res 24, d=4 at res 12) and Ricker (d=2, res 300)."""
    if dim == 1:
        return sandwich(lg(1, 0.0), 1, 1, 1.0, 0.5)
    m = {2: 300, 3: 24, 4: 12}[dim]
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5) if dim == 2 else lg(dim, 0.3 if dim == 3 else 0.2)
    return sandwich(kmap, dim, m, 1.0 if dim > 2 else 0.25, 0.5)


def probe_directions(grid):
    """Every cell barycentre and edge midpoint of a grid."""
    a, b, _ = grid.edges
    return np.concatenate([grid.vertices[grid.cells].mean(axis=1),
                           0.5 * (grid.vertices[a] + grid.vertices[b])])


@pytest.mark.parametrize("dim,m", [(1, 1), (2, 300), (3, 24), (4, 12)])
def test_hausdorff_bound_brackets_vertex_hausdorff_on_iterates(dim, m):
    pairs = sandwich_of(dim)
    assert pairs[0][0].grid.resolution == m
    for lower, upper in pairs:  # far apart at first, converged at last
        bound = hausdorff_bound(lower, upper)
        # the two sides compute |r_k v_k - r'_k v_k| in two ways
        assert vertex_hausdorff(vertex_points(lower), vertex_points(upper)) <= \
            bound + 4 * np.spacing(bound)
        assert bound <= sup_gap(lower, upper)
        if dim == 1:
            assert bound == abs(upper.radii[0] - lower.radii[0])
            continue
        # the partner at the same weights of the facet simplices, not on the same ray
        a, b = facet_partners(lower, upper, probe_directions(lower.grid))
        assert np.linalg.norm(a - b, axis=1).max() <= bound


@pytest.mark.parametrize("dim,m", [(2, 16), (3, 8), (4, 4)])
def test_hausdorff_bound_covers_sampled_facet_points_of_steep_surfaces(dim, m):
    # radii up to 20x apart between neighbours; every cell's facet is sampled at the same
    # weights on both surfaces, its vertices included, so each sampled point's partner is
    # sampled too, and the bound must hold for the sampled Hausdorff distance; a pair of
    # corresponding vertex points attains it, so no smaller bound follows from partners
    rng = np.random.default_rng(4000 + dim)
    grid = make_grid(dim, m)
    corners = grid.vertices[grid.cells]
    for _ in range(10):
        a = RadialManifold(grid, 0.1 + 2.0 * rng.random(grid.n_vertices))
        b = RadialManifold(grid, 0.1 + 2.0 * rng.random(grid.n_vertices))
        weights = np.vstack([rng.dirichlet(np.ones(dim), (3, corners.shape[0])),
                             np.eye(dim)[:, None, :].repeat(corners.shape[0], axis=1)])
        u = np.einsum("jck,ckd->jcd", weights, corners).reshape(-1, dim)
        pa, pb = facet_partners(a, b, u)
        bound = hausdorff_bound(a, b)
        assert vertex_hausdorff(pa, pb) <= bound + 4 * np.spacing(bound)
        assert np.linalg.norm(pa - pb, axis=1).max() >= bound - 4 * np.spacing(bound)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_harnack_distance_equals_oracle_on_iterates(dim):
    ulp = np.spacing(1.0)
    for lower, upper in sandwich_of(dim):
        got = harnack_distance(lower, upper)
        at_vertices = harnack(vertex_points(lower), vertex_points(upper))
        assert abs(got - at_vertices.max()) <= 4 * ulp
        assert got == harnack_distance(upper, lower)
        if dim > 1:
            u = lower.grid.vertices[lower.grid.cells].mean(axis=1)
            dense = harnack(radius_at(lower, u)[:, None] * u, radius_at(upper, u)[:, None] * u)
            assert dense.max() <= got + 4 * ulp


def triu_ratio_max(pts):
    """The largest ratio |v| / |Pv| over all pairs of rows."""
    return float(row_ratios(pts, *np.triu_indices(pts.shape[0], k=1)).max())


def converged_sigma(dim, m):
    """A converged lockstep surface: Ricker for d=2, Leslie-Gower above."""
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5) if dim == 2 else lg(dim, 0.3 if dim == 3 else 0.2)
    return lockstep_sigma(kmap, make_grid(dim, m), 1.0 if dim > 2 else 0.25, 0.5, 1e-6)


def decoupled_sigma(dim, m):
    """The lockstep surface of decoupled Leslie-Gower (A = I), tol 1e-7."""
    return lockstep_sigma(lg(dim, 0.0), make_grid(dim, m), 1.0, 0.5, 1e-7)


@pytest.mark.parametrize("dim,m,flagged", [(3, 16, 18), (4, 8, 108)])
def test_projection_ratio_bound_on_decoupled_surfaces(dim, m, flagged):
    # the computed surface is the unit box's boundary to rounding (d=3) or finding 1's
    # wrong surface (d=4); the normals of their kink cells have entries far below the
    # tolerance of any radial error up to 1e-6, so the sqrt(d) bound is not claimed
    sigma = decoupled_sigma(dim, m)
    for delta in (1e-7, 1e-6):
        violations, margin, _ = order_check(sigma, delta)
        assert violations == flagged and margin < -0.3
    assert triu_ratio_max(vertex_points(sigma)) <= math.sqrt(dim) * (1.0 + 1e-12)


def test_projection_ratio_bound_on_computed_decoupled_surface():
    # compute_cs's inflated lower leaves a decoupled d=3 surface with a strictly
    # ordered pair above sqrt(3), still below sqrt(1 + d) = 2; its kink cells fail
    # the facet check, so verify's negative order margin records that the sqrt(d)
    # bound is not claimed
    kmap = lg(3, 0.0)
    sigma = compute_cs(kmap, make_grid(3, 16), 1.0, 0.5, tolerance=1e-7).sigma
    assert math.sqrt(3) < triu_ratio_max(vertex_points(sigma)) < 2.0
    rep = simplex.verify_cs(kmap, sigma, 1.0, sample_count=0, tolerance=1e-7)
    assert rep.unorder_violations == 18 and rep.order_margin < -0.3


@pytest.fixture(scope="module")
def lg3_res64():
    return converged_sigma(3, 64)


def test_projection_ratio_bound_is_sqrt_d_when_converged(lg3_res64):
    violations, margin, _ = order_check(lg3_res64, 1e-6)
    assert violations == 0 and margin > 0.1  # every normal positive: the bound is sqrt(3)
    assert triu_ratio_max(vertex_points(lg3_res64)) < math.sqrt(3.0)  # 1.37: the all-pairs maximum


def test_projection_ratio_bound_memory_is_linear(lg3_res64):
    # all 2.3 million pairs at once would hold about 200 MB
    tracemalloc.start()
    try:
        order_check(lg3_res64, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_order_tolerance_bounds_the_inverse_vertex_matrices(dim):
    # with radii 1 and delta 1/2, order_check's tol is its K; the largest ||V^-1||_inf
    # over the Kuhn cells measures 2m - 1 at d = 2 and 3, and 4m - 3 at d = 4 and 5
    for m in range(1, 9):
        grid = make_grid(dim, m)
        norm = np.abs(np.linalg.inv(grid.vertices[grid.cells])).sum(axis=2).max()
        assert norm <= order_check(constant_manifold(grid, 1.0), 0.5)[2]


@pytest.mark.parametrize("dim,m", [(2, 64), (3, 16), (4, 8), (5, 4)])
def test_order_tolerance_covers_a_delta_change_of_the_radii(dim, m):
    rng = np.random.default_rng(7000 + 100 * dim + m)
    grid = make_grid(dim, m)
    for radii in (np.ones(grid.n_vertices), 1.0 / grid.vertices.max(axis=1),
                  0.5 + rng.random(grid.n_vertices)):
        a = facet_normals(grid, grid.cells, 1.0 / radii)
        for delta in (1e-6, 1e-3, 0.1):
            tol = order_check(RadialManifold(grid, radii), delta)[2]
            for _ in range(10):
                moved = radii + delta * rng.choice([-1.0, 1.0], grid.n_vertices)
                assert np.abs(facet_normals(grid, grid.cells, 1.0 / moved) - a).max() <= tol


def test_sup_gap_dominates_hausdorff():
    rng = np.random.default_rng(20240824)
    grid = make_grid(3, 6)
    for _ in range(20):
        ra = 0.5 + rng.random(grid.n_vertices)
        rb = 0.5 + rng.random(grid.n_vertices)
        a = RadialManifold(grid, ra)
        b = RadialManifold(grid, rb)
        bound = hausdorff_bound(a, b)
        assert vertex_hausdorff(vertex_points(a), vertex_points(b)) <= bound <= sup_gap(a, b)


def test_spacing_and_lipschitz():
    grid = make_grid(2, 8)
    assert grid_spacing(grid) == pytest.approx(math.sqrt(2) / 8)
    flat = constant_manifold(grid, 2.0)
    assert lipschitz_estimate(flat) == 0.0
    box = box_boundary_manifold(grid, 1.0)
    assert lipschitz_estimate(box) > 0.0
    # degenerate one-point grid
    g1 = make_grid(1, 1)
    assert grid_spacing(g1) == 0.0
    assert lipschitz_estimate(constant_manifold(g1, 1.0)) == 0.0


def test_edges_are_the_cell_edges():
    for dim, m in itertools.product(range(1, 5), range(1, 7)):
        grid = make_grid(dim, m)
        a, b, e = grid.edges
        pairs = [tuple(sorted(p)) for p in zip(a.tolist(), b.tolist())]
        cell_pairs = {tuple(sorted(p)) for cell in grid.cells.tolist()
                      for p in itertools.combinations(cell, 2)}
        assert len(pairs) == len(set(pairs)) == len(cell_pairs)  # each edge once
        assert set(pairs) == cell_pairs
        assert np.array_equal(e, np.linalg.norm(grid.vertices[a] - grid.vertices[b], axis=1))


def test_interp_error_builds_the_edges_once(monkeypatch):
    built = []
    edges = geometry.BarycentricGrid.edges.func

    def counted(grid):
        built.append(grid)
        return edges(grid)

    prop = functools.cached_property(counted)
    prop.__set_name__(geometry.BarycentricGrid, "edges")
    monkeypatch.setattr(geometry.BarycentricGrid, "edges", prop)
    # compute_cs takes its interp_error from the edges
    res = compute_cs(lg(3, 0.3), make_grid(3, 12), 1.0, 0.5, tolerance=1e-6)
    assert len(built) == 1
    h, lip = per_cell_spacing_and_lipschitz(res.sigma)
    assert res.interp_error == lip * h
    assert res.certified_error == res.final_gap / 2.0 + lip * h
    assert built == [res.sigma.grid]


def per_cell_spacing_and_lipschitz(manifold):
    """Longest edge and largest radius slope over every vertex pair of every cell."""
    grid, h, lip = manifold.grid, 0.0, 0.0
    for i, j in itertools.combinations(range(grid.dim), 2):
        ia, ib = grid.cells[:, i], grid.cells[:, j]
        e = np.linalg.norm(grid.vertices[ia] - grid.vertices[ib], axis=1)
        h = max(h, float(e.max()))
        lip = max(lip, float((np.abs(manifold.radii[ia] - manifold.radii[ib]) / e).max()))
    return h, lip


def test_spacing_and_lipschitz_equal_per_cell_reference():
    for sigma in (converged_sigma(3, 24), decoupled_sigma(3, 16)):
        assert (grid_spacing(sigma.grid), lipschitz_estimate(sigma)) == \
            per_cell_spacing_and_lipschitz(sigma)


def test_manifold_rejects_bad_radii():
    grid = make_grid(2, 4)
    with pytest.raises(ValueError):
        RadialManifold(grid, np.zeros(grid.n_vertices))
    with pytest.raises(GridError):
        RadialManifold(grid, np.ones(3))


@pytest.mark.parametrize("dim,m", [(2, 300), (3, 32), (4, 16)])
def test_weakly_unordered_screen_equals_dense_on_converged_surfaces(dim, m):
    # the facet screen passes every cell, and the dense oracle finds no ordered pair either
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5) if dim == 2 else lg(dim, 0.3)
    grid = make_grid(dim, m)
    sigma = compute_cs(kmap, grid, 1.0 if dim > 2 else 0.25, 0.5, tolerance=1e-6).sigma
    violations, margin, _ = order_check(sigma, 1e-6)
    assert violations == 0 and margin > 0.05  # 0.082 at d = 4
    assert dense_weakly_unordered(sigma, 0.0) == []
