import itertools
import math
import tracemalloc

import numpy as np
import pytest

from csimplex import geometry
from csimplex.maps import leslie_gower, ricker2d
from csimplex.simplex import compute_cs
from csimplex.geometry import (
    GridError,
    box_boundary_manifold,
    constant_manifold,
    eval_radial,
    grid_spacing,
    harnack,
    hausdorff_points,
    is_weakly_unordered,
    lipschitz_estimate,
    make_grid,
    nearest_distances,
    order_function,
    project_e_perp,
    projection_ratio_max,
    radial_project,
    radius_at,
    restricted_harnack,
    sup_gap,
    vertex_points,
    RadialManifold,
)

RNG = np.random.default_rng(20240817)


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


def test_vertex_index_rejects_points_off_lattice():
    grid = make_grid(3, 4)
    for k in [(1, 1, 1), (5, -1, 0), (2, 2)]:
        with pytest.raises(GridError):
            grid.vertex_index(k)


@pytest.mark.parametrize("dim,m", [(2, 9), (3, 5), (4, 3)])
def test_locate_exact_at_vertices(dim, m):
    grid = make_grid(dim, m)
    radii = 1.0 + RNG.random(grid.n_vertices)
    manifold = RadialManifold(grid, radii)
    for i in range(grid.n_vertices):
        u = grid.vertices[i]
        assert radius_at(manifold, u) == pytest.approx(radii[i], abs=1e-13)
        np.testing.assert_allclose(eval_radial(manifold, u), radii[i] * u, atol=1e-13)


@pytest.mark.parametrize("dim,m", [(2, 9), (3, 6), (4, 4)])
def test_locate_weights_reconstruct_point(dim, m):
    grid = make_grid(dim, m)
    for _ in range(200):
        w = RNG.dirichlet(np.ones(dim))
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
    grid = make_grid(dim, m)
    faces = np.zeros((60 if dim > 1 else 0, dim))  # on the facet u_1 = 0
    faces[:, 1:] = RNG.dirichlet(np.ones(dim - 1), faces.shape[0])
    edges = 0.5 * (grid.vertices[grid.cells[:, 0]] + grid.vertices[grid.cells[:, -1]])
    u = np.vstack([RNG.dirichlet(np.ones(dim), 200), grid.vertices, faces, edges.reshape(-1, dim)])
    idx, w = grid.locate(u)
    manifold = RadialManifold(grid, 1.0 + RNG.random(grid.n_vertices))
    radii = radius_at(manifold, u)
    points = eval_radial(manifold, u)
    for k, row in enumerate(u):
        i1, w1 = loop_locate(grid, row)
        assert np.array_equal(idx[k], i1) and np.array_equal(w[k], w1)
        assert radii[k] == float(w1 @ manifold.radii[i1])
        assert np.array_equal(points[k], float(w1 @ manifold.radii[i1]) * row)
        assert radius_at(manifold, row) == radii[k]


def test_constant_manifold_interpolates_constant():
    grid = make_grid(3, 8)
    manifold = constant_manifold(grid, 0.7)
    for _ in range(50):
        u = RNG.dirichlet(np.ones(3))
        np.testing.assert_allclose(eval_radial(manifold, u), 0.7 * u, atol=1e-12)


def test_radial_project():
    np.testing.assert_allclose(radial_project([2.0, 2.0]), [0.5, 0.5])
    np.testing.assert_allclose(radial_project([1.0, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(radial_project([1.0, 3.0]), [0.25, 0.75])
    with pytest.raises(ValueError):
        radial_project([0.0, 0.0])
    batch = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # whole-array sums are 0.286 and 0.714
    got = radial_project(batch)
    np.testing.assert_allclose(got.sum(axis=1), [1.0, 1.0], rtol=1e-15)
    for row, direction in zip(batch, got):
        assert direction.tobytes() == radial_project(row).tobytes()
    with pytest.raises(ValueError, match="row 1"):
        radial_project([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="row 0"):
        radial_project([[1.0, -2.0], [1.0, 1.0]])


def test_order_function_examples():
    assert order_function([1.0, 2.0], [2.0, 2.0]) == 1.0
    assert order_function([0.0, 0.0], [1.0, 2.0]) == np.inf
    assert order_function([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_order_function_scaling():
    for _ in range(100):
        x = RNG.random(4) + 0.01
        y = RNG.random(4) + 0.01
        c = RNG.random() * 4 + 0.1
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
    assert harnack([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.5)
    assert harnack([1.0, 0.0], [0.0, 1.0]) == 1.0
    for _ in range(1000):
        d = int(RNG.integers(1, 5))
        x = RNG.random(d) + 1e-3
        y = RNG.random(d) + 1e-3
        h = harnack(x, y)
        assert harnack(x, x) == 0.0
        assert h == pytest.approx(harnack(y, x))
        assert -1e-15 <= h <= 1.0
    x, y = RNG.random((50, 3)) + 1e-3, RNG.random((50, 3)) * (RNG.random((50, 3)) < 0.7)
    y[:, 0] += 1e-3  # partial supports, none empty
    assert harnack(x, y).tobytes() == np.array([harnack(a, b) for a, b in zip(x, y)]).tobytes()
    # the whole batch has a positive entry, the row does not
    with pytest.raises(ValueError, match="row 1"):
        harnack([[1.0, 2.0], [0.0, 0.0]], [[2.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="row 0"):
        harnack([[1.0, 2.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]])


def test_restricted_harnack():
    x = np.array([1.0, 5.0])
    y = np.array([2.0, 5.0])
    assert restricted_harnack(x, y, [0, 1]) == pytest.approx(harnack(x, y))
    assert restricted_harnack(x, y, [0]) == pytest.approx(0.5)
    assert restricted_harnack(x, y, [1]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        restricted_harnack([0.0, 1.0], [0.0, 2.0], [0])


def test_project_e_perp():
    d = 5
    np.testing.assert_allclose(project_e_perp(np.ones(d)), np.zeros(d), atol=1e-14)
    np.testing.assert_allclose(project_e_perp([1.0, 0.0]), [0.5, -0.5], atol=1e-14)
    for _ in range(100):
        x = RNG.normal(size=d)
        c = RNG.normal()
        p = project_e_perp(x)
        assert abs(p @ np.ones(d)) < 1e-12
        np.testing.assert_allclose(project_e_perp(p), p, atol=1e-13)
        np.testing.assert_allclose(project_e_perp(x + c), p, atol=1e-12)


def test_project_e_perp_batch_equals_rows():
    x = RNG.normal(size=(9, 4))
    batch = project_e_perp(x)
    np.testing.assert_allclose(batch.sum(axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(project_e_perp(np.arange(6.0).reshape(2, 3)), [[-1, 0, 1]] * 2)
    for row, got in zip(x, batch):
        assert np.array_equal(project_e_perp(row), got)
        # a single point keeps the whole-array formula's bits
        assert np.array_equal(project_e_perp(row), row - row.mean() * np.ones_like(row))


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
    assert is_weakly_unordered(manifold, 1e-12) == []


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
        grid = make_grid(dim, m)
        assert is_weakly_unordered(constant_manifold(grid, 1.0), 1e-12) == []


def test_weak_unordered_detects_constructed_violation():
    grid = make_grid(2, 4)
    radii = np.ones(grid.n_vertices)
    i_mid = [i for i, u in enumerate(grid.vertices) if np.allclose(u, [0.5, 0.5])][0]
    i_hi = [i for i, u in enumerate(grid.vertices) if np.allclose(u, [0.25, 0.75])][0]
    radii[i_mid] = 0.8  # point (0.4, 0.4)
    radii[i_hi] = 1.8   # point (0.45, 1.35), dominates the previous one
    violations = is_weakly_unordered(RadialManifold(grid, radii), 1e-9)
    assert (i_mid, i_hi) in violations


def dense_weakly_unordered(manifold, tol_order):
    """The (n, n, d) dominance scan (reference for the row-blocked one)."""
    pts = vertex_points(manifold)
    supp = manifold.grid.lattice > 0
    keys = supp @ (1 << np.arange(manifold.grid.dim))
    violations = []
    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        if members.size < 2:
            continue
        mask = supp[members[0]]
        p = pts[np.ix_(members, np.flatnonzero(mask))]
        diff = p[None, :, :] - p[:, None, :]
        dom = diff.min(axis=-1) > tol_order
        for i, j in zip(*np.nonzero(dom)):
            violations.append((int(members[i]), int(members[j])))
    return violations


@pytest.mark.parametrize("dim,m", [(2, 40), (3, 12), (4, 6)])
def test_weakly_unordered_blocks_equal_dense(dim, m, monkeypatch):
    grid = make_grid(dim, m)
    sigma = compute_cs(lg(dim, 0.3), grid, 1.0, 0.5, tolerance=1e-6).sigma
    noisy = RadialManifold(grid, sigma.radii * (1.0 + 0.2 * RNG.standard_normal(grid.n_vertices)))
    manifolds = [
        (box_boundary_manifold(grid, 1.0), 1e-12),
        (constant_manifold(grid, 1.0), 1e-12),
        (constant_manifold(grid, 1.0), 0.0),  # a point against itself ties at 0
        (box_boundary_manifold(grid, 1.0), 0.0),
        (sigma, 1e-9),
        (noisy, 1e-9),  # perturbed: many dominated pairs
        (noisy, -1.0),  # every pair of a support group
    ]
    for manifold, tol in manifolds:
        expected = dense_weakly_unordered(manifold, tol)
        for block in (geometry.PAIR_BLOCK, 1, 7, 3 * grid.n_vertices - 1):
            monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
            got = is_weakly_unordered(manifold, tol)
            assert got == expected
            assert all(type(i) is int and type(j) is int for i, j in got)
    assert dense_weakly_unordered(noisy, 1e-9) != []


def test_weakly_unordered_memory_is_linear():
    # the dense scan held an (n, n, d) array per support group: 126 MB here
    manifold = box_boundary_manifold(make_grid(3, 64), 2.0)
    tracemalloc.start()
    try:
        assert is_weakly_unordered(manifold, 1e-12) == []
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
    assert hausdorff_points([[0.0]], [[0.0]]) == 0.0
    assert hausdorff_points([[0.0]], [[1.0]]) == 1.0
    assert hausdorff_points([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0
    a = RNG.random((40, 3))
    assert hausdorff_points(a, a) == 0.0


def broadcast_sq_dists(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hausdorff_chunked_equals_broadcast(dim, monkeypatch):
    for na, nb in [(37, 23), (700, 450)]:
        a, b = RNG.random((na, dim)), RNG.random((nb, dim))
        d2 = broadcast_sq_dists(a, b)
        expected = float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))
        # the default block, and blocks that split |a| and |b| unevenly
        for block in (geometry.PAIR_BLOCK, 5 * nb + 4, 7 * na - 1, 1):
            monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
            assert hausdorff_points(a, b) == expected
            assert hausdorff_points(b, a) == expected
            assert np.array_equal(nearest_distances(a, b), np.sqrt(d2.min(axis=1)))
            assert np.array_equal(nearest_distances(b, a), np.sqrt(d2.min(axis=0)))


def broadcast_nearest(a, b):
    return np.sqrt(broadcast_sq_dists(a, b).min(axis=1))


def iterate_pairs(kmap, dim, m, kappa, epsilon):
    """Vertex clouds of every (lower, upper) pair of a compute_cs run."""
    pairs = []

    def keep(n, lower, upper):
        pairs.append((vertex_points(lower), vertex_points(upper)))

    compute_cs(kmap, make_grid(dim, m), kappa, epsilon, tolerance=1e-6, on_iteration=keep)
    return pairs


def lg(dim, offdiag):
    return leslie_gower((1.0,) * dim, np.eye(dim) + offdiag * (1.0 - np.eye(dim)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_nearest_band_equals_broadcast(dim, monkeypatch):
    a = RNG.random((200, dim))  # 200 x 200 pairs exceed the default block
    coarse = RNG.integers(0, 4, (200, dim)) / 4.0  # duplicates, ties in every coordinate
    with_nan = a.copy()
    with_nan[7, 0], with_nan[11, -1] = np.nan, np.inf
    cases = [
        (a, a),  # identical: every seed bound is 0
        (a, a[::-1].copy()),
        (a, RNG.random((200, dim)) + 10.0),  # far apart: the band is all of b
        (coarse, coarse[RNG.permutation(200)]),
        (coarse, RNG.integers(0, 4, (230, dim)) / 4.0),
        (a, RNG.random((170, dim))),  # unequal sizes: rows past the end of b
        (RNG.random((170, dim)), a),
        (with_nan, a),
        (a, with_nan),
    ]
    iterates = {
        1: [(a[:40], a[40:90])],
        2: iterate_pairs(ricker2d(0.5, 0.5, 0.5, 0.5), 2, 64, 0.25, 0.5)[::4],
        3: iterate_pairs(lg(3, 0.3), 3, 12, 1.0, 0.5)[::4],
        4: iterate_pairs(lg(4, 0.2), 4, 6, 1.0, 0.5)[::4],
    }[dim]
    for lower, upper in iterates:
        cases += [(lower, upper), (upper, lower)]
    for a_, b_ in cases:
        to_b, to_a = broadcast_nearest(a_, b_), broadcast_nearest(b_, a_)
        expected = float(max(to_b.max(), to_a.max()))
        na, nb = a_.shape[0], b_.shape[0]
        # the default block, one pair, and blocks that split the sets unevenly
        for block, rows in [(geometry.PAIR_BLOCK, geometry.BAND_ROWS), (1, geometry.BAND_ROWS),
                            (97, 3), (5 * nb + 4, 3), (7 * na - 1, geometry.BAND_ROWS)]:
            monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
            monkeypatch.setattr(geometry, "BAND_ROWS", rows)
            assert np.array_equal(nearest_distances(a_, b_), to_b, equal_nan=True)
            assert np.array_equal(nearest_distances(b_, a_), to_a, equal_nan=True)
            got = hausdorff_points(a_, b_)
            assert got == expected or (np.isnan(got) and np.isnan(expected))


def broadcast_hausdorff(a, b):
    return float(max(broadcast_nearest(a, b).max(), broadcast_nearest(b, a).max()))


def count_solved_rows(monkeypatch):
    """Rows of a that the band search of the Hausdorff early exit solves, as a running count."""
    solved = [0]
    band_sq = geometry._band_sq

    def counted(a, *args):
        solved[0] += a.shape[0]
        return band_sq(a, *args)

    monkeypatch.setattr(geometry, "_band_sq", counted)
    return solved


@pytest.mark.parametrize("dim,m", [(2, 300), (3, 24), (4, 12)])
def test_hausdorff_early_exit_equals_broadcast_on_iterates(dim, m):
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5) if dim == 2 else lg(dim, 0.3 if dim == 3 else 0.2)
    pairs = iterate_pairs(kmap, dim, m, 1.0 if dim > 2 else 0.25, 0.5)
    rng = np.random.default_rng(dim)
    for lower, upper in pairs:
        assert lower.shape[0] ** 2 > geometry.PAIR_BLOCK  # the early exit, not the dense block
        expected = broadcast_hausdorff(lower, upper)
        # a permuted b: the seed bounds belong to unrelated rows
        shuffled = upper[rng.permutation(upper.shape[0])]
        for a_, b_ in [(lower, upper), (upper, lower), (lower, shuffled), (shuffled, lower)]:
            assert hausdorff_points(a_, b_) == expected


def test_hausdorff_early_exit_edge_cases(monkeypatch):
    a = RNG.random((300, 3))
    coarse = RNG.integers(0, 3, (300, 3)) / 2.0  # duplicate points, tied seeds and minima
    nonfinite = a.copy()
    nonfinite[5, 1], nonfinite[9, 2] = np.nan, np.inf
    cases = [
        (a, a), (a, a + 1e-3), (a, a[::-1].copy()), (coarse, coarse[RNG.permutation(300)]),
        (coarse, RNG.integers(0, 3, (280, 3)) / 2.0),
        (a, RNG.random((260, 3))), (RNG.random((260, 3)), a),  # unequal sizes, both orders
        (a, RNG.random((40, 3)) + 5.0),  # rows with no partner solve against all of b
        (nonfinite, a), (a, nonfinite), (nonfinite[:, :1], a[:, :1]),
    ]
    for a_, b_ in cases:
        expected = broadcast_hausdorff(a_, b_)
        # the default block, and one small enough that every case exits early
        for block, rows in [(geometry.PAIR_BLOCK, geometry.BAND_ROWS), (97, 3), (97, 1)]:
            monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
            monkeypatch.setattr(geometry, "BAND_ROWS", rows)
            got = hausdorff_points(a_, b_)
            assert got == expected or (np.isnan(got) and np.isnan(expected))


def test_hausdorff_early_exit_stops_at_a_tied_bound(monkeypatch):
    # rows by descending seed: row 0 (seed 100, minimum 9 at b_2), row 1 (seed
    # and minimum 9, equal to H^2 after row 0: skipped), row 2 (seed 1/4)
    a = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 3.5]])
    b = np.array([[10.0, 0.0], [50.0, 3.0], [0.0, 3.0]])
    monkeypatch.setattr(geometry, "BAND_ROWS", 1)
    solved = count_solved_rows(monkeypatch)
    assert geometry._directed_hausdorff(a, b) == 3.0
    assert solved[0] == 1
    # row 1 one ulp farther: its bound exceeds H^2, and it raises the maximum
    far = b.copy()
    far[1, 1] = np.nextafter(3.0, 4.0)
    expected = float(broadcast_nearest(a, far).max())
    assert expected > 3.0
    solved[0] = 0
    assert geometry._directed_hausdorff(a, far) == expected
    assert solved[0] == 2


def test_hausdorff_early_exit_solves_few_rows_when_converged(monkeypatch):
    pairs = iterate_pairs(lg(3, 0.3), 3, 64, 1.0, 0.5)
    solved = count_solved_rows(monkeypatch)
    for lower, upper in pairs[-3:]:
        expected = max(nearest_distances(lower, upper).max(), nearest_distances(upper, lower).max())
        solved[0] = 0
        assert hausdorff_points(lower, upper) == expected
        assert solved[0] < 0.05 * (lower.shape[0] + upper.shape[0])


def triu_ratio_max(pts):
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    diffs = pts[ii] - pts[jj]
    proj = diffs - diffs.mean(axis=1, keepdims=True)
    num = np.linalg.norm(diffs, axis=1)
    den = np.linalg.norm(proj, axis=1)
    return float(np.where(den > 1e-300, num / np.maximum(den, 1e-300), np.inf).max())


def converged_points(dim, m):
    """Vertex points of a converged compute_cs surface: Ricker for d=2, Leslie-Gower above."""
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5) if dim == 2 else lg(dim, 0.3 if dim == 3 else 0.2)
    sigma = compute_cs(kmap, make_grid(dim, m), 1.0 if dim > 2 else 0.25, 0.5, tolerance=1e-6).sigma
    return vertex_points(sigma)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf rows
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_projection_ratio_chunked_equals_triu(dim, monkeypatch):
    pts = RNG.random((41, dim))
    along_e = pts.copy()
    along_e[3] = 0.25 * np.arange(dim)
    along_e[4] = along_e[3] + 0.5  # a pair that differs along (1, ..., 1) only
    # small sets, so that every pair is the largest in some set
    small = list(RNG.random((30, 7, dim)))
    far_dup = RNG.random((300, dim))
    far_dup[-1] = far_dup[0]  # duplicate rows far apart in index
    e_pair = RNG.random((300, dim))
    e_pair[10] = 0.25 * np.arange(dim)
    e_pair[250] = e_pair[10] + 0.5  # an e-parallel pair, also far apart in index
    nonfinite = RNG.random((300, dim))
    nonfinite[5], nonfinite[77, -1] = np.nan, np.inf
    # uneven bucket fills: a dense cluster in a sparse halo
    uneven = np.concatenate([0.5 + 1e-3 * RNG.random((250, dim)), RNG.random((60, dim))])
    large = [far_dup, e_pair, nonfinite, uneven]
    if dim > 1:  # surfaces above one block: converged, the decoupled box and the flat simplex
        m = {2: 300, 3: 24, 4: 12}[dim]
        grid = make_grid(dim, m)
        large += [converged_points(dim, m), vertex_points(box_boundary_manifold(grid, 1.0)),
                  vertex_points(constant_manifold(grid, 1.0))]
        assert large[-3].shape[0] * (large[-3].shape[0] - 1) // 2 > geometry.PAIR_BLOCK // dim
    # (PAIR_BLOCK, RATIO_FILL): the defaults, small blocks, one row per bucket and large buckets
    fill = geometry.RATIO_FILL
    for sets, settings in [
        ([pts, along_e, pts[:2]] + small,
         [(geometry.PAIR_BLOCK, fill), (50, 1), (3 * dim + 1, 40), (1, fill), (1, 1)]),
        (large, [(geometry.PAIR_BLOCK, fill), (geometry.PAIR_BLOCK, 1), (997, 40), (397, fill)]),
    ]:
        for p in sets:
            expected = triu_ratio_max(p)
            for block, fill in settings:
                monkeypatch.setattr(geometry, "PAIR_BLOCK", block)
                monkeypatch.setattr(geometry, "RATIO_FILL", fill)
                assert projection_ratio_max(p) == expected
    assert projection_ratio_max(along_e) == np.inf
    assert projection_ratio_max(far_dup) == projection_ratio_max(e_pair) == np.inf
    assert projection_ratio_max(nonfinite) == np.inf


def count_solved_pairs(monkeypatch):
    """Row pairs whose ratio projection_ratio_max computes, as a running count."""
    solved = [0]
    pair_ratios = geometry._pair_ratios

    def counted(pts, i, j):
        solved[0] += i.size
        return pair_ratios(pts, i, j)

    monkeypatch.setattr(geometry, "_pair_ratios", counted)
    return solved


def test_projection_ratio_solves_a_tied_bound(monkeypatch):
    # one row per bucket and one pair per block; both pairs have ratio 1, below best = 1.5
    pts = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]])
    buckets = (np.arange(4), np.arange(4), np.ones(4, dtype=int))
    pa, pb = np.array([0, 2]), np.array([1, 3])
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 3)
    solved = count_solved_pairs(monkeypatch)
    # the first bound equals best^2 = 2.25: solved; the next is an ulp below: the search stops
    bound = np.array([2.25, np.nextafter(2.25, 0.0)])
    assert geometry._bucket_ratio_max(pts, buckets, pa, pb, bound, 1.5) == 1.5
    assert solved[0] == 1
    solved[0] = 0
    assert geometry._bucket_ratio_max(pts, buckets, pa, pb, np.full(2, 2.25), 1.5) == 1.5
    assert solved[0] == 2


def tilted_lattice(dim, n, slope):
    """Rows q + slope * q_0 * e over a dyadic n^(d-1) lattice of q in e-perp.

    All pairs along q_0 have one ratio in exact arithmetic, so in one-row buckets the
    computed ratios and the bounds of the screen tie up to rounding.
    """
    g = np.stack(np.meshgrid(*[np.arange(n) / n] * (dim - 1)), -1).reshape(-1, dim - 1)
    q = np.concatenate([g, -g.sum(axis=1, keepdims=True)], axis=1)
    return q + slope * q[:, :1]


def test_projection_ratio_bounds_dominate_solved_pairs(monkeypatch):
    # the screen's widened bound of a bucket pair is at least the square of every ratio
    # computed in it; without the widening, thousands of tilted-lattice pairs exceed it
    seen = []
    bucket_max = geometry._bucket_ratio_max

    def spy(pts, buckets, pa, pb, bound, best):
        seen.append((buckets, pa, pb, bound))
        return bucket_max(pts, buckets, pa, pb, bound, best)

    monkeypatch.setattr(geometry, "_bucket_ratio_max", spy)
    monkeypatch.setattr(geometry, "RATIO_FILL", 1)
    for pts in (tilted_lattice(3, 16, 0.3), tilted_lattice(4, 8, 2.0), converged_points(3, 24)):
        seen.clear()
        assert projection_ratio_max(pts) == triu_ratio_max(pts)
        checked = 0
        for (perm, start, count), pa, pb, bound in seen:
            for a, b, w in zip(pa, pb, bound):
                if np.isfinite(w):  # seed pairs have no bound
                    i, j = (x.ravel() for x in np.meshgrid(perm[start[a]:][:count[a]],
                                                           perm[start[b]:][:count[b]]))
                    r = geometry._pair_ratios(pts, np.minimum(i, j), np.maximum(i, j)).max()
                    assert r * r <= w
                    checked += 1
        assert checked > 100


@pytest.fixture(scope="module")
def lg3_res64_points():
    return converged_points(3, 64)


def test_projection_ratio_solves_few_pairs_when_converged(lg3_res64_points, monkeypatch):
    n = lg3_res64_points.shape[0]
    solved = count_solved_pairs(monkeypatch)
    got = projection_ratio_max(lg3_res64_points)
    assert 1.3 < got < 1.4  # 1.37: the all-pairs maximum on this surface
    assert solved[0] < 0.15 * n * (n - 1) / 2


def test_projection_ratio_memory_is_linear(lg3_res64_points):
    # all 2.3 million pairs at once would hold about 200 MB
    tracemalloc.start()
    try:
        projection_ratio_max(lg3_res64_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_sup_gap_dominates_hausdorff():
    grid = make_grid(3, 6)
    for _ in range(20):
        ra = 0.5 + RNG.random(grid.n_vertices)
        rb = 0.5 + RNG.random(grid.n_vertices)
        a = RadialManifold(grid, ra)
        b = RadialManifold(grid, rb)
        dh = hausdorff_points(vertex_points(a), vertex_points(b))
        assert dh <= sup_gap(a, b) + 1e-12


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


def test_manifold_rejects_bad_radii():
    grid = make_grid(2, 4)
    with pytest.raises(ValueError):
        RadialManifold(grid, np.zeros(grid.n_vertices))
    with pytest.raises(GridError):
        RadialManifold(grid, np.ones(3))
