import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csimplex.geometry import RadialManifold, make_grid, order_check, vertex_points  # noqa: E402
from surface_oracles import dense_weakly_unordered, row_ratios  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=d, max_size=d),
    min_size=2, max_size=2)))
def test_unordered_pair_ratio_is_at_most_sqrt_d(pair):
    # the lemma behind order_check's ratio bound: a pair strictly ordered in neither direction
    # has |v| <= sqrt(d) |Pv|, so its computed ratio exceeds sqrt(d) by rounding only
    pts = np.array(pair)
    v = pts[1] - pts[0]
    assume(not (np.all(v > 0) or np.all(v < 0)) and np.linalg.norm(v) > 1e-100)
    ratio = row_ratios(pts, np.array([0]), np.array([1]))[0]
    assert ratio <= math.sqrt(pts.shape[1]) * (1.0 + 1e-12)


# Surfaces 1 / (c·u) are flat: one plane with normal c over the whole simplex.
SHAPES = {
    "flat": lambda u, c: np.ones(u.shape[0]),
    "plane": lambda u, c: 1.0 / (u @ c),
    "box": lambda u, c: 1.0 / u.max(axis=1),
    "ball": lambda u, c: 1.0 / np.linalg.norm(u * c, axis=1),
}


@settings(max_examples=200, deadline=None)
@given(size=st.integers(2, 6).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(1, {2: 12, 3: 6, 4: 4, 5: 3, 6: 2}[d]))),
       shape=st.sampled_from(sorted(SHAPES)),
       noise=st.sampled_from([0.0, 1e-16, 1e-13, 1e-9, 1e-4, 1e-2, 0.2]),
       seed=st.integers(0, 2**32 - 1))
@example(size=(3, 6), shape="flat", noise=1e-16, seed=0)
@example(size=(2, 12), shape="box", noise=1e-16, seed=1)
@example(size=(2, 6), shape="box", noise=1e-16, seed=15051341)  # float normals read margin 0.0
def test_nonnegative_normals_leave_no_ordered_vertex_pair(size, shape, noise, seed):
    # order_check's margin >= 0 claims a down-set under the surface: no vertex point
    # strictly above another, within a face or across faces, and every pair's
    # projection ratio at most sqrt(d)
    dim, m = size
    rng = np.random.default_rng(seed)
    grid = make_grid(dim, m)
    c = 0.2 + rng.random(dim)
    radii = SHAPES[shape](grid.vertices, c) * (1.0 + noise * rng.standard_normal(grid.n_vertices))
    manifold = RadialManifold(grid, radii)
    violations, margin, _ = order_check(manifold, 1e-6)
    if shape in ("flat", "plane") and noise <= 1e-9:
        assert margin > 0.0 and violations == 0
    if margin < 0.0:
        return
    assert violations == 0
    assert dense_weakly_unordered(manifold, 0.0) == []
    pts = vertex_points(manifold)
    assert not np.any((pts[None, :, :] - pts[:, None, :]).min(axis=-1) > 0.0)
    i, j = np.triu_indices(grid.n_vertices, 1)
    assert row_ratios(pts, i, j).max() <= math.sqrt(dim) * (1.0 + 1e-12)
