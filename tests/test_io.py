import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from csimplex.geometry import RadialManifold, make_grid  # noqa: E402
from csimplex.io import load_manifold_csv, save_manifold_csv, save_trajectory_csv  # noqa: E402


def per_value(x) -> str:
    """The writers' former per-value formatting, kept as the reference."""
    return format(float(x), ".17g")


TIES = [0.1 + 0.2, 1.0000000000000002, 9007199254740993.0, 2.0 / 3.0, 123456789012345678.0]
SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, -1e-300, 1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 6)),
                  elements=st.floats(width=64)))
@example(np.array([TIES + SPECIAL[:3], SPECIAL[3:] + TIES[:4]]))
def test_trajectory_csv_matches_per_value_format(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    traj, dists = data[:, :-1], data[:, -1]
    save_trajectory_csv(str(path), traj, dists)
    header = "n," + ",".join(f"x_{i + 1}" for i in range(traj.shape[1])) + ",dist"
    lines = [header] + [
        str(n) + "," + ",".join(per_value(v) for v in x) + "," + per_value(dist)
        for n, (x, dist) in enumerate(zip(traj, dists))
    ]
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


# (dim, resolution) and one positive finite radius per vertex of that grid
MANIFOLDS = st.sampled_from([(1, 1), (2, 5), (3, 4), (4, 3)]).flatmap(
    lambda dm: st.tuples(st.just(dm), hnp.arrays(
        np.float64, make_grid(*dm).n_vertices,
        elements=st.floats(min_value=5e-324, allow_infinity=False, width=64))))


@settings(max_examples=30, deadline=None)
@given(MANIFOLDS)
@example(((2, 5), np.array(TIES + [5e-324])))
def test_manifold_csv_matches_per_value_format(tmp_path_factory, case):
    (dim, m), radii = case
    manifold = RadialManifold(make_grid(dim, m), radii)
    path = tmp_path_factory.mktemp("sigma") / "sigma.csv"
    save_manifold_csv(str(path), manifold)
    lines = [",".join(f"u_{i + 1}" for i in range(dim)) + ",R"] + [
        ",".join(per_value(v) for v in u) + "," + per_value(r)
        for u, r in zip(manifold.grid.vertices, manifold.radii)
    ]
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


@settings(max_examples=30, deadline=None)
@given(MANIFOLDS)
@example(((2, 5), np.array(TIES + [5e-324])))
def test_manifold_csv_load_returns_the_saved_radii(tmp_path_factory, case):
    (dim, m), radii = case
    grid = make_grid(dim, m)
    path = tmp_path_factory.mktemp("sigma") / "sigma.csv"
    save_manifold_csv(str(path), RadialManifold(grid, radii))
    loaded = load_manifold_csv(str(path), grid)
    assert loaded.radii.tobytes() == radii.tobytes()
