import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csimplex.assumptions import _max_radius  # noqa: E402
from spectral_oracles import dense_radius  # noqa: E402

# few distinct entries, so that row sums, column sums and radii tie often
ENTRIES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 1.2]) | st.floats(0.0, 2.0)


@st.composite
def nonnegative_stacks(draw):
    """(N, d, d) stacks of dense, zero-row, diagonal, Jordan, permutation and repeated matrices."""
    d = draw(st.integers(1, 4))
    mats = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["dense", "zero_row", "diagonal", "jordan", "permutation", "repeat"]))
        if kind == "repeat" and mats:
            mats.append(mats[draw(st.integers(0, len(mats) - 1))])
            continue
        m = np.array([[draw(ENTRIES) for _ in range(d)] for _ in range(d)])
        if kind == "zero_row":
            m[draw(st.integers(0, d - 1))] = 0.0
        elif kind == "diagonal":
            m = np.diag(np.diag(m))
        elif kind == "jordan":  # a 2x2 or 3x3 block a I + t N, then a diagonal
            k = min(d, draw(st.integers(2, 3)))
            m = np.diag(np.diag(m))
            m[:k, :k] = draw(ENTRIES) * np.eye(k) + draw(ENTRIES) * np.eye(k, k=1)
        elif kind == "permutation":
            m = draw(ENTRIES) * np.eye(d)[draw(st.permutations(range(d)))]
        mats.append(m)
    return np.array(mats)


@settings(max_examples=300, deadline=None)
@given(nonnegative_stacks())
# rho = 1.2 exactly, but the row sums round to 1.2 and LAPACK may return
# 1.2000000000000002, which ties the diagonal matrix after it: the first wins
@example(np.array([[[0.7, 0.5], [0.5, 0.7]], np.nextafter(1.2, 2.0) * np.eye(2)]))
@example(np.zeros((3, 2, 2)))
def test_max_radius_equals_dense_eigensolve(z):
    assert _max_radius(z) == dense_radius(z)
