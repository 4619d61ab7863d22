import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csimplex.assumptions import _max_radius, check_as4  # noqa: E402
from csimplex.maps import atkinson_allen, beverton_holt, leslie_gower, ricker1d, ricker2d  # noqa: E402
from spectral_oracles import dense_check_as3, dense_check_as4, dense_radius  # noqa: E402

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
@given(nonnegative_stacks(), st.just(-np.inf) | st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0))
# rho = 1.2 exactly, but the row sums round to 1.2 and LAPACK may return
# 1.2000000000000002, which ties the diagonal matrix after it: the first wins
@example(np.array([[[0.7, 0.5], [0.5, 0.7]], np.nextafter(1.2, 2.0) * np.eye(2)]), -np.inf)
@example(np.array([[[0.7, 0.5], [0.5, 0.7]], np.nextafter(1.2, 2.0) * np.eye(2)]), 1.2)
@example(np.zeros((3, 2, 2)), 0.0)
@example(np.zeros((3, 2, 2)), 1e-300)
def test_max_radius_equals_dense_eigensolve(z, floor):
    # a floor at or below the maximum changes nothing; one above every matrix's entry sum leaves no candidate
    want = dense_radius(z)
    got = _max_radius(z.transpose(1, 2, 0), floor)
    if floor <= want[1]:
        assert got == want
    elif floor > z.sum(axis=(1, 2)).max() * (1.0 + 1e-6):
        assert got == (-1, -np.inf)
    else:
        assert got[1] <= want[1]


# few distinct coefficients, so that Jacobian entries, row sums and radii tie often
COEFFS = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 2.0)
RATES = st.sampled_from([0.5, 1.0]) | st.floats(0.05, 2.0)


@st.composite
def scan_maps(draw):
    """Leslie-Gower with d = 2 to 4, A >= 0 (zero and tied entries) and r > 0; planar Ricker; the 1-D maps."""
    kind = draw(st.sampled_from(["leslie_gower", "ricker2d", "1d"]))
    if kind == "leslie_gower":
        d = draw(st.integers(2, 4))
        r = [draw(RATES) for _ in range(d)]
        return leslie_gower(r, [[draw(COEFFS) for _ in range(d)] for _ in range(d)])
    if kind == "ricker2d":
        return ricker2d(draw(RATES), draw(RATES), draw(COEFFS), draw(COEFFS))
    return draw(st.sampled_from([beverton_holt(), atkinson_allen(0.5), ricker1d(0.5), ricker1d(1.5)]))


@settings(max_examples=80, deadline=None)
@given(scan_maps(), st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from([2, 3, 5, 8]))
@example(leslie_gower(np.ones(3), np.eye(3)), 1.0, 8)  # exact ties and a -0.0 worst entry
@example(ricker2d(0.5, 0.5, 0.0, 0.0), 0.25, 8)
def test_one_scan_equals_the_oracles(kmap, kappa, resolution):
    # compared as json, which tells -0.0 from 0.0
    got = check_as4(kmap, kappa, resolution)
    want = {**dense_check_as3(kmap, 1.0 + kappa, resolution), **dense_check_as4(kmap, kappa, resolution)}
    assert json.dumps(got) == json.dumps(want)
