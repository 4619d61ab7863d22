import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csimplex.geometry import _pair_ratios  # noqa: E402


def row_ratios(pts, i, j):
    """The row formula the column kernel of _pair_ratios reproduces: norm and mean over axis 1."""
    diffs = pts[i] - pts[j]
    proj = diffs - diffs.mean(axis=1, keepdims=True)
    num = np.linalg.norm(diffs, axis=1)
    den = np.linalg.norm(proj, axis=1)
    return np.where(den > 1e-300, num / np.maximum(den, 1e-300), np.inf)


@st.composite
def point_sets(draw):
    """(n, d) rows at magnitudes 1e-200 ... 1e150, with duplicate, e-parallel and inf/NaN rows."""
    d = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(["plain", "duplicate", "e_parallel", "nonfinite"]))
        if kind in ("duplicate", "e_parallel") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))].copy()
            if kind == "e_parallel":  # differs from an earlier row along (1, ..., 1) only
                row += draw(st.floats(-2.0, 2.0)) * 10.0 ** draw(st.integers(-200, 150))
            rows.append(row)
            continue
        scale = 10.0 ** draw(st.integers(-200, 150))
        row = np.array([draw(st.floats(-1.0, 1.0)) * scale for _ in range(d)])
        if kind == "nonfinite":
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        rows.append(row)
    return np.array(rows)


@settings(max_examples=400, deadline=None)
@given(point_sets())
@example(np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 1.25], [0.0, 0.5, 1.0]]))  # e-parallel, duplicate
@example(np.array([[1e-200, -3e-200, 2e-200, 0.0], [1e150, -1e150, 3e149, 0.0], [np.nan] * 4]))
@example(np.array([[np.inf, 1.0], [np.inf, 2.0], [-np.inf, 0.0]]))
def test_pair_ratios_equal_row_formula_bit_for_bit(pts):
    i, j = np.triu_indices(pts.shape[0], 1)
    with np.errstate(all="ignore"):
        got, expected = _pair_ratios(pts, i, j), row_ratios(pts, i, j)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=d, max_size=d),
    min_size=2, max_size=2)))
def test_unordered_pair_ratio_is_at_most_sqrt_d(pair):
    # the lemma behind order_scan's ratio bound: a pair strictly ordered in neither direction
    # has |v| <= sqrt(d) |Pv|, so its computed ratio exceeds sqrt(d) by rounding only
    pts = np.array(pair)
    v = pts[1] - pts[0]
    assume(not (np.all(v > 0) or np.all(v < 0)) and np.linalg.norm(v) > 1e-100)
    ratio = _pair_ratios(pts, np.array([0]), np.array([1]))[0]
    assert ratio <= math.sqrt(pts.shape[1]) * (1.0 + 1e-12)
