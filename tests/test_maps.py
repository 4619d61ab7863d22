import math

import numpy as np
import pytest

from csimplex.assumptions import _feedback
from csimplex.maps import (
    MapDomainError,
    KolmogorovMap,
    atkinson_allen,
    beverton_holt,
    eval_F,
    eval_df,
    eval_f,
    fd_jacobian,
    leslie_gower,
    make_map,
    ricker1d,
    ricker2d,
)

RNG = np.random.default_rng(7)


def feedback(kmap, x):
    """The scan's feedback matrices at the points x, as (..., d, d) blocks."""
    x = np.asarray(x, dtype=float)
    z = _feedback(kmap, x, eval_f(kmap, x), eval_df(kmap, x))
    return np.moveaxis(z, (0, 1), (-2, -1))


ALL_BUILTINS = [
    beverton_holt(),
    atkinson_allen(0.5),
    ricker1d(0.5),
    ricker2d(0.5, 0.5, 0.5, 0.5),
    ricker2d(0.5, 0.5, 0.0, 0.0),
    leslie_gower(),
    leslie_gower(r=(1.0, 1.0, 1.0), A=((1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0))),
]


def test_eval_f_examples():
    assert eval_f(beverton_holt(), [1.0])[0] == pytest.approx(1.0)
    assert eval_f(ricker1d(0.5), [1.0])[0] == pytest.approx(1.0)
    np.testing.assert_allclose(
        eval_f(ricker2d(0.5, 0.5, 0.5, 0.5), [0.0, 0.0]),
        [math.exp(0.5), math.exp(0.5)],
    )


def test_eval_f_rejects_bad_input():
    with pytest.raises(MapDomainError):
        eval_f(beverton_holt(), [np.nan])
    with pytest.raises(MapDomainError):
        eval_f(beverton_holt(), [-0.5])


def test_eval_F_examples():
    assert eval_F(beverton_holt(), [0.0])[0] == 0.0
    assert eval_F(beverton_holt(), [1.0])[0] == pytest.approx(1.0)
    assert eval_F(ricker1d(0.5), [2.0])[0] == pytest.approx(2.0 * math.exp(-0.5))


def test_eval_F_rejects_an_underflowed_rate():
    # exp(0.5 (1 - 1e4)) is 0.0 in floating point: a zero rate would move x onto a face
    with pytest.raises(MapDomainError, match=r"ricker1d: f is not strictly positive at \[10000\.\]"):
        eval_F(ricker1d(0.5), [1e4])


@pytest.mark.parametrize("kmap", ALL_BUILTINS, ids=lambda k: k.name)
def test_face_preservation(kmap):
    for _ in range(50):
        x = RNG.random(kmap.dim) * 1.5
        zeros = RNG.random(kmap.dim) < 0.4
        x[zeros] = 0.0
        y = eval_F(kmap, x)
        assert np.all(y[x == 0.0] == 0.0)
        assert np.all(y[x > 0.0] > 0.0)


@pytest.mark.parametrize("kmap", ALL_BUILTINS, ids=lambda k: k.name)
def test_analytic_jacobian_matches_finite_differences(kmap):
    # derivative oracle on random interior points of the working box
    worst = 0.0
    for _ in range(1000):
        x = 0.05 + RNG.random(kmap.dim) * 1.3
        analytic = eval_df(kmap, x)
        fd = fd_jacobian(kmap.f, x, kmap.dim)
        err = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic)))
        worst = max(worst, err)
    assert worst < 1e-6


@pytest.mark.parametrize("kmap", ALL_BUILTINS, ids=lambda k: k.name)
def test_factorization_residual(kmap):
    for _ in range(200):
        x = RNG.random(kmap.dim) * 1.4
        f = eval_f(kmap, x)
        dF = np.diag(f) + x[:, None] * eval_df(kmap, x)
        z = feedback(kmap, x)
        lhs = np.diag(f) @ (np.eye(kmap.dim) - z)
        assert np.max(np.abs(dF - lhs)) < 1e-10 * (1.0 + np.max(np.abs(dF)))


@pytest.mark.parametrize("kmap", ALL_BUILTINS, ids=lambda k: k.name)
def test_builtin_axis_fixed_points(kmap):
    for i in range(kmap.dim):
        e = np.zeros(kmap.dim)
        e[i] = 1.0
        assert abs(eval_f(kmap, e)[i] - 1.0) < 1e-12


def test_feedback_examples():
    z = feedback(ricker1d(0.5), [1.0])
    assert z[0, 0] == pytest.approx(0.5)
    np.testing.assert_allclose(feedback(ricker1d(0.5), [0.0]), [[0.0]])
    np.testing.assert_allclose(
        feedback(ricker2d(0.5, 0.5, 0.5, 0.5), [1.0, 1.0]),
        [[0.5, 0.25], [0.25, 0.5]],
    )
    z_face = feedback(ricker2d(0.5, 0.5, 0.5, 0.5), [0.0, 1.0])
    np.testing.assert_allclose(z_face[0], [0.0, 0.0])


def test_feedback_flags_mutualism():
    # positive feedback produces a negative entry beyond tolerance
    def f(x):
        return np.array([np.exp(1.0 - x[0] + 0.5 * x[1]), np.exp(1.0 - x[1])])

    bad = KolmogorovMap("mutualist", 2, {}, f, None)
    with pytest.raises(MapDomainError):
        feedback(bad, np.array([1.0, 1.0]))


@pytest.mark.parametrize("kmap", ALL_BUILTINS, ids=lambda k: k.name)
def test_batched_contract(kmap):
    # (N, d) and (M, N, d) batches give the single-point values row by row, bit for bit
    pts = RNG.random((3, 4, kmap.dim)) * 1.4
    pts[0, 1] = 0.0  # the origin
    pts[2, 3, 0] = 0.0  # a coordinate face
    rows = pts.reshape(-1, kmap.dim)
    fallback = KolmogorovMap(kmap.name + "_fd", kmap.dim, kmap.params, kmap.f, None)
    for m in (kmap, fallback):
        for ev in (eval_f, eval_F, eval_df, feedback):
            single = np.array([ev(m, x) for x in rows])
            assert np.array_equal(ev(m, rows), single)
            assert np.array_equal(ev(m, pts), single.reshape(pts.shape[:2] + single.shape[1:]))
    # a bad row is named in the error
    for bad in (np.nan, -0.5):
        broken = rows.copy()
        broken[5, -1] = bad
        with pytest.raises(MapDomainError, match=r"\(row 5\)"):
            eval_F(kmap, broken)
        with pytest.raises(MapDomainError, match=r"\(row \(1, 1\)\)"):
            feedback(kmap, broken.reshape(pts.shape))
    # an f that drops the coordinate axis breaks the contract
    scalar = KolmogorovMap("scalar", kmap.dim, {}, lambda x: kmap.f(x)[..., 0])
    with pytest.raises(ValueError, match="shape"):
        eval_f(scalar, rows)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_leslie_gower_sums_in_order(d):
    # f and Df equal per-point Python sums over j, left to right, bit for bit, in every batch shape
    rng = np.random.default_rng(d)
    r = rng.uniform(0.1, 2.0, d).tolist()
    A = np.where(rng.random((d, d)) < 0.3, 0.0, rng.choice([0.3, 1.0], (d, d)) + rng.random((d, d)))
    kmap, A = leslie_gower(r, A), A.tolist()
    pts = rng.random((4, 50, d)) * 2.0
    pts[0, 0], pts[1, 1, 0] = 0.0, 0.0  # the origin and a coordinate face

    def ref(x):
        t = [0.0] * d
        for i in range(d):
            for j in range(d):  # not sum(), which compensates from Python 3.12 on
                t[i] += A[i][j] * x[j]
            t[i] = 1 + t[i]
        return ([(1 + r[i]) / t[i] for i in range(d)],
                [[-((1 + r[i]) / (t[i] * t[i])) * A[i][j] for j in range(d)] for i in range(d)])

    rows = pts.reshape(-1, d)
    refs = [ref(x) for x in rows.tolist()]
    want_f, want_df = np.array([v[0] for v in refs]), np.array([v[1] for v in refs])
    for x in (pts, rows, np.asfortranarray(rows)):
        assert bits(eval_f(kmap, x)) == bits(want_f) and bits(eval_df(kmap, x)) == bits(want_df)
    for k in range(0, len(rows), 7):  # a point alone evaluates as in a batch
        assert bits(eval_f(kmap, rows[k])) == bits(want_f[k]) and bits(eval_df(kmap, rows[k])) == bits(want_df[k])


def _trap_map(site):
    """A planar map that breaks the check at `site` exactly at the points with x_0 = 0.7."""

    def f(x):
        y = np.exp(1.0 - x)
        if site == "f":
            y[x[..., 0] == 0.7] = 0.0
        return y

    def df(x):
        jac = -np.exp(1.0 - x)[..., None] * np.eye(2)
        trap = x[..., 0] == 0.7
        if site == "df":
            jac[trap] = np.nan
        elif site == "Z":
            jac[trap, 0, 1] = 1.0  # mutualism: Z_01 = -x_0 / f_0 < 0
        return jac

    return KolmogorovMap("trap", 2, {}, f, df)


@pytest.mark.parametrize("shape", [(300,), (3, 100)])
@pytest.mark.parametrize("site", ["input", "f", "df", "Z"])
def test_domain_errors_name_the_first_bad_row(shape, site):
    # the messages of the per-row scan, whichever row of the batch is first bad
    kmap = _trap_map(site)
    for pos in [(0,) * len(shape), tuple(n // 2 for n in shape), tuple(n - 1 for n in shape)]:
        x = RNG.random(shape + (2,))
        for row in (pos, tuple(n - 1 for n in shape)):  # a later bad row is not named
            x[row] = (np.nan, 0.5) if site == "input" else (0.7, 0.5)
        point = f"{x[pos]}" + (f" (row {pos[0]})" if len(pos) == 1 else f" (row {pos})")
        expected = {
            "input": f"input {point} is not finite and nonnegative",
            "f": f"trap: f is not strictly positive at {point}",
            "df": f"trap: bad Jacobian at {point}",
            "Z": f"trap: negative feedback entry {-0.7 / math.exp(0.3):.3e} at (0,1), x={point}",
        }[site]
        with pytest.raises(MapDomainError) as err:
            feedback(kmap, x)
        assert str(err.value) == expected


@pytest.mark.parametrize("kmap", ALL_BUILTINS, ids=lambda k: k.name)
def test_axis_maps_pull_toward_unit(kmap):
    # inside (0, 1) each axis map s -> s f_i(s e_i) moves points strictly up but below the fixed point
    for i in range(kmap.dim):
        for s in np.linspace(0.05, 0.95, 19):
            val = s * eval_f(kmap, s * np.eye(kmap.dim)[i])[i]
            assert s < val < 1.0


def test_fd_fallback_matches_analytic():
    analytic = ricker2d(0.5, 0.5, 0.5, 0.5)
    fallback = KolmogorovMap("ricker2d_fd", 2, analytic.params, analytic.f, None)
    for _ in range(100):
        x = RNG.random(2) * 1.4
        da = eval_df(analytic, x)
        dn = eval_df(fallback, x)
        assert np.max(np.abs(da - dn)) < 1e-6 * (1.0 + np.max(np.abs(da)))
    # one-sided steps on the faces keep the domain nonnegative
    on_face = eval_df(fallback, np.array([0.0, 0.7]))
    assert np.all(np.isfinite(on_face))


def test_make_map_registry():
    kmap = make_map("ricker2d", {"r": 0.5, "s": 0.5, "a": 0.5, "b": 0.5})
    assert kmap.dim == 2 and kmap.params["a"] == 0.5
    with pytest.raises(KeyError):
        make_map("logistic")
    with pytest.raises(TypeError):
        make_map("beverton_holt", {"q": 1.0})
    lg = make_map("leslie_gower", {"r": [1.0, 2.0], "A": [[1.0, 0.3], [0.4, 2.0]]})
    assert lg.dim == 2
    assert abs(eval_f(lg, [0.0, 1.0])[1] - 1.0) < 1e-12


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        ricker1d(-1.0)
    with pytest.raises(ValueError):
        ricker2d(0.5, 0.5, -0.1, 0.0)
    with pytest.raises(ValueError):
        atkinson_allen(1.5)
    with pytest.raises(ValueError):
        leslie_gower(r=(1.0,), A=((1.0, 0.0),))
