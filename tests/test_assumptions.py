import json
from dataclasses import asdict

import numpy as np
import pytest

from csimplex import assumptions
from csimplex.assumptions import (
    AssumptionError,
    check_as2,
    check_as4,
    default_resolution,
    find_epsilon,
    find_kappa,
    jury_condition_ricker2d,
    run_assumption_checks,
)
from csimplex.maps import (
    KolmogorovMap,
    MapDomainError,
    atkinson_allen,
    beverton_holt,
    eval_F,
    eval_f,
    leslie_gower,
    ricker1d,
    ricker2d,
)
from spectral_oracles import dense_check_as3, dense_check_as4, power_radius, spectral_radius, two_box_report

RNG = np.random.default_rng(101)


def test_spectral_radius_trivial():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)
    assert spectral_radius(np.zeros((4, 4))) == 0.0
    assert spectral_radius([[0.5, 0.25], [0.25, 0.5]]) == pytest.approx(0.75)


def test_spectral_radius_oracle_agreement():
    # dense eigensolve vs shifted power iteration on random nonnegative matrices
    for _ in range(1000):
        d = int(RNG.integers(1, 5))
        m = RNG.random((d, d))
        assert abs(spectral_radius(m, "eig") - spectral_radius(m, "power")) < 1e-10


def test_spectral_radius_input_validation():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius([[np.inf, 0.0], [0.0, 1.0]])


def test_power_radius_periodic_matrix():
    # the +I shift removes the period-2 obstruction
    assert power_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)


def test_check_as2():
    assert check_as2(beverton_holt(), 1e-12).ok
    assert check_as2(ricker2d(0.7, 0.3, 1.2, 0.8), 1e-12).ok

    def f(x):
        return np.array([1.5 / (1.0 + x[0])])

    shifted = KolmogorovMap("shifted", 1, {}, f, None)
    res = check_as2(shifted, 1e-12)
    assert not res.ok
    assert res.max_deviation == pytest.approx(0.25)


def test_check_as3_modes():
    # the AS3 half of the scan on [0, 1 + kappa]^d
    assert check_as4(ricker2d(0.5, 0.5, 0.5, 0.5), 0.1, 16)[0].mode == "strict"
    assert check_as4(ricker2d(0.5, 0.5, 0.0, 0.0), 0.1, 16)[0].mode == "weak"
    assert check_as4(beverton_holt(), 1.0, 64)[0].mode == "strict"

    def f(x):
        return np.stack(
            [np.exp(1.0 - x[..., 0] + 0.1 * x[..., 1]), np.exp(1.0 - x[..., 1])], axis=-1
        )

    # mutualism: the scan stops at the negative feedback entry, the Jacobian oracle names it
    bad = KolmogorovMap("mutualist", 2, {}, f, None)
    with pytest.raises(MapDomainError, match="negative feedback entry"):
        check_as4(bad, 0.0, 8)
    res = dense_check_as3(bad, 1.0, 8)
    assert res.mode == "fail"
    assert res.worst_value > 0.0
    assert res.worst_entry == (0, 1)

    # a positive entry on the face x_0 = 0 only, where row 0 of Z vanishes, fails AS3 alone
    def df(x):
        jac = -0.5 * np.exp(0.5 * (1.0 - x))[..., None] * np.eye(2)
        jac[..., 0, 1] = np.where(x[..., 0] == 0.0, 0.1, 0.0)
        return jac

    face = KolmogorovMap("face", 2, {}, lambda x: np.exp(0.5 * (1.0 - x)), df)
    as3, as4 = check_as4(face, 0.0, 8)
    assert (as3.mode, as3.worst_value, as3.worst_entry, as3.worst_point) == ("fail", 0.1, (0, 1), [0.0, 0.0])
    assert as4.ok


def test_check_as4_examples():
    res = check_as4(ricker1d(0.5), 0.5, 64)[1]
    assert res.ok
    assert res.max_rho == pytest.approx(0.75, abs=1e-12)
    assert res.argmax_point[0] == pytest.approx(1.5)

    res = check_as4(ricker1d(1.5), 0.1, 64)[1]
    assert not res.ok
    assert res.max_rho > 1.0

    assert check_as4(ricker2d(0.5, 0.5, 0.5, 0.5), 0.05, 32)[1].ok


def test_check_as4_monotone_in_kappa():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    big = check_as4(kmap, 0.25, 24)[1]
    small = check_as4(kmap, 0.1, 24)[1]
    assert big.ok and small.ok
    assert small.max_rho <= big.max_rho + 1e-12


def lg(dim, offdiag):
    return leslie_gower((1.0,) * dim, np.eye(dim) + offdiag * (1.0 - np.eye(dim)))


def dense_scan(kmap, kappa, resolution):
    """The (AS3, AS4) pair of check_as4 from the two dense oracles on the same box."""
    return dense_check_as3(kmap, 1.0 + kappa, resolution), dense_check_as4(kmap, kappa, resolution)


def same(a, b) -> bool:
    """Equal as the report writes them: json tells -0.0 from 0.0, where == does not."""
    return json.dumps(a, default=asdict) == json.dumps(b, default=asdict)


SCAN_MAPS = [
    beverton_holt(), atkinson_allen(0.5), ricker1d(0.5), ricker1d(1.5),
    ricker2d(0.5, 0.5, 0.5, 0.5), ricker2d(0.5, 0.5, 0.0, 0.0), ricker2d(0.9, 0.2, 1.2, 0.3),
    leslie_gower(), lg(3, 0.3), lg(3, 0.0), lg(4, 0.3), lg(4, 0.0),
]


@pytest.mark.parametrize("kmap", SCAN_MAPS, ids=lambda k: f"{k.name}{k.dim}-{k.params}")
def test_check_as4_equals_dense_scan(kmap):
    # the resolutions of the default scans and of the coarse benchmark scan
    for resolution in sorted({default_resolution(kmap.dim), 12}):
        for kappa in (0.0, 0.25, 0.5, 1.0):
            assert same(check_as4(kmap, kappa, resolution), dense_scan(kmap, kappa, resolution))


def test_check_as4_takes_a_read_only_jacobian():
    # the scan writes Z over the Jacobians it owns; a map may return a read-only view
    c = np.array([[1.0, 0.5], [0.25, 1.0]])
    kmap = KolmogorovMap("linear", 2, {}, lambda x: 4.0 - x @ c.T,
                         lambda x: np.broadcast_to(-c, x.shape + (2,)))
    for kappa in (0.0, 0.5):
        assert same(check_as4(kmap, kappa, 8), dense_scan(kmap, kappa, 8))


def count_solved(monkeypatch):
    """Matrices passed to the eigensolver, one entry per call."""
    solved = []
    eigvals = np.linalg.eigvals

    def counted(z):
        solved.append(z.shape[0])
        return eigvals(z)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return solved


def test_check_as4_face_tie_first_point_wins(monkeypatch):
    # decoupled Leslie-Gower: rho = max_i x_i / (1 + x_i) ties wherever a coordinate is 2
    kmap = lg(3, 0.0)
    solved = count_solved(monkeypatch)
    res = check_as4(kmap, 1.0, 24)[1]
    assert solved == [1657]
    assert res.argmax_point == [0.0, 0.0, 2.0]
    assert res.max_rho == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_check_as4_solves_only_candidates(monkeypatch):
    solved = count_solved(monkeypatch)
    res = check_as4(ricker2d(0.5, 0.5, 0.5, 0.5), 0.25, 64)[1]
    assert solved == [1]  # of 4095 scan points
    assert res.argmax_point == [1.25, 1.25]
    # the lower bound takes the row and the column sums: either alone keeps 0.1 I
    for z in ([[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.0], [0.5, 0.0]]):
        solved.clear()
        assert assumptions._max_radius(np.stack([0.1 * np.eye(2), z], axis=-1), -np.inf) == (1, 0.5)
        assert solved == [1]


@pytest.mark.parametrize("kmap", SCAN_MAPS, ids=lambda k: f"{k.name}{k.dim}-{k.params}")
def test_check_as4_in_blocks_equals_dense_scan(monkeypatch, kmap):
    # tiny blocks: the running AS3 maximum, the candidates and the probe's floor cross blocks
    for block in (2, 7, 100):
        monkeypatch.setattr(assumptions, "SCAN_BLOCK", block)
        for resolution, kappa in ((5, 0.0), (8, 1.0)):
            assert same(check_as4(kmap, kappa, resolution), dense_scan(kmap, kappa, resolution))


def test_check_as4_diagonal_floor_is_a_lower_bound(monkeypatch):
    # the diagonal's feedback [[0, 4t], [0.01t, 0]] has a loose upper bound 4t and radius 0.2t;
    # off it Z = [[0.5 x_0, 0], [0, 0]] peaks at 1.0 on (2, 0), below the diagonal's upper bounds
    def df(x):
        on = (x[..., 0] == x[..., 1])[..., None, None]
        return -np.where(on, [[0.0, 4.0], [0.01, 0.0]], [[0.5, 0.0], [0.0, 0.0]])

    kmap = KolmogorovMap("off-diagonal", 2, {}, np.ones_like, df)
    monkeypatch.setattr(assumptions, "SCAN_BLOCK", 7)
    assert check_as4(kmap, 1.0, 8)[1].argmax_point == [2.0, 0.0]
    assert same(check_as4(kmap, 1.0, 8), dense_scan(kmap, 1.0, 8))


def test_check_as4_face_tie_split_across_blocks(monkeypatch):
    # the first tie [0, 0, 2] is row 23, the second [0, 2/23, 2] row 47, in the next block
    monkeypatch.setattr(assumptions, "SCAN_BLOCK", 24)
    solved = count_solved(monkeypatch)
    res = check_as4(lg(3, 0.0), 1.0, 24)[1]
    # each block solves its own candidates, the same 1657 as one block, held to the diagonal's 2/3
    assert sum(solved) == 1657 and max(solved) <= 24
    assert res.argmax_point == [0.0, 0.0, 2.0]
    assert same(res, dense_check_as4(lg(3, 0.0), 1.0, 24))


def test_check_as4_in_blocks_solves_only_candidates(monkeypatch):
    monkeypatch.setattr(assumptions, "SCAN_BLOCK", 100)
    solved = count_solved(monkeypatch)
    assert check_as4(ricker2d(0.5, 0.5, 0.5, 0.5), 0.25, 64)[1].argmax_point == [1.25, 1.25]
    assert solved == [1]


def test_jury_condition_examples():
    assert jury_condition_ricker2d(0.5, 0.5, 0.5, 0.5)
    assert not jury_condition_ricker2d(1.5, 1.5, 0.0, 0.0)
    assert not jury_condition_ricker2d(0.5, 0.5, 2.0, 2.0)


def test_jury_cross_validates_grid_check():
    # when the corner condition holds, the sampled spectral check passes too
    for _ in range(100):
        r, s = RNG.uniform(0.05, 0.95, 2)
        a, b = RNG.uniform(0.0, 1.5, 2)
        if jury_condition_ricker2d(r, s, a, b):
            res = check_as4(ricker2d(r, s, a, b), 0.0, 16)[1]
            assert res.max_rho < 1.0


def test_find_kappa_examples():
    assert find_kappa(beverton_holt(), 64, kappa_max=1.0)[0] == 1.0
    assert find_kappa(atkinson_allen(0.5), 64, kappa_max=1.0)[0] == 1.0
    kappa, _ = find_kappa(ricker1d(0.5), 64, kappa_max=2.0)
    assert 0.0 < kappa < 1.0
    with pytest.raises(AssumptionError):
        find_kappa(ricker1d(1.5), 64, kappa_max=1.0)


def lg(dim: int, offdiag: float):
    """Leslie-Gower with unit rates, unit diagonal and one off-diagonal entry."""
    return leslie_gower(np.ones(dim), np.where(np.eye(dim) > 0, 1.0, offdiag))


WORKLOAD_MAPS = [ricker2d(0.5, 0.5, 0.5, 0.5), lg(3, 0.3), lg(3, 0.0), lg(4, 0.3)]  # benchmark, CI
# every built-in family, with the two maps whose epsilon the one-point bound halves
BUILTINS = [beverton_holt(), atkinson_allen(0.5), ricker1d(0.5), ricker2d(0.7, 0.3, 1.2, 0.8),
            leslie_gower(), lg(2, 0.9), lg(3, 0.9)] + WORKLOAD_MAPS


def test_find_epsilon_examples():
    assert find_epsilon(beverton_holt(), 0.01) == 0.5
    assert find_epsilon(ricker1d(0.5), 0.01) == 0.5
    for kmap in WORKLOAD_MAPS:
        assert find_epsilon(kmap, 0.01) == 0.5
    assert find_epsilon(ricker2d(0.7, 0.3, 1.2, 0.8), 0.01) == 0.25
    assert find_epsilon(lg(3, 0.9), 0.01) == 0.25

    def f(x):
        return np.ones_like(x)

    flat = KolmogorovMap("flat", 1, {}, f, None)
    with pytest.raises(AssumptionError):
        find_epsilon(flat, 0.01)


def loop_find_epsilon(kmap, tol):
    """One eval_f call per halving, stopping at the first that passes (reference)."""
    eps = 1.0
    for _ in range(assumptions.EPSILON_HALVINGS):
        eps *= 0.5
        if eval_f(kmap, np.full(kmap.dim, eps)).min() >= 1.0 + tol:
            return eps
    return None


@pytest.mark.parametrize("kmap", BUILTINS, ids=lambda k: f"{k.name}-{k.dim}")
def test_find_epsilon_batch_equals_loop_reference(kmap):
    # every built-in map, tolerances that stop at several halvings, and one no halving meets
    for tol in (0.01, 0.3, 0.9, 0.999, 1e9):
        want = loop_find_epsilon(kmap, tol)
        if want is None:
            with pytest.raises(AssumptionError, match="^per-capita growth never exceeds 1 near "
                               "the origin; the origin is not a repeller$"):
                find_epsilon(kmap, tol)
        else:
            assert find_epsilon(kmap, tol) == want


@pytest.mark.parametrize("kmap", BUILTINS, ids=lambda k: f"{k.name}-{k.dim}")
def test_find_epsilon_bounds_the_whole_simplex(kmap):
    # under AS3 the one point epsilon * 1 bounds f from below on all of epsilon * Delta
    tol = 0.01
    assert check_as4(kmap, 0.0, 16)[0].mode in ("strict", "weak")
    eps = find_epsilon(kmap, tol)
    rng = np.random.default_rng(17)
    u = rng.dirichlet(np.ones(kmap.dim), 20000)
    u[:kmap.dim] = np.eye(kmap.dim)
    x = eps * np.vstack([u, rng.random((20000, 1)) * u])  # the face and the solid simplex
    assert eval_f(kmap, x).min() >= 1.0 + tol


def test_epsilon_repeller_property():
    for kmap in [beverton_holt(), ricker2d(0.5, 0.5, 0.5, 0.5), leslie_gower()]:
        tol = 0.01
        eps = find_epsilon(kmap, tol)
        for _ in range(200):
            u = RNG.dirichlet(np.ones(kmap.dim))
            x = RNG.random() * eps * u
            if x.sum() == 0.0:
                continue
            assert eval_F(kmap, x).sum() >= (1.0 + tol) * x.sum() - 1e-12


def test_default_resolutions():
    assert default_resolution(1) == 64
    assert default_resolution(2) == 64
    assert default_resolution(3) == 24
    assert default_resolution(4) == 12


def test_run_assumption_checks_passing():
    report = run_assumption_checks(ricker2d(0.5, 0.5, 0.5, 0.5), resolution=24)
    assert report.passed
    assert report.as3_mode == "strict"
    assert report.kappa == 0.25
    assert report.epsilon == 0.5
    d = report.to_dict()
    assert d["passed"] is True
    import json

    json.dumps(d)  # report must be serializable as-is


def test_run_assumption_checks_weak_mode():
    report = run_assumption_checks(ricker2d(0.5, 0.5, 0.0, 0.0), resolution=24)
    assert report.passed
    assert report.as3_mode == "weak"


def test_run_assumption_checks_rejects_steep_ricker():
    report = run_assumption_checks(ricker1d(1.5), resolution=64)
    assert not report.passed
    assert not report.as4_ok
    assert report.as4_max_rho > 1.0
    assert report.as4_argmax[0] <= 1.0
    assert report.kappa is None


# the benchmark's maps at their scan resolutions; every built-in map, and one whose boxes all fail
REPORT_CASES = [(WORKLOAD_MAPS[0], 64), (lg(3, 0.3), 12), (lg(3, 0.0), 24)] + [
    (kmap, default_resolution(kmap.dim)) for kmap in BUILTINS + [ricker1d(1.5)]]


@pytest.mark.parametrize("kmap, resolution", REPORT_CASES,
                         ids=["planar-verify", "lg3-fine", "lg3-decoupled-oracle"]
                         + [f"{k.name}{k.dim}-{i}" for i, (k, _) in enumerate(REPORT_CASES[3:])])
def test_one_scan_report_equals_two_scans(kmap, resolution):
    # the kappa boxes first, the base box only when none passes: no verdict moves on these
    # maps; the decoupled as3_worst_value is -0.0
    got = run_assumption_checks(kmap, resolution=resolution).to_dict()
    assert json.dumps(got) == json.dumps(two_box_report(kmap, resolution))


def count_scans(monkeypatch) -> list:
    """The kappa of each check_as4 call, in call order."""
    kappas = []
    scan = assumptions.check_as4

    def counted(kmap, kappa, *args):
        kappas.append(kappa)
        return scan(kmap, kappa, *args)

    monkeypatch.setattr(assumptions, "check_as4", counted)
    return kappas


@pytest.mark.parametrize("kmap, resolution, scanned", [
    (WORKLOAD_MAPS[0], 64, [1.0, 0.5, 0.25]), (lg(3, 0.3), 12, [1.0]), (lg(3, 0.0), 24, [1.0]),
    (lg(4, 0.3), 12, [1.0])], ids=["planar-verify", "lg3-fine", "lg3-decoupled-oracle", "lg4"])
def test_check_scans_no_box_below_the_accepted_one(monkeypatch, kmap, resolution, scanned):
    # one scan when kappa_max passes, and never the base box
    kappas = count_scans(monkeypatch)
    assert run_assumption_checks(kmap, resolution=resolution).kappa == scanned[-1]
    assert kappas == scanned


def test_a_failing_map_scans_every_kappa_box_then_the_base_box(monkeypatch):
    kappas = count_scans(monkeypatch)
    report = run_assumption_checks(ricker1d(1.5), resolution=64)
    assert kappas == [2.0**-j for j in range(assumptions.KAPPA_LEVELS + 1)] + [0.0]
    assert (report.kappa, report.as4_ok, report.passed) == (None, False, False)


@pytest.mark.parametrize("kmap, kappa", [(ricker1d(1.5), None), (beverton_holt(), 0.0)])
def test_kappa_max_zero_scans_the_base_box_once(monkeypatch, kmap, kappa):
    # every level kappa_max / 2^j is the base box [0, 1]^d; a failing map reports that box
    # as a search from kappa_max = 1 does
    reference = run_assumption_checks(kmap, resolution=64).to_dict()
    kappas = count_scans(monkeypatch)
    report = run_assumption_checks(kmap, resolution=64, kappa_max=0.0)
    assert kappas == [0.0] and report.kappa == kappa
    if kappa is None:
        assert report.to_dict() == reference


def test_a_passing_kappa_box_outranks_a_failing_base_box():
    # the one verdict the kappa-first order changes: rho(Z) = x h'(x) peaks at 1.55 on
    # x = 0.5, a point of the base grid {0, 0.5, 1} that the kappa = 1 grid {0, 1, 2} misses
    def h(x):
        return 0.1 * (x - 1.0) + 0.15 * (np.arctan((x - 0.5) / 0.05) - np.arctan(10.0))

    def dh(x):
        return 0.1 + 3.0 / (1.0 + ((x - 0.5) / 0.05) ** 2)

    bump = KolmogorovMap("bump", 1, {}, lambda x: np.exp(-h(x)), lambda x: (-dh(x) * np.exp(-h(x)))[..., None])
    assert not check_as4(bump, 0.0, 3)[1].ok
    report = run_assumption_checks(bump, resolution=3)
    assert (report.kappa, report.as4_argmax, report.passed) == (1.0, [2.0], True)
    assert two_box_report(bump, 3)["kappa"] is None
