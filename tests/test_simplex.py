from dataclasses import replace

import numpy as np
import pytest

from csimplex.geometry import (
    RadialManifold,
    box_boundary_manifold,
    constant_manifold,
    hausdorff_bound,
    make_grid,
    radius_at,
    sup_gap,
    vertex_points,
)
from csimplex.maps import (
    atkinson_allen,
    beverton_holt,
    eval_F,
    leslie_gower,
    ricker1d,
    ricker2d,
)
from csimplex import simplex
from csimplex.simplex import (
    EscapeError,
    attract_trajectory,
    attraction_battery,
    compute_cs,
    gamma_membership,
    harnack_battery,
    retrotone_battery,
    surface_distance,
    verify_cs,
)
from surface_oracles import iterate_manifold, lockstep_sigma

COUPLED = ricker2d(0.5, 0.5, 0.5, 0.5)
KAPPA, EPSILON = 0.25, 0.5


@pytest.fixture(scope="module")
def coupled_run():
    grid = make_grid(2, 32)
    return compute_cs(COUPLED, grid, KAPPA, EPSILON, tolerance=1e-6)


@pytest.mark.parametrize(
    "kmap,kappa",
    [(beverton_holt(), 1.0), (atkinson_allen(0.5), 1.0), (ricker1d(0.5), 0.5)],
    ids=lambda v: getattr(v, "name", v),
)
def test_compute_cs_one_species_fixed_point(kmap, kappa):
    grid = make_grid(1, 1)
    res = compute_cs(kmap, grid, kappa, 0.5, tolerance=1e-9)
    assert res.termination == "converged"
    assert abs(res.sigma.radii[0] - 1.0) < 1e-8
    assert res.monotone_ok and res.gap_monotone_ok


def test_compute_cs_decoupled_reproduces_box_boundary():
    kmap = ricker2d(0.5, 0.5, 0.0, 0.0)
    grid = make_grid(2, 32)
    res = compute_cs(kmap, grid, 0.5, 0.5, tolerance=1e-6)
    assert res.termination == "converged"
    oracle = box_boundary_manifold(grid, 1.0)
    assert hausdorff_bound(res.sigma, oracle) < 3.0 / 32


def test_compute_cs_coupled_corners_and_fixed_point(coupled_run):
    res = coupled_run
    grid = res.sigma.grid
    assert res.termination == "converged"
    for i in range(2):
        assert abs(res.sigma.radii[grid.corner_index(i)] - 1.0) < 1e-4
    status, margin = gamma_membership(res.sigma, np.array([2 / 3, 2 / 3]), 1e-3)
    assert status == "on"
    assert abs(margin) < 1e-3


def test_compute_cs_monotone_sandwich(coupled_run):
    res = coupled_run
    assert res.monotone_ok
    assert res.gap_monotone_ok
    assert res.final_gap < 1e-6
    # sigma is the pair's midpoint, so the order holds without slack
    assert np.all(res.lower.radii <= res.sigma.radii)
    assert np.all(res.sigma.radii <= res.upper.radii)


def test_monotone_records_fail_beyond_a_few_ulps(coupled_run):
    res = coupled_run
    ulps = 8.0 * np.finfo(float).eps * res.upper.radii.max()
    assert max(res.upper_max_steps) < 0.0 < min(res.lower_min_steps)
    for steps, ok in ((0.5 * ulps, True), (2.0 * ulps, False)):
        assert replace(res, upper_max_steps=[steps]).monotone_ok is ok
        assert replace(res, lower_min_steps=[-steps]).monotone_ok is ok
        assert replace(res, sandwich_mins=[-steps]).monotone_ok is ok
        assert replace(res, gap_history=[1.0, 1.0 + steps]).gap_monotone_ok is ok


def test_compute_cs_iterates_bracket_the_limit():
    grid = make_grid(2, 16)
    collected = []
    res = compute_cs(
        COUPLED,
        grid,
        KAPPA,
        EPSILON,
        tolerance=1e-8,
        on_iteration=lambda n, lo, up: collected.append((lo.radii.copy(), up.radii.copy())),
    )
    # each iterate is ordered with the limit to a few ulps of the largest upper radius
    ulps = 8.0 * np.finfo(float).eps * res.upper.radii.max()
    for lo, up in collected:
        assert np.all(lo <= res.sigma.radii + ulps)
        assert np.all(res.sigma.radii <= up + ulps)


def test_compute_cs_max_iter_termination():
    grid = make_grid(2, 16)
    res = compute_cs(COUPLED, grid, KAPPA, EPSILON, tolerance=1e-12, max_iter=1)
    assert res.termination == "max_iter"
    assert res.iterations == 1
    assert res.sigma is not None
    assert res.lower is not None and res.upper is not None


def test_gamma_membership_scaling(coupled_run):
    res = coupled_run
    sigma = res.sigma
    tol = res.certified_error
    rng = np.random.default_rng(5)
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        assert gamma_membership(sigma, e, max(tol, 1e-3))[0] == "on"
    for _ in range(50):
        u = rng.dirichlet(np.ones(2))
        point = radius_at(sigma, u) * u
        assert gamma_membership(sigma, 0.5 * point, tol)[0] == "below"
        assert gamma_membership(sigma, 1.2 * point, tol)[0] == "above"
    with pytest.raises(ValueError):
        gamma_membership(sigma, np.zeros(2), tol)


def test_attract_trajectory_beverton_holt():
    kmap = beverton_holt()
    res = compute_cs(kmap, make_grid(1, 1), 1.0, 0.5, tolerance=1e-9)
    traj, dists = attract_trajectory(kmap, res.sigma, np.array([3.0]), 50)
    x = traj[:, 0]
    moving = np.abs(x - 1.0) > 1e-9
    assert np.all(np.diff(x)[moving[:-1]] < 0.0)
    assert dists[-1] < 1e-8
    # orbits started from below increase monotonically toward 1
    traj_up, _ = attract_trajectory(kmap, res.sigma, np.array([0.1]), 50)
    xu = traj_up[:, 0]
    assert np.all(np.diff(xu)[np.abs(xu - 1.0)[:-1] > 1e-9] > 0.0)


def test_attract_trajectory_ricker_overshoot():
    kmap = ricker1d(0.5)
    res = compute_cs(kmap, make_grid(1, 1), 0.5, 0.5, tolerance=1e-9)
    # beyond the preimage of 1 the first step lands below 1, then climbs back
    traj, _ = attract_trajectory(kmap, res.sigma, np.array([4.0]), 40)
    x = traj[:, 0]
    assert x[1] < 1.0
    tail = x[1:]
    assert np.all(np.diff(tail)[np.abs(tail - 1.0)[:-1] > 1e-9] > 0.0)
    # from inside (1, x*) the orbit decreases monotonically to 1
    traj2, _ = attract_trajectory(kmap, res.sigma, np.array([1.5]), 40)
    x2 = traj2[:, 0]
    assert np.all(np.diff(x2)[np.abs(x2 - 1.0)[:-1] > 1e-9] < 0.0)


def test_attract_trajectory_on_surface_and_escape(coupled_run):
    sigma = coupled_run.sigma
    x0 = vertex_points(sigma)[10]
    _, dists = attract_trajectory(COUPLED, sigma, x0, 30)
    assert np.max(dists) < max(coupled_run.interp_error, 1e-4)
    with pytest.raises(EscapeError):
        attract_trajectory(COUPLED, sigma, np.array([1.0, 1.0]), 5, safety_top=0.5)


def test_surface_distance_properties(coupled_run):
    sigma = coupled_run.sigma
    pts = vertex_points(sigma)
    for p in pts[::7]:
        assert surface_distance(sigma, p) < 1e-12
        assert surface_distance(sigma, 0.9 * p) > 0.0
    assert surface_distance(sigma, np.zeros(2)) > 0.0


def loop_surface_distance(sigma, x):
    """Single-point surface distance (reference for the batched one)."""
    s = float(x.sum())
    if s <= 0.0 or np.any(x < 0.0):
        return float(np.sqrt(((vertex_points(sigma) - x) ** 2).sum(axis=1)).min())
    u = x / s
    return abs(s - radius_at(sigma, u)) * float(np.linalg.norm(u))


@pytest.mark.parametrize("dim,m", [(1, 1), (2, 16), (3, 6)])
def test_surface_distance_batch_equals_single_point_reference(dim, m):
    rng = np.random.default_rng(5)
    grid = make_grid(dim, m)
    sigma = RadialManifold(grid, 0.8 + 0.4 * rng.random(grid.n_vertices))
    x = np.vstack([
        rng.uniform(0.0, 1.5, (300, dim)),
        vertex_points(sigma),
        np.zeros((1, dim)),
        -rng.uniform(0.0, 1.0, (3, dim)),
    ])
    x[-1, 0] = 0.5  # one negative coordinate, positive sum
    batch = surface_distance(sigma, x)
    for k, row in enumerate(x):
        assert batch[k] == loop_surface_distance(sigma, row)
        assert surface_distance(sigma, row) == batch[k]


def simplex_projection(y):
    """Euclidean projection of the rows of y onto the probability simplex, by sorting."""
    u = -np.sort(-y, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    rho = np.count_nonzero(u - css / np.arange(1, y.shape[1] + 1) > 0.0, axis=1)
    theta = css[np.arange(y.shape[0]), rho - 1] / rho
    return np.maximum(y - theta[:, None], 0.0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_surface_distance_bounds_the_distance_to_the_simplex(dim):
    # R = 1 interpolates to 1 on every cell, so the surface is the probability simplex
    sigma = constant_manifold(make_grid(dim, 7), 1.0)
    eps = np.finfo(float).eps
    x = np.random.default_rng(dim).uniform(0.0, 2.0, (2000, dim))
    exact = np.linalg.norm(x - simplex_projection(x), axis=1)
    assert np.all(surface_distance(sigma, x) >= exact - 4 * eps)
    # on the barycentre's ray the nearest surface point is on the ray itself
    s = np.array([0.0625, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0])
    on_ray = surface_distance(sigma, s[:, None] * np.full(dim, 1.0 / dim))
    assert np.all(np.abs(on_ray - np.abs(s - 1.0) / np.sqrt(dim)) <= 4 * eps * np.maximum(s, 1.0))


def test_verify_cs_coupled(coupled_run):
    rep = verify_cs(COUPLED, coupled_run.sigma, KAPPA, sample_count=1000, horizon=200, seed=3)
    assert rep.unorder_violations == 0
    assert max(rep.fixed_point_residuals) < 1e-6
    assert rep.order_margin >= 0.0  # every facet normal nonnegative: the sqrt(d) lemma holds
    assert rep.harnack_samples == 0
    assert rep.retrotone_samples == 0
    assert rep.retrotone_ordered_count > 50
    assert rep.attraction_stats == 1.0
    assert rep.invariance_defect < 0.05
    assert rep.passed()


def test_verify_cs_sample_streams_are_pinned():
    # the retrotone and attraction counts were recorded with one map call per
    # sample, the steep map's Harnack count with the array draw of _ordered_pairs
    res = compute_cs(COUPLED, make_grid(2, 16), KAPPA, EPSILON, tolerance=1e-6)
    rep = verify_cs(COUPLED, res.sigma, KAPPA, sample_count=200, horizon=25, seed=11)
    assert (rep.harnack_samples, rep.harnack_pair_count) == (0, 200)
    assert rep.retrotone_ordered_count == 63
    assert rep.attraction_failures == 47
    # a steep map where the Harnack pairs do fail
    assert harnack_battery(ricker2d(2.0, 2.0, 0.5, 0.5), KAPPA, 200, seed=11) == (59, 200)


def test_harnack_battery_pins_in_three_and_four_species():
    # counts recorded with the array draw of _ordered_pairs
    for dim, viol in ((3, 69), (4, 72)):
        kmap = leslie_gower((1.0,) * dim, np.eye(dim) + 0.3 * (1.0 - np.eye(dim)))
        assert harnack_battery(kmap, 1.0, 500, seed=11, margin=0.05) == (viol, 500)
    assert harnack_battery(COUPLED, KAPPA, 0) == (0, 0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_ordered_pairs_share_a_support_and_grow_on_it(dim):
    for box_top in (1.0625, 2.0):
        pairs = simplex._ordered_pairs(np.random.default_rng(dim), 1000, dim, box_top)
        assert pairs.shape == (1000, 2, dim)
        x, y = pairs[:, 0], pairs[:, 1]
        assert np.all((0.0 <= x) & (x <= y) & (y <= box_top))
        support = x > 0.0
        assert np.array_equal(support, y > 0.0) and support.any(axis=1).all()
        assert np.all(y[support] > x[support])
        # when dim >= 2, some pairs keep a strict subset of the coordinates
        assert (~support).any() == (dim > 1)


def test_sampling_is_deterministic_in_the_seed(coupled_run):
    sigma = coupled_run.sigma
    first, again = (
        verify_cs(COUPLED, sigma, KAPPA, sample_count=200, horizon=25, seed=5).to_dict()
        for _ in range(2)
    )
    assert first == again
    a, b = (simplex._ordered_pairs(np.random.default_rng(s), 50, 3, 2.0) for s in (0, 1))
    assert not np.array_equal(a, b)


def test_attract_trajectory_distances_equal_per_step():
    dim = 3
    kmap = leslie_gower((1.0,) * dim, np.eye(dim) + 0.3 * (1.0 - np.eye(dim)))
    sigma = compute_cs(kmap, make_grid(dim, 24), 1.0, 0.5, tolerance=1e-6).sigma
    traj, dists = attract_trajectory(kmap, sigma, np.array([1.9, 0.05, 0.7]), 300)
    per_step = np.array([surface_distance(sigma, x) for x in traj])
    assert dists.tobytes() == per_step.tobytes()


def loop_retrotone_counts(pairs, images):
    """The per-pair retrotone loop (reference for the vectorised counts)."""
    violations = tested = 0
    for (x, y), (fx, fy) in zip(pairs, images):
        for p, q, fp, fq in ((x, y, fx, fy), (y, x, fy, fx)):
            if np.all(fp <= fq) and np.any(fp < fq):
                tested += 1
                idx = fp < fq
                ok = np.all(p <= q) and np.any(p < q) and np.all(p[idx] < q[idx])
                if not ok:
                    violations += 1
                break
    return violations, tested


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_retrotone_counts_equal_loop_reference(dim):
    rng = np.random.default_rng(30 + dim)
    # values from {0, 1, 2}, so that images tie and coordinates repeat often
    pairs = rng.integers(0, 3, (3000, 2, dim)).astype(float)
    images = rng.integers(0, 3, (3000, 2, dim)).astype(float)
    images[:100, 1] = images[:100, 0]  # tied images: ordered in neither orientation
    pairs[100:200, 1] = pairs[100:200, 0]  # equal points
    images[200:300, 1, 0] = images[200:300, 0, 0]  # ties in one coordinate
    counts = simplex._retrotone_counts(pairs, images)
    assert counts == loop_retrotone_counts(pairs, images)
    assert counts[0] > 0 and counts[1] > counts[0]


@pytest.mark.parametrize(
    "kmap,kappa",
    [
        (ricker1d(0.5), 0.5),
        (COUPLED, KAPPA),
        (ricker2d(3.0, 3.0, 0.5, 0.5), KAPPA),  # overcompensating: violations
        (leslie_gower((1.0, 1.0, 1.0), np.eye(3) + 0.3 * (1 - np.eye(3))), 1.0),
    ],
    ids=["ricker1d", "coupled", "steep", "lg3"],
)
def test_retrotone_battery_equals_loop_reference(kmap, kappa):
    pairs = np.random.default_rng(4).uniform(0.0, 1.0 + kappa, (500, 2, kmap.dim))
    expected = loop_retrotone_counts(pairs, eval_F(kmap, pairs))
    assert retrotone_battery(kmap, kappa, 500, seed=4) == expected


def test_verify_cs_flags_perturbed_sigma(coupled_run):
    from csimplex.geometry import RadialManifold

    sigma = coupled_run.sigma
    bloated = RadialManifold(sigma.grid, sigma.radii * 1.05)
    rep = verify_cs(COUPLED, bloated, KAPPA, sample_count=200, horizon=100, seed=3)
    # the images of the bloated points fall back toward the surface by about half the 5%
    assert rep.invariance_defect > 0.01
    assert max(rep.fixed_point_residuals) > 1e-4
    assert not rep.passed()


def test_verify_cs_vacuous_fields():
    kmap = beverton_holt()
    res = compute_cs(kmap, make_grid(1, 1), 1.0, 0.5, tolerance=1e-9)
    rep = verify_cs(kmap, res.sigma, 1.0, sample_count=0, horizon=10, seed=0)
    assert "harnack_samples" in rep.vacuous
    assert "attraction_stats" in rep.vacuous
    assert rep.harnack_samples is None
    assert rep.passed()  # vacuous fields do not fail the gate
    # one-species surfaces have no cell: the order check is vacuous
    rep2 = verify_cs(kmap, res.sigma, 1.0, sample_count=50, horizon=20, seed=0)
    assert "unorder_violations" in rep2.vacuous and "order_margin" in rep2.vacuous
    assert rep2.order_margin is None
    assert rep2.passed()


def lg3(offdiag):
    return leslie_gower((1.0,) * 3, np.eye(3) + offdiag * (1.0 - np.eye(3)))


@pytest.mark.parametrize("dim,m", [(2, 7), (3, 7), (4, 5)])
def test_invariance_defect_vanishes_on_the_flat_oracle(dim, m):
    # A all ones and r = 1: F(x) = 2x / (1 + sum x) fixes the simplex point by point
    kmap = leslie_gower((1.0,) * dim, np.ones((dim, dim)))
    rep = verify_cs(kmap, constant_manifold(make_grid(dim, m), 1.0), 1.0, sample_count=0)
    assert rep.invariance_defect <= 4.0 * np.finfo(float).eps


def defects(kmap, resolutions, tolerance):
    """verify's invariance defect of the computed surface at each resolution."""
    out = []
    for m in resolutions:
        sigma = compute_cs(kmap, make_grid(kmap.dim, m), 1.0, EPSILON, tolerance=tolerance).sigma
        out.append(verify_cs(kmap, sigma, 1.0, sample_count=0).invariance_defect)
    return np.array(out)


def test_invariance_defect_shrinks_with_spacing():
    # the images land between the lattice directions, so on a smooth surface the
    # defect reads the interpolation error, second order: 3.2e-3, 1.2e-3, 3.3e-4
    d = defects(lg3(0.3), (32, 64, 128), 1e-9)
    assert np.all(d[:-1] >= 2.5 * d[1:])
    assert d[0] < 0.05


def test_invariance_defect_is_first_order_at_kinks():
    # decoupled: the exact surface 1/max(u) has kinks, and the defect falls only
    # about 2x per doubling (8.8e-2, 5.2e-2, 2.6e-2); at res 16 it fails invariance_max
    d = defects(lg3(0.0), (16, 32, 64), 1e-7)
    assert np.all(d[:-1] <= 2.5 * d[1:])
    assert d[0] >= 0.05


def test_invariance_defect_is_the_largest_ray_gap_of_the_vertex_images():
    kmap = lg3(0.3)
    sigma = compute_cs(kmap, make_grid(3, 12), 1.0, EPSILON, tolerance=1e-6).sigma
    images = eval_F(kmap, vertex_points(sigma))
    gaps = [surface_distance(sigma, y) for y in images]
    first, again = (verify_cs(kmap, sigma, 1.0, sample_count=0).invariance_defect for _ in range(2))
    assert first == again == max(gaps)


def test_attraction_battery_reads_the_surface_at_the_equilibrium():
    # every orbit of coupled Leslie-Gower ends at x* = A^-1 1, whose direction is the
    # barycentre: a lattice vertex when 3 divides the resolution, and at res 33 the
    # battery passes; at res 32 it reads sigma between vertices and every seed fails
    kmap = lg3(0.3)
    x_star = np.full(3, 1.0 / 1.6)
    for m, failures, distance in ((33, 0, 1.1e-8), (32, 100, 4.0e-3)):
        sigma = compute_cs(kmap, make_grid(3, m), 1.0, EPSILON, tolerance=1e-6).sigma
        assert attraction_battery(kmap, sigma, 1.0, 100, 200, 1e-3, seed=2) == (failures, 100)
        assert abs(surface_distance(sigma, x_star) - distance) <= 0.1 * distance


@pytest.mark.parametrize("kmap, kappa, m, frozen", [(lg3(0.0), 1.0, 16, True), (COUPLED, KAPPA, 32, False)],
                         ids=["decoupled-leslie-gower", "ricker2d"])
def test_attraction_battery_stops_early_only_on_a_fixed_batch(monkeypatch, kmap, kappa, m, frozen):
    # the reference is the full-horizon loop: a batch that F returns unchanged stays unchanged,
    # and the orbit ends, the failures and the count are the same bits either way
    sigma = compute_cs(kmap, make_grid(kmap.dim, m), kappa, EPSILON, tolerance=1e-6).sigma
    ends, steps = [], []
    monkeypatch.setattr(simplex, "surface_distance", lambda s, x: ends.append(x) or surface_distance(s, x))
    monkeypatch.setattr(simplex, "eval_F", lambda k, x: steps.append(x) or eval_F(k, x))
    got = attraction_battery(kmap, sigma, kappa, 100, 200, 1e-3, seed=5)
    early = len(steps)
    monkeypatch.setattr(simplex, "FIXED_ORBIT_EVERY", 10**9)  # never compares
    assert attraction_battery(kmap, sigma, kappa, 100, 200, 1e-3, seed=5) == got
    assert len(steps) - early == 200
    assert ends[0].tobytes() == ends[1].tobytes()
    assert (early < 200) == frozen


def test_pipeline_fails_loudly_outside_validity():
    # parameters violate the spectral condition: either the iteration folds
    # or the verification batteries report violations
    kmap = ricker2d(1.5, 1.5, 0.5, 0.5)
    grid = make_grid(2, 16)
    res = compute_cs(kmap, grid, 0.1, 0.25, tolerance=1e-6, max_iter=200)
    if res.termination == "fold_error":
        assert res.sigma is None
    else:
        rep = verify_cs(kmap, res.sigma, 0.1, sample_count=400, horizon=30, seed=0)
        assert (rep.retrotone_samples or 0) + (rep.harnack_samples or 0) > 0


def test_three_species_decoupled_box_boundary():
    # diagonal interactions decouple the axes, so the surface is exactly the
    # unit box boundary; its edges are radial kinks crossed by the cells,
    # the hardest interpolation case
    from csimplex.maps import leslie_gower

    kmap = leslie_gower(r=(1.0, 1.0, 1.0), A=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)))
    errs = {}
    for m in (16, 32):
        grid = make_grid(3, m)
        res = compute_cs(kmap, grid, 1.0, 0.5, tolerance=1e-7)
        assert res.termination == "converged"
        box = box_boundary_manifold(grid, 1.0)
        assert hausdorff_bound(res.sigma, box) < 3.0 / m
        # matched ridge direction (1/4, 3/8, 3/8): the radial kink
        ridge = grid.vertex_index((m // 4, 3 * m // 8, 3 * m // 8))
        errs[m] = abs(res.sigma.radii[ridge] - box.radii[ridge])
    # the chamfer at the kink shrinks at least first order under refinement
    assert errs[32] < 0.7 * errs[16]


def test_three_species_leslie_gower_end_to_end():
    from csimplex.maps import leslie_gower

    a = ((1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0))
    kmap = leslie_gower(r=(1.0, 1.0, 1.0), A=a)
    grid = make_grid(3, 16)
    res = compute_cs(kmap, grid, 1.0, 0.5, tolerance=1e-7)
    assert res.termination == "converged"
    assert res.monotone_ok and res.gap_monotone_ok
    for i in range(3):
        assert abs(res.sigma.radii[grid.corner_index(i)] - 1.0) < 1e-6
    # symmetric interior fixed point solves (A x)_i = r_i: x = (1/2, 1/2, 1/2);
    # its direction is not a lattice vertex at this resolution, so membership
    # holds at the certified radial error (interpolation dominated)
    status, margin = gamma_membership(res.sigma, np.full(3, 0.5), res.certified_error)
    assert status == "on"
    assert abs(margin) < res.certified_error


def test_four_species_leslie_gower_end_to_end():
    from csimplex.maps import leslie_gower

    a = np.full((4, 4), 0.4)
    np.fill_diagonal(a, 1.0)
    kmap = leslie_gower(r=(1.0,) * 4, A=a.tolist())
    grid = make_grid(4, 8)
    res = compute_cs(kmap, grid, 1.0, 0.5, tolerance=1e-7)
    assert res.termination == "converged"
    assert res.monotone_ok
    for i in range(4):
        assert abs(res.sigma.radii[grid.corner_index(i)] - 1.0) < 1e-6
    # interior fixed point x = e / 2.2 projects onto the barycenter, which is
    # a lattice vertex at even resolutions: membership is sharp
    status, margin = gamma_membership(res.sigma, np.full(4, 1.0 / 2.2), 1e-6)
    assert status == "on"


def test_five_species_leslie_gower_pins_its_iterations():
    # odd d above 3: the tile's orientation rule carries the factor (-1)^(d+1)
    a = np.full((5, 5), 0.3)
    np.fill_diagonal(a, 1.0)
    kmap = leslie_gower(r=(1.0,) * 5, A=a.tolist())
    grid = make_grid(5, 4)
    res = compute_cs(kmap, grid, 1.0, 0.25, tolerance=1e-6)
    assert (res.termination, res.iterations, res.certified_by) == ("converged", 22, "inflation")
    assert res.monotone_ok and res.gap_monotone_ok
    for i in range(5):
        assert abs(res.sigma.radii[grid.corner_index(i)] - 1.0) < 1e-6


def test_seed_independence(coupled_run):
    res = coupled_run
    grid = res.sigma.grid
    seeded, steps, history = iterate_manifold(
        COUPLED, constant_manifold(grid, 1.0), 1.0 + KAPPA, step_tol=1e-7
    )
    assert sup_gap(seeded, res.sigma) < 2e-6
    assert history[-1] < 1e-7


DECOUPLED_LG = {d: leslie_gower((1.0,) * d, np.eye(d)) for d in (2, 3)}
ENCLOSED = [  # (map, kappa, dim, resolution)
    (COUPLED, KAPPA, 2, 32),
    (leslie_gower((1.0,) * 3, np.eye(3) + 0.3 * (1.0 - np.eye(3))), 1.0, 3, 12),
    (leslie_gower((1.0,) * 4, np.eye(4) + 0.2 * (1.0 - np.eye(4))), 1.0, 4, 6),
    (DECOUPLED_LG[2], 1.0, 2, 16),
    (DECOUPLED_LG[3], 1.0, 3, 8),
    (beverton_holt(), 1.0, 1, 1),
    (atkinson_allen(0.5), 1.0, 1, 1),
    (ricker1d(0.5), 0.5, 1, 1),
]


@pytest.mark.parametrize("tolerance", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize(
    "kmap,kappa,dim,m", ENCLOSED,
    ids=["ricker2d", "lg3", "lg4", "decoupled2", "decoupled3", "bh", "aa", "ricker1d"],
)
def test_inflated_lower_encloses_the_lockstep_limit(kmap, kappa, dim, m, tolerance, monkeypatch):
    grid = make_grid(dim, m)
    reference = lockstep_sigma(kmap, grid, kappa, EPSILON, 1e-13, max_iter=400).radii
    res = compute_cs(kmap, grid, kappa, EPSILON, tolerance=tolerance)
    assert (res.termination, res.certified_by, res.to_dict()["enclosure"]) == \
        ("converged", "inflation", "discrete")
    assert res.monotone_ok and res.gap_monotone_ok
    assert len(res.harnack_history) == res.iterations + 1 == len(res.gap_history)
    assert np.abs(res.sigma.radii - reference).max() <= 0.2 * tolerance
    # with no inflation try the lower steps from epsilon
    monkeypatch.setattr(simplex, "INFLATION_TRIES", 0)
    fallback = compute_cs(kmap, grid, kappa, EPSILON, tolerance=tolerance)
    assert (fallback.termination, fallback.certified_by) == ("converged", "lockstep")
    assert fallback.monotone_ok and fallback.gap_monotone_ok
    for run in (res, fallback):
        assert np.all(run.lower.radii <= reference + 1e-12)
        assert np.all(reference <= run.upper.radii + 1e-12)


def test_inflated_lower_is_held_then_steps_with_the_upper():
    lowers = []
    res = compute_cs(COUPLED, make_grid(2, 16), KAPPA, EPSILON, tolerance=1e-6,
                     on_iteration=lambda n, lower, upper: lowers.append(lower.radii.copy()))
    held = [np.all(lo == EPSILON) for lo in lowers]
    inflated = held.index(False)
    assert inflated > 0 and not any(held[inflated:])
    # a held cycle records no lower step; the inflated one and those after it do
    assert len(res.lower_min_steps) == res.iterations - inflated
    assert res.certified_by == "inflation"


def test_unreachable_tolerance_inflates_at_the_rounding_floor():
    # the upper steps stall near 1e-16 long before the gap reaches 1e-17, so the
    # stall triggers the inflation and the gap closes to the rounding floor
    kmap = leslie_gower((1.0,) * 3, np.eye(3) + 0.3 * (1.0 - np.eye(3)))
    res = compute_cs(kmap, make_grid(3, 24), 1.0, EPSILON, tolerance=1e-17, max_iter=120)
    assert (res.termination, res.iterations) == ("max_iter", 120)
    assert res.final_gap <= 1e-14
