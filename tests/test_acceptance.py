"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""
import json
import time

import numpy as np
import pytest

from csimplex.assumptions import (
    check_as4,
    jury_condition_ricker2d,
    run_assumption_checks,
)
from csimplex.cli import main
from csimplex.geometry import (
    box_boundary_manifold,
    constant_manifold,
    hausdorff_bound,
    make_grid,
    sup_gap,
    vertex_points,
)
from csimplex.maps import (
    atkinson_allen,
    beverton_holt,
    eval_df,
    fd_jacobian,
    ricker1d,
    ricker2d,
)
from csimplex.simplex import (
    attraction_battery,
    compute_cs,
    gamma_membership,
    harnack_battery,
    retrotone_battery,
    verify_cs,
)
from csimplex.transform import graph_step, pushforward, resample
from spectral_oracles import spectral_radius
from surface_oracles import bisection_resample, iterate_manifold


def record(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def one_species_runs():
    out = {}
    for kmap in [beverton_holt(), atkinson_allen(0.5), ricker1d(0.5)]:
        t0 = time.perf_counter()
        report = run_assumption_checks(kmap, resolution=64)
        result = compute_cs(
            kmap, make_grid(1, 1), report.kappa, report.epsilon, tolerance=1e-9
        )
        out[kmap.name] = (kmap, report, result, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def decoupled_run():
    kmap = ricker2d(0.5, 0.5, 0.0, 0.0)
    report = run_assumption_checks(kmap, resolution=64)
    t0 = time.perf_counter()
    result = compute_cs(
        kmap, make_grid(2, 64), report.kappa, report.epsilon, tolerance=1e-6
    )
    return kmap, report, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def coupled_run():
    kmap = ricker2d(0.5, 0.5, 0.5, 0.5)
    report = run_assumption_checks(kmap, resolution=64)
    result = compute_cs(
        kmap, make_grid(2, 64), report.kappa, report.epsilon, tolerance=1e-6
    )
    return kmap, report, result


def test_criterion_01_one_species_fixed_points(one_species_runs):
    details = []
    ok = True
    for name, (_, _, result, elapsed) in one_species_runs.items():
        err = abs(float(result.sigma.radii[0]) - 1.0)
        good = result.termination == "converged" and err < 1e-8 and elapsed < 1.0
        ok = ok and good
        details.append(f"{name}: |R-1|={err:.2e} in {elapsed:.2f}s")
    record(1, ok, "one-species surfaces equal the unit fixed point; " + "; ".join(details))


def test_criterion_02_steep_ricker_rejected(tmp_path):
    cfg = {
        "map": {"name": "ricker1d", "params": {"lam": 1.5}},
        "grid": {"resolution": 4},
        "solver": {"check_resolution": 64},
        "output": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["check", "--config", str(cfg_path)])
    report = json.loads((tmp_path / "out" / "assumptions.json").read_text())
    ok = (
        code != 0
        and report["as4_ok"] is False
        and report["as4_argmax"][0] <= 1.0 + 1e-12
    )
    record(2, ok, f"check exits {code} with spectral failure at x={report['as4_argmax']}")


def test_criterion_03_jury_condition_sweep():
    rng = np.random.default_rng(5)
    agree = 0
    off_band = 0
    for _ in range(1000):
        r, s = rng.uniform(0.05, 1.8, 2)
        a, b = rng.uniform(0.0, 2.0, 2)
        jury = jury_condition_ricker2d(r, s, a, b)
        res = check_as4(ricker2d(r, s, a, b), 0.0, 8)[1]
        if jury == res.ok:
            agree += 1
        elif not 0.98 <= res.max_rho < 1.0:
            off_band += 1
    ok = agree >= 990 and off_band == 0
    record(3, ok, f"jury vs sampled spectral check: {agree}/1000 agree, "
                  f"{off_band} disagreements outside the 0.02 margin band")


def test_criterion_04_decoupled_box_boundary(decoupled_run):
    _, _, result, elapsed = decoupled_run
    grid = result.sigma.grid
    oracle = box_boundary_manifold(grid, 1.0)
    dh = hausdorff_bound(result.sigma, oracle)
    ok = result.termination == "converged" and dh < 3.0 / 64 and elapsed < 30.0
    record(4, ok, f"decoupled surface within d_H <= {dh:.2e} of the unit box boundary "
                  f"(bound {3.0 / 64:.2e}) in {elapsed:.1f}s")


def test_criterion_05_coupled_landmarks(coupled_run):
    kmap, report, result = coupled_run
    grid = result.sigma.grid
    corner_err = max(
        abs(float(result.sigma.radii[grid.corner_index(i)]) - 1.0) for i in range(2)
    )
    status, margin = gamma_membership(result.sigma, np.array([2 / 3, 2 / 3]), 1e-3)
    rep = verify_cs(kmap, result.sigma, report.kappa, sample_count=0, tolerance=result.tolerance)
    invariance, violations = rep.invariance_defect, rep.unorder_violations
    ok = (
        corner_err < 1e-4
        and status == "on"
        and abs(margin) < 1e-3
        and invariance < 0.05
        and violations == 0
    )
    record(5, ok, f"coupled run: corner error {corner_err:.2e}, interior fixed point "
                  f"'{status}' margin {margin:.2e}, invariance {invariance:.2e}, "
                  f"{violations} order violations")


def test_criterion_06_monotone_sandwich(one_species_runs, decoupled_run, coupled_run):
    runs = [r for (_, _, r, _) in one_species_runs.values()]
    runs.append(decoupled_run[2])
    runs.append(coupled_run[2])
    ok = all(r.monotone_ok and r.gap_monotone_ok for r in runs)
    record(6, ok, f"monotone histories and nonincreasing gaps on all {len(runs)} runs")


def test_criterion_07_harnack_battery(one_species_runs, decoupled_run, coupled_run):
    cases = [(km, rep.kappa) for (km, rep, _, _) in one_species_runs.values()]
    cases.append((decoupled_run[0], decoupled_run[1].kappa))
    cases.append((coupled_run[0], coupled_run[1].kappa))
    total_viol = 0
    for i, (kmap, kappa) in enumerate(cases):
        viol, _ = harnack_battery(kmap, kappa, 1000, seed=100 + i, margin=1e-12)
        total_viol += viol
    record(7, total_viol == 0,
           f"ordered pairs strictly increase the symmetrized order: "
           f"{total_viol} violations over {1000 * len(cases)} pairs")


def test_criterion_08_retrotone_battery(one_species_runs, decoupled_run, coupled_run):
    cases = [(km, rep.kappa) for (km, rep, _, _) in one_species_runs.values()]
    cases.append((decoupled_run[0], decoupled_run[1].kappa))
    cases.append((coupled_run[0], coupled_run[1].kappa))
    total_viol = 0
    total_tested = 0
    for i, (kmap, kappa) in enumerate(cases):
        viol, tested = retrotone_battery(kmap, kappa, 1000, seed=200 + i)
        total_viol += viol
        total_tested += tested
    ok = total_viol == 0 and total_tested > 0
    record(8, ok, f"ordered images always come from ordered points: "
                  f"{total_viol} violations over {total_tested} ordered pairs")


def test_criterion_09_lipschitz_bound(coupled_run):
    _, _, result = coupled_run
    pts = vertex_points(result.sigma)
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    diffs = pts[ii] - pts[jj]
    proj = diffs - diffs.mean(axis=1, keepdims=True)
    lhs = np.linalg.norm(diffs, axis=1)
    rhs = np.sqrt(3.0) * np.linalg.norm(proj, axis=1) * (1.0 + 1e-9)
    worst = float((lhs - rhs).max())
    ok = bool(np.all(lhs <= rhs))
    record(9, ok, f"projection bound on all {lhs.size} vertex pairs "
                  f"(worst slack {worst:.2e})")


def test_criterion_10_attraction_monte_carlo(coupled_run):
    kmap, report, result = coupled_run
    failures, tested = attraction_battery(
        kmap, result.sigma, report.kappa, 100, 200, 1e-3, seed=42
    )
    record(10, failures == 0 and tested == 100,
           f"{tested - failures}/{tested} seeds within 1e-3 of the surface after 200 steps")


def test_criterion_11_seed_independence(coupled_run):
    kmap, report, result = coupled_run
    grid = result.sigma.grid
    seeded, steps, _ = iterate_manifold(
        kmap, constant_manifold(grid, 1.0), 1.0 + report.kappa, step_tol=1e-7
    )
    gap = sup_gap(seeded, result.sigma)
    record(11, gap < 2e-6,
           f"iteration seeded on the probability simplex lands {gap:.2e} from the "
           f"sandwich limit after {steps} steps (bound 2e-6)")


def test_criterion_12_numerical_oracles(coupled_run):
    rng = np.random.default_rng(77)
    # analytic vs finite-difference Jacobians
    jac_worst = 0.0
    for kmap in [beverton_holt(), atkinson_allen(0.5), ricker1d(0.5),
                 ricker2d(0.5, 0.5, 0.0, 0.0), ricker2d(0.5, 0.5, 0.5, 0.5)]:
        for _ in range(1000 // 5):
            x = 0.05 + rng.random(kmap.dim) * 1.2
            analytic = eval_df(kmap, x)
            fd = fd_jacobian(kmap.f, x, kmap.dim)
            err = float(np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic))))
            jac_worst = max(jac_worst, err)
    jac_ok = jac_worst < 1e-6

    # dense eigensolve vs power iteration
    eig_worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        m = rng.random((d, d))
        eig_worst = max(
            eig_worst, abs(spectral_radius(m, "eig") - spectral_radius(m, "power"))
        )
    eig_ok = eig_worst < 1e-10

    # planar bisection vs tiling resampling, on an early iterate and near the limit
    kmap, report, result = coupled_run
    box_top = 1.0 + report.kappa
    resample_worst = 0.0
    early = graph_step(kmap, box_boundary_manifold(result.sigma.grid, box_top), box_top)
    for manifold in [early, result.sigma]:
        cloud = pushforward(kmap, manifold, box_top)
        resample_worst = max(
            resample_worst, sup_gap(resample(cloud), bisection_resample(cloud))
        )
    resample_ok = resample_worst < 1e-8

    ok = jac_ok and eig_ok and resample_ok
    record(12, ok, f"oracles: jacobian err {jac_worst:.2e} (<1e-6), spectral err "
                   f"{eig_worst:.2e} (<1e-10), resampler gap {resample_worst:.2e} (<1e-8)")
