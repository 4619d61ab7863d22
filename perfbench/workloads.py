"""The benchmark's fixed workloads and the reasons each one was chosen.

A workload is a complete `csimplex` run configuration. The seed sets only
`verify.seed`: `check` and `compute` do the same work for every seed, and
`verify` draws its Harnack, retrotone and attraction samples from it.
`tiny` overrides shrink a workload so the self-test runs in seconds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def decoupled_radius(u: np.ndarray) -> np.ndarray:
    """Exact carrying simplex of a decoupled map with unit axis fixed points.

    With A = I every species follows its own Leslie-Gower recursion, the
    attractor is the box [0, 1]^d and its radial boundary is R(u) = 1/max(u).
    """
    return 1.0 / np.max(u, axis=1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reasons: tuple
    map: dict
    resolution: int
    tolerance: float
    sample_count: int
    horizon: int
    # Wall seconds of check, compute and verify on the baseline machine; they
    # fix how many samples of each command fit a run (run.plan).
    nominal_s: dict = field(default_factory=dict)
    check_resolution: int | None = None  # None keeps the package default
    oracle: object = None  # exact radius R(u) for an (N, d) array of directions
    tiny: dict = field(default_factory=dict)

    def config(self, seed: int, output: str, tiny: bool = False) -> dict:
        solver = {"tolerance": self.tolerance}
        if self.check_resolution is not None:
            solver["check_resolution"] = self.check_resolution
        cfg = {
            "map": self.map,
            "grid": {"resolution": self.resolution},
            "solver": solver,
            "verify": {
                "sample_count": self.sample_count,
                "horizon": self.horizon,
                "seed": int(seed),
            },
            "output": output,
        }
        if tiny:
            for section, values in self.tiny.items():
                cfg[section] = {**cfg[section], **values}
        return cfg


def _lg3(offdiag: float) -> dict:
    a = [[1.0 if i == j else offdiag for j in range(3)] for i in range(3)]
    return {"name": "leslie_gower", "params": {"r": [1.0, 1.0, 1.0], "A": a}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planar-verify",
            why="README ricker2d config at res 64; verify's scalar map calls dominate, resample does almost nothing",
            reasons=(
                "The README configuration: ricker2d(0.5, 0.5, 0.5, 0.5), res 64, tol 1e-6,"
                " verified with 1000 samples at horizon 200.",
                "The maps layer does almost all the work through scalar calls: about"
                " 2e5 eval_F and 6e4 eval_Z calls, most of them in the attraction battery.",
                "transform does almost nothing: resample runs in about 45 small calls.",
                "Batched maps should show here; an output-sensitive resample should not.",
            ),
            map={"name": "ricker2d", "params": {"r": 0.5, "s": 0.5, "a": 0.5, "b": 0.5}},
            resolution=64,
            tolerance=1e-6,
            sample_count=1000,
            horizon=200,
            nominal_s={"check": 2.12, "compute": 2.16, "verify": 8.88},
            tiny={"grid": {"resolution": 8}, "verify": {"sample_count": 20, "horizon": 20},
                  "solver": {"check_resolution": 8}},
        ),
        Workload(
            name="lg3-fine",
            why="coupled 3-species Leslie-Gower at res 48; dense resample and its alpha array dominate compute and memory",
            reasons=(
                "Leslie-Gower, d=3, r=(1,1,1), diagonal 1, off-diagonal 0.3, res 48, tol 1e-6,"
                " verified with 200 samples at horizon 200.",
                "transform.resample does most of compute: its dense alpha array has"
                " 1225 targets x 2304 cells x 3 doubles (about 68 MB, computed) per call,"
                " which sets peak memory.",
                "An output-sensitive resample should show here.",
                "Res 48, not 32: at res 32 verify fails with attraction 0.0, because the"
                " interior equilibrium's direction is no lattice vertex and the"
                " interpolation error exceeds attraction_tol = 1e-3. The decoupled"
                " workload keeps that class of failure visible.",
                "The assumption scans run on a 12-point grid (the d=3 default is 24);"
                " they give the same kappa and epsilon, keep resample the largest cost,"
                " and keep a run within the time budget. The other two workloads scan"
                " at the default size.",
            ),
            map=_lg3(0.3),
            resolution=48,
            tolerance=1e-6,
            sample_count=200,
            horizon=200,
            nominal_s={"check": 0.589, "compute": 15.6, "verify": 2.64},
            check_resolution=12,
            tiny={"grid": {"resolution": 6}, "verify": {"sample_count": 10, "horizon": 20},
                  "solver": {"check_resolution": 6}},
        ),
        Workload(
            name="lg3-decoupled-oracle",
            why="decoupled 3-species Leslie-Gower at res 16 with the exact surface 1/max(u); assumption scans dominate",
            reasons=(
                "Leslie-Gower, d=3, A = I, res 16, tol 1e-7, running check, compute and verify"
                " (200 samples at horizon 200).",
                "The only workload with an exact surface, R(u) = 1/max(u), so the true"
                " radial error (oracle_error) is measured here and compared with"
                " certified_error.",
                "The assumption scans do most of the work.",
                "Its verify exits 1 (attraction 0.0 at the kink of the exact surface);"
                " that is counted as a failed operation, the known correctness finding.",
            ),
            map=_lg3(0.0),
            resolution=16,
            tolerance=1e-7,
            sample_count=200,
            horizon=200,
            nominal_s={"check": 4.64, "compute": 5.34, "verify": 5.77},
            oracle=decoupled_radius,
            tiny={"grid": {"resolution": 4}, "verify": {"sample_count": 20, "horizon": 20},
                  "solver": {"check_resolution": 6}},
        ),
    )
}
