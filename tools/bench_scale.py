"""Time check, compute and verify at scale, each command in a fresh process.

Usage, from the root of a checkout:

    python tools/bench_scale.py [--large] [--src LABEL=DIR ...] [--out BENCH.json]

Each configuration is coupled Leslie-Gower (r = 1, diagonal 1, off-diagonal
0.3) at the package's default solver settings. Every run executes
`python -m csimplex.cli check`, `compute` and `verify` in that order into a
fresh output directory, with PYTHONPATH set to the source tree, RUNS times;
`verify` thus takes kappa from the `assumptions.json` that `compute` wrote
there instead of scanning the box again.
Per command the file records the wall time (min and median over runs), the
child's peak RSS from os.wait4, the exit code, every output file's sha256,
and, for compute, `iterations`, `certified_by` and `certified_error`.
`consistent` says whether every run gave the same exit code and outputs.

Several `--src` trees (default: this checkout's src) are run alternately,
each run reversing which goes first, so that host drift hits them alike; `same_outputs` then compares each command's
output hashes across the trees.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = {
    "check": ("assumptions.json",),
    "compute": ("assumptions.json", "convergence.json", "sigma.csv"),
    "verify": ("verification.json",),
}
# (dim, resolution) of the scale table; the large ones take about a minute each
SCALE = [(3, 128), (4, 32), (3, 256), (4, 48), (4, 64), (3, 512), (5, 16), (6, 8)]
LARGE = [(5, 32), (6, 16)]
RUNS = 3


def coupled_lg(dim: int, resolution: int) -> dict:
    a = [[1.0 if i == j else 0.3 for j in range(dim)] for i in range(dim)]
    cfg = {"map": {"name": "leslie_gower", "params": {"r": [1.0] * dim, "A": a}},
           "grid": {"resolution": resolution}}
    if dim > 4:
        cfg["dim_cap"] = 6
    return cfg


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(src: str, command: str, config: str, out: str) -> dict:
    """One command in a fresh interpreter: wall time, peak RSS, exit code, output hashes."""
    env = {**os.environ, "PYTHONPATH": src}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = [sys.executable, "-m", "csimplex.cli", command, "--config", config, "--out", out]
    with open(os.path.join(out, f"{command}.log"), "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode,
           "outputs": {name: _sha256(os.path.join(out, name)) for name in OUTPUTS[command]}}
    if command == "compute" and rec["outputs"]["convergence.json"]:
        with open(os.path.join(out, "convergence.json")) as fh:
            conv = json.load(fh)
        rec.update({key: conv[key] for key in ("iterations", "certified_by", "certified_error")})
    return rec


def _summary(runs: list[dict]) -> dict:
    walls = [r["wall_s"] for r in runs]
    first = runs[0]
    out = {"wall_s": {"min": min(walls), "median": statistics.median(walls)},
           "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
           "consistent": all((r["exit_code"], r["outputs"]) == (first["exit_code"], first["outputs"])
                             for r in runs)}
    out.update({k: v for k, v in first.items() if k not in ("wall_s", "peak_rss_mb")})
    return out


def _commit(src: str) -> dict:
    def git(*args):
        res = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def measure(configs: dict, trees: dict, runs: int) -> dict:
    """Run every config `runs` times on each source tree, alternating the trees."""
    raw = {label: {name: {c: [] for c in OUTPUTS} for name in configs} for label in trees}
    with tempfile.TemporaryDirectory(prefix="bench_scale-") as work:
        for name, cfg in configs.items():
            path = os.path.join(work, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            for k in range(runs):
                for label, src in list(trees.items())[::1 if k % 2 == 0 else -1]:
                    out = os.path.join(work, f"{label}-{name}-{k}")
                    os.makedirs(out)
                    for command in OUTPUTS:
                        raw[label][name][command].append(_run(src, command, path, out))
    result = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")},
        "runs": runs,
        "configs": configs,
        "trees": {label: {**_commit(src),
                          "results": {name: {c: _summary(r) for c, r in cmds.items()}
                                      for name, cmds in raw[label].items()}}
                  for label, src in trees.items()},
    }
    if len(trees) > 1:
        hashes = [{name: {c: s["outputs"] for c, s in res.items()} for name, res in t["results"].items()}
                  for t in result["trees"].values()]
        result["same_outputs"] = {name: {c: all(h[name][c] == hashes[0][name][c] for h in hashes)
                                         for c in OUTPUTS} for name in configs}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--large", action="store_true", help="add d=5 res 32 and d=6 res 16")
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="a source tree to run (repeatable; default: this checkout's src)")
    parser.add_argument("--out", default="-", help="output JSON file (default: stdout)")
    args = parser.parse_args(argv)
    sizes = SCALE + (LARGE if args.large else [])
    configs = {f"d{d}-res{m}": coupled_lg(d, m) for d, m in sizes}
    trees = dict(s.split("=", 1) for s in args.src) if args.src else {"src": os.path.join(ROOT, "src")}
    trees = {label: os.path.abspath(src) for label, src in trees.items()}
    text = json.dumps(measure(configs, trees, RUNS), indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
