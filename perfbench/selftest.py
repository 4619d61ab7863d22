#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload in tiny mode, untraced and traced, and asserts that
every metric named in BENCHMARK.json is printed with its unit and lands in
the final JSON line, and that fail_rate is computed from the operations run.
It checks in-process that the tracer reaches calls made through names bound
by `from .x import y`, and that uninstalling it leaves every `csimplex`
module exactly as imported. Last, it runs the benchmark in a directory that
holds only BENCHMARK.json and the benchmark's files and expects a non-zero
exit without a result.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]
TIMEOUT_S = 300


def bench(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_workload(workload: str, trace: int) -> None:
    code, lines, err = bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--tiny"])
    assert code == 0, f"{workload} trace {trace} exited {code}: {err}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: outputs judged incorrect"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], workload
    printed = {ln.split(" = ")[0]: ln.split(" = ")[1] for ln in lines if " = " in ln}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (workload, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (workload, m["name"])
        assert printed[m["name"]].endswith(" " + m["unit"]), (workload, m["name"])
    value, unit = printed["fail_rate"].split()
    assert unit == "ratio"
    assert abs(float(value) - result["failed"] / result["attempted"]) < 1e-5, workload
    print(f"ok  {workload} trace {trace}: {len(wanted)} metrics, "
          f"{result['failed']}/{result['attempted']} operations failed")


def check_tracer_restores() -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import csimplex.cli  # noqa: F401
    import csimplex.maps
    import csimplex.simplex
    import csimplex.transform
    from tracer import Tracer, snapshot

    before = snapshot()
    original = csimplex.maps.eval_F
    out = HERE / "out" / "selftest-tracer"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "map": {"name": "ricker2d", "params": {"r": 0.5, "s": 0.5, "a": 0.5, "b": 0.5}},
        "grid": {"resolution": 8},
        "solver": {"check_resolution": 8},
        "output": str(out / "result"),
    }))
    with Tracer() as tracer:
        assert csimplex.simplex.eval_F is not original
        assert csimplex.transform.eval_F is csimplex.maps.eval_F
        with contextlib.redirect_stdout(io.StringIO()):
            assert csimplex.cli.main(["compute", "--config", str(cfg)]) == 0
    assert snapshot() == before, "tracer left csimplex modules changed"
    assert csimplex.simplex.eval_F is original and csimplex.transform.eval_F is original
    summary = tracer.summary()
    assert summary["functions"]["maps.eval_F"]["calls"] > 0
    assert summary["functions"]["transform.graph_step"]["calls"] > 0
    selfs = sum(v["self_s"] for v in summary["layers"].values())
    top = summary["functions"]["cli.main"]["s"]
    assert abs(selfs - top) < 1e-6 * max(1.0, top), (selfs, top)
    print(f"ok  tracer: {summary['spans']} spans, layer self times sum to cli.main, "
          "modules restored")


def check_bare_directory() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planar-verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode != 0, "benchmark ran without the package source"
    assert '"metrics"' not in proc.stdout
    shutil.rmtree(bare)
    print(f"ok  bare directory: exit {proc.returncode} ({proc.stderr.strip()})")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace)
    check_tracer_restores()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
