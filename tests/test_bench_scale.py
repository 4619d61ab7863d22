import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("bench_scale", os.path.join(ROOT, "tools", "bench_scale.py"))
bench_scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_scale)


def test_bench_scale_records_every_command_on_a_tiny_config():
    cfg = {**bench_scale.coupled_lg(3, 4),
           "solver": {"check_resolution": 6}, "verify": {"sample_count": 10, "horizon": 20}}
    src = os.path.join(ROOT, "src")
    result = json.loads(json.dumps(bench_scale.measure({"tiny": cfg}, {"a": src, "b": src}, runs=1)))
    assert set(result) == {"host", "runs", "configs", "trees", "same_outputs"}
    assert set(result["host"]) == {"nproc", "machine", "python", "numpy", "OPENBLAS_NUM_THREADS"}
    assert result["configs"] == {"tiny": cfg} and result["runs"] == 1
    assert result["same_outputs"] == {"tiny": {"check": True, "compute": True, "verify": True}}
    for tree in result["trees"].values():
        assert set(tree) == {"commit", "dirty", "results"}
        commands = tree["results"]["tiny"]
        assert set(commands) == {"check", "compute", "verify"}
        for name, rec in commands.items():
            assert {"wall_s", "peak_rss_mb", "exit_code", "outputs", "consistent"} <= set(rec)
            assert set(rec["wall_s"]) == {"min", "median"} and rec["peak_rss_mb"] > 0.0
            assert rec["consistent"] and set(rec["outputs"]) == set(bench_scale.OUTPUTS[name])
            assert all(len(h) == 64 for h in rec["outputs"].values())
        assert (commands["check"]["exit_code"], commands["compute"]["exit_code"]) == (0, 0)
        assert commands["compute"]["certified_by"] == "inflation"
        assert commands["compute"]["iterations"] > 0 and commands["compute"]["certified_error"] > 0.0
