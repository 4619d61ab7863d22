import inspect
import json
import re
from dataclasses import replace
from pathlib import Path

from csimplex.assumptions import SAFETY_MARGIN, run_assumption_checks
from csimplex.io import RunConfig, load_config
from csimplex.simplex import VerificationReport, compute_cs, verify_cs

README = Path(__file__).resolve().parents[1] / "README.md"


def defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_readme_example_loads(tmp_path):
    example = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    path = tmp_path / "run.json"
    path.write_text(example)
    cfg = load_config(str(path))
    assert (cfg.map_name, cfg.resolution, cfg.tolerance, cfg.seed) == ("ricker2d", 64, 1e-6, 0)


def test_echo_loads_back_to_an_equal_config(tmp_path):
    cfg = RunConfig("leslie_gower", {"r": [1.0, 1.0], "A": [[1.0, 0.3], [0.3, 1.0]]},
                    resolution=24, tolerance=1e-8, check_resolution=12, seed=5,
                    attraction_min=0.9, output=str(tmp_path / "out"))
    for check_resolution in (12, None):  # null stands for the default None
        cfg = replace(cfg, check_resolution=check_resolution)
        path = tmp_path / "echo.json"
        path.write_text(json.dumps({**cfg.echo(), "output": cfg.output}))
        assert load_config(str(path)) == cfg


def test_nulls_integral_floats_and_ints_load_as_typed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"map": {"name": "beverton_holt", "params": None},
                                "grid": {"resolution": 16.0}, "solver": None,
                                "verify": {"attraction_tol": 1}}))
    cfg = load_config(str(path))
    assert cfg == RunConfig("beverton_holt", resolution=16, attraction_tol=1.0)
    assert type(cfg.resolution) is int and type(cfg.attraction_tol) is float


def test_run_config_defaults_match_the_library():
    cfg = RunConfig("beverton_holt")
    assert cfg.map_params == {} and cfg.safety_margin == SAFETY_MARGIN
    fed = {  # library parameter -> RunConfig field, as the command line passes them
        run_assumption_checks: {"resolution": "check_resolution", "kappa_max": "kappa_max",
                                "margin": "safety_margin", "eps_tol": "eps_tol"},
        compute_cs: {"tolerance": "tolerance", "max_iter": "max_iter"},
        verify_cs: {"sample_count": "sample_count", "horizon": "horizon", "seed": "seed",
                    "attraction_tol": "attraction_tol"},
        VerificationReport.passed: {"fixed_point_max": "fixed_point_max",
                                    "invariance_max": "invariance_max",
                                    "attraction_min": "attraction_min"},
    }
    for fn, fields in fed.items():
        library = defaults(fn)
        assert {p: library[p] for p in fields} == {p: getattr(cfg, f) for p, f in fields.items()}
