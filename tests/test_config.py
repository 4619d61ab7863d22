import inspect
import json
import re
from dataclasses import replace
from pathlib import Path

from csimplex.assumptions import run_assumption_checks
from csimplex.io import SCHEMA, RunConfig, load_config
from csimplex.simplex import compute_cs, verify_cs

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


def test_readme_config_table_lists_the_schema():
    table = re.search(r"^\| section \| key \|.*?\n\n", README.read_text(), re.S | re.M).group(0)
    rows = re.findall(r"^\| (?:`(\w+)`|root) \| `(\w+)` \|", table, re.M)
    assert rows == [(section, key) for section, key, *_ in SCHEMA]


def test_readme_library_use_runs():
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_echo_loads_back_to_an_equal_config(tmp_path):
    cfg = RunConfig("leslie_gower", {"r": [1.0, 1.0], "A": [[1.0, 0.3], [0.3, 1.0]]},
                    resolution=24, tolerance=1e-8, check_resolution=12, seed=5,
                    kappa_max=0.5, output=str(tmp_path / "out"))
    for check_resolution in (12, None):  # null stands for the default None
        cfg = replace(cfg, check_resolution=check_resolution)
        path = tmp_path / "echo.json"
        path.write_text(json.dumps({**cfg.echo(), "output": cfg.output}))
        assert load_config(str(path)) == cfg


def test_nulls_integral_floats_and_ints_load_as_typed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"map": {"name": "beverton_holt", "params": None},
                                "grid": {"resolution": 16.0}, "solver": {"kappa_max": 2},
                                "verify": None}))
    cfg = load_config(str(path))
    assert cfg == RunConfig("beverton_holt", resolution=16, kappa_max=2.0)
    assert type(cfg.resolution) is int and type(cfg.kappa_max) is float


def test_run_config_defaults_match_the_library():
    cfg = RunConfig("beverton_holt")
    assert cfg.map_params == {}
    fed = {  # library parameter -> RunConfig field, as the command line passes them
        run_assumption_checks: {"resolution": "check_resolution", "kappa_max": "kappa_max"},
        compute_cs: {"tolerance": "tolerance", "max_iter": "max_iter"},
        verify_cs: {"sample_count": "sample_count", "horizon": "horizon", "seed": "seed"},
    }
    for fn, fields in fed.items():
        library = defaults(fn)
        assert {p: library[p] for p in fields} == {p: getattr(cfg, f) for p, f in fields.items()}
