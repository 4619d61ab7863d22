import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from csimplex.cli import main
from csimplex.geometry import make_grid, constant_manifold
from csimplex.io import load_manifold_csv, save_manifold_csv


LG3 = {"name": "leslie_gower",
       "params": {"r": [1.0, 1.0, 1.0], "A": [[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]]}}


def write_config(path, **overrides):
    cfg = {
        "map": {"name": "ricker2d", "params": {"r": 0.5, "s": 0.5, "a": 0.5, "b": 0.5}},
        "grid": {"resolution": 16},
        "solver": {"tolerance": 1e-6, "max_iter": 10000, "kappa_max": 1.0,
                   "check_resolution": 24},
        "verify": {"sample_count": 200, "horizon": 60, "seed": 7},
        "output": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return cfg


def test_check_beverton_holt(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "beverton_holt", "params": {}},
                 solver={"check_resolution": 64})
    assert main(["check", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "assumptions.json").read_text())
    assert report["passed"] is True
    assert report["as3_mode"] == "strict"
    assert report["kappa"] == 1.0


def test_check_decoupled_weak(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "ricker2d",
                                "params": {"r": 0.5, "s": 0.5, "a": 0.0, "b": 0.0}})
    assert main(["check", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "out" / "assumptions.json").read_text())
    assert report["as3_mode"] == "weak"


def test_check_rejects_steep_ricker(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "ricker1d", "params": {"lam": 1.5}},
                 solver={"check_resolution": 64})
    assert main(["check", "--config", str(cfg_path)]) == 1
    report = json.loads((tmp_path / "out" / "assumptions.json").read_text())
    assert report["as4_ok"] is False
    assert report["as4_argmax"][0] <= 1.0


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["check", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    write_config(unknown, map={"name": "logistic", "params": {}})
    assert main(["check", "--config", str(unknown)]) == 2
    undersized = tmp_path / "undersized.json"
    write_config(undersized, grid={"resolution": 1})
    assert main(["compute", "--config", str(undersized)]) == 2
    wrong_dim = tmp_path / "wrong_dim.json"
    write_config(wrong_dim, map={"name": "ricker2d", "dim": 3,
                                 "params": {"r": 0.5, "s": 0.5, "a": 0.5, "b": 0.5}})
    assert main(["check", "--config", str(wrong_dim)]) == 2


@pytest.mark.parametrize("command,overrides,flags", [
    ("check", {"solver": {"check_resolution": 1}}, []),
    ("check", {"solver": {"check_resolution": -2}}, []),
    ("check", {"solver": {"kappa_max": -0.5}}, []),
    ("verify", {"verify": {"seed": -1}}, []),
    ("verify", {}, ["--seed", "-3"]),
    ("compute", {"grid": {"resolution": 16.7}}, []),
    ("verify", {"verify": {"seed": 1.9}}, []),
    ("check", {"grid": {"resolution": "abc"}}, []),
    ("check", {"grid": {"resolution": None}}, []),
    ("check", {"solver": {"max_iter": True}}, []),
    ("check", {"solver": {"tolerance": float("inf")}}, []),
    ("check", {"solver": {"kappa_max": float("nan")}}, []),
    ("check", {"map": {"name": 3, "params": {}}}, []),
    ("check", {"solvr": {"tolerance": 1e-9}}, []),
    ("check", {"solver": {"tolerence": 1e-9}}, []),
    ("check", {"outptu": "elsewhere"}, []),
    ("compute", {}, ["--tolerance", "nan"]),
    ("compute", {}, ["--tolerance", "inf"]),
    ("simulate", {}, ["--x0", "0.2,0.1", "--steps", "-5"]),
    # the verdicts' thresholds are constants: a config that would loosen one is refused
    ("check", {"map": {"name": "ricker1d", "params": {"lam": 1.5}},
               "solver": {"safety_margin": -1.0}}, []),
    ("verify", {"map": LG3, "grid": {"resolution": 32}, "verify": {"attraction_min": -1.0}}, []),
])
def test_bad_config_values_exit_2(tmp_path, capsys, command, overrides, flags):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **overrides)
    args = [command, "--config", str(cfg_path)] + flags
    if command in ("verify", "simulate"):  # both reach their work only with a surface to load
        sigma_path = tmp_path / "sigma.csv"
        save_manifold_csv(str(sigma_path), constant_manifold(make_grid(2, 16), 1.0))
        args += ["--sigma", str(sigma_path)]
    assert main(args) == 2
    assert f"config error: {named_key(overrides, flags)}" in capsys.readouterr().err


@pytest.mark.parametrize("name,params,bad", [
    ("ricker1d", {"lam": float("nan")}, "lam"),
    ("ricker2d", {"r": float("inf"), "s": 0.5, "a": 0.5, "b": 0.5}, "r"),
    ("leslie_gower", {"r": [1.0, 1.0], "A": [[1.0, float("inf")], [0.5, 1.0]]}, "A"),
])
def test_non_finite_map_parameters_exit_2(tmp_path, capsys, name, params, bad):
    # json writes NaN and Infinity, and Python's json reads them back
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": name, "params": params})
    assert main(["check", "--config", str(cfg_path)]) == 2
    assert f"config error: map parameter {bad} must be finite" in capsys.readouterr().err


def named_key(overrides, flags):
    """The key a bad value's error names: a flag's key, an unknown section, or section.key."""
    if flags:
        return {"--seed": "verify.seed", "--tolerance": "solver.tolerance",
                "--steps": "verify.horizon"}[flags[-2]]
    section, block = list(overrides.items())[-1]  # the bad key is the last override
    if section not in ("map", "grid", "solver", "verify"):
        return section
    return f"{section}.{next(iter(block))}"


def test_compute_verify_simulate_pipeline(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"

    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert (out / "sigma.csv").exists()
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["termination"] == "converged"
    assert conv["monotone_ok"] is True

    assert main(["verify", "--config", str(cfg_path)]) == 0
    ver = json.loads((out / "verification.json").read_text())
    assert ver["passed"] is True
    assert ver["unorder_violations"] == 0

    assert main(["simulate", "--config", str(cfg_path), "--x0", "0.2,0.1",
                 "--steps", "80"]) == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "n,x_1,x_2,dist"
    assert len(rows) == 82
    final_dist = float(rows[-1].rsplit(",", 1)[1])
    assert final_dist < 1e-3


def test_compute_is_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    sigma1 = (out / "sigma.csv").read_bytes()
    conv1 = (out / "convergence.json").read_bytes()
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert (out / "sigma.csv").read_bytes() == sigma1
    assert (out / "convergence.json").read_bytes() == conv1


def test_verify_is_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, verify={"sample_count": 50, "horizon": 80, "seed": 11})
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert main(["verify", "--config", str(cfg_path)]) == 0
    v1 = (out / "verification.json").read_bytes()
    assert main(["verify", "--config", str(cfg_path)]) == 0
    assert (out / "verification.json").read_bytes() == v1


def test_compute_one_species_single_row(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "beverton_holt", "params": {}},
                 solver={"tolerance": 1e-9, "check_resolution": 64})
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    rows = (out / "sigma.csv").read_text().strip().splitlines()
    assert rows[0] == "u_1,R"
    assert len(rows) == 2
    u, r = (float(v) for v in rows[1].split(","))
    assert u == 1.0
    assert abs(r - 1.0) < 1e-8


def test_compute_max_iter_exit_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, solver={"max_iter": 1, "check_resolution": 24})
    assert main(["compute", "--config", str(cfg_path)]) == 1
    conv = json.loads((tmp_path / "out" / "convergence.json").read_text())
    assert conv["termination"] == "max_iter"
    assert conv["iterations"] == 1


def test_verify_perturbed_sigma_fails(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    grid = make_grid(2, 16)
    sigma = load_manifold_csv(str(out / "sigma.csv"), grid)
    from csimplex.geometry import RadialManifold

    save_manifold_csv(str(out / "sigma.csv"),
                      RadialManifold(grid, sigma.radii * 1.05))
    assert main(["verify", "--config", str(cfg_path)]) == 1
    ver = json.loads((out / "verification.json").read_text())
    assert ver["invariance_defect"] > 0.01
    assert ver["passed"] is False


def test_verify_sigma_outside_the_box_exit_3(tmp_path, capsys):
    # the stored points themselves leave the trapping box [0, 1 + kappa]^2
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"resolution": 4})
    sigma = tmp_path / "sigma.csv"
    save_manifold_csv(str(sigma), constant_manifold(make_grid(2, 4), 3.0))
    assert main(["verify", "--config", str(cfg_path), "--sigma", str(sigma)]) == 3
    assert "leaves the box" in capsys.readouterr().err


def test_verify_vacuous_sampling_passes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, verify={"sample_count": 0, "horizon": 10, "seed": 0})
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert main(["verify", "--config", str(cfg_path)]) == 0
    ver = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert "harnack_samples" in ver["vacuous"]
    assert ver["harnack_samples"] is None


def test_verify_grid_mismatch_exit_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert main(["verify", "--config", str(cfg_path), "--resolution", "20"]) == 2


def test_simulate_zero_stays_zero(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--x0", "0,0",
                 "--steps", "5"]) == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        vals = [float(v) for v in row.split(",")]
        assert vals[1] == 0.0 and vals[2] == 0.0


def test_simulate_monotone_one_species(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "beverton_holt", "params": {}},
                 solver={"tolerance": 1e-9, "check_resolution": 64})
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--x0", "0.1",
                 "--steps", "60"]) == 0
    xs = [float(r.split(",")[1])
          for r in (out / "trajectory.csv").read_text().strip().splitlines()[1:]]
    moving = [i for i in range(len(xs) - 1) if abs(xs[i] - 1.0) > 1e-9]
    assert all(xs[i + 1] > xs[i] for i in moving)


def test_simulate_ricker_decreases_from_above(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "ricker1d", "params": {"lam": 0.5}},
                 solver={"tolerance": 1e-9, "check_resolution": 64})
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--x0", "1.5",
                 "--steps", "60"]) == 0
    xs = [float(r.split(",")[1])
          for r in (out / "trajectory.csv").read_text().strip().splitlines()[1:]]
    moving = [i for i in range(len(xs) - 1) if abs(xs[i] - 1.0) > 1e-9]
    assert all(xs[i + 1] < xs[i] for i in moving)


def test_verify_rejects_corrupt_sigma(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["compute", "--config", str(cfg_path)]) == 0
    sigma = out / "sigma.csv"
    lines = sigma.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",not_a_number"
    sigma.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("column,value,message", [
    (-1, "nan", "manifold row 3 has radius nan"),
    (-1, "inf", "manifold row 3 has radius inf"),
    (-1, "0", "manifold row 3 has radius 0.0"),
    (-1, "-0.5", "manifold row 3 has radius -0.5"),
    (0, "nan", "directions do not match"),
])
def test_bad_surface_file_values_exit_2(tmp_path, capsys, command, column, value, message):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"resolution": 4})
    sigma = tmp_path / "sigma.csv"
    save_manifold_csv(str(sigma), constant_manifold(make_grid(2, 4), 1.0))
    lines = sigma.read_text().splitlines()
    row = lines[3].split(",")
    row[column] = value
    lines[3] = ",".join(row)
    sigma.write_text("\n".join(lines) + "\n")
    extra = ["--x0", "0.2,0.1", "--steps", "5"] if command == "simulate" else []
    assert main([command, "--config", str(cfg_path), "--sigma", str(sigma)] + extra) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["-0.1,0.2", "nan,0.2", "inf,0.2"])
def test_simulate_start_off_the_orthant_exit_2(tmp_path, capsys, x0):
    # --x0 is input from outside the program: a config error, before any surface is read
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"resolution": 4})
    sigma = tmp_path / "sigma.csv"
    save_manifold_csv(str(sigma), constant_manifold(make_grid(2, 4), 1.0))
    assert main(["simulate", "--config", str(cfg_path), "--sigma", str(sigma),
                 f"--x0={x0}", "--steps", "5"]) == 2
    assert capsys.readouterr().err.startswith("config error: --x0")


def test_verify_header_only_sigma_exit_2_without_warning(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"resolution": 4})
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("u_1,u_2,R\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", str(cfg_path), "--sigma", str(sigma)]) == 2
    assert capsys.readouterr().err == "grid error: manifold has 0 rows, grid expects 5\n"


def test_export_iterates(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, grid={"resolution": 8})
    out = tmp_path / "out"
    assert main(["export-iterates", "--config", str(cfg_path)]) == 0
    files = sorted(os.listdir(out / "iterates"))
    lowers = [f for f in files if f.startswith("lower_")]
    uppers = [f for f in files if f.startswith("upper_")]
    assert lowers and uppers
    # dumped sequences replay the sandwich: lower radii grow, upper shrink
    grid = make_grid(2, 8)
    lo_a = load_manifold_csv(str(out / "iterates" / lowers[0]), grid)
    lo_b = load_manifold_csv(str(out / "iterates" / lowers[-1]), grid)
    up_a = load_manifold_csv(str(out / "iterates" / uppers[0]), grid)
    up_b = load_manifold_csv(str(out / "iterates" / uppers[-1]), grid)
    assert np.all(lo_b.radii >= lo_a.radii - 1e-12)
    assert np.all(up_b.radii <= up_a.radii + 1e-12)
    assert np.all(lo_b.radii <= up_b.radii)


def test_manifold_csv_round_trip(tmp_path):
    grid = make_grid(3, 7)
    rng = np.random.default_rng(2)
    from csimplex.geometry import RadialManifold

    manifold = RadialManifold(grid, 0.5 + rng.random(grid.n_vertices))
    path = tmp_path / "m.csv"
    save_manifold_csv(str(path), manifold)
    loaded = load_manifold_csv(str(path), grid)
    np.testing.assert_array_equal(loaded.radii, manifold.radii)


def test_out_env_var_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "beverton_holt", "params": {}},
                 solver={"check_resolution": 32})
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("CSIMPLEX_OUT", str(env_out))
    assert main(["check", "--config", str(cfg_path)]) == 0
    assert (env_out / "assumptions.json").exists()


def test_console_entry_point(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, map={"name": "beverton_holt", "params": {}},
                 solver={"check_resolution": 32})
    proc = subprocess.run(
        [sys.executable, "-m", "csimplex.cli", "check", "--config", str(cfg_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "kappa" in proc.stdout
