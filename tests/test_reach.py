"""Every function of the package is reached by a command, or has a stated reason not to be.

The commands run in-process under sys.setprofile, which records the code object of
every Python call. Each function defined in the package's source, found with ast,
must be among them unless ALLOWED names it.
"""
import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import csimplex
from csimplex.cli import build_parser, main
from csimplex.geometry import RadialManifold, make_grid
from csimplex.io import save_manifold_csv

ALLOWED = {
    # kept API and oracles that no command calls
    "simplex.gamma_membership": "membership in [0, 1] * Sigma, an acceptance criterion",
    "assumptions.jury_condition_ricker2d": "closed-form spectral oracle for ricker2d",
    "maps.fd_jacobian": "Jacobian of a map without df, and the oracle of the analytic ones",
}

TINY = {"grid": {"resolution": 4}, "solver": {"check_resolution": 8},
        "verify": {"sample_count": 20, "horizon": 200}}
MAPS = {  # name: (params, dimension)
    "beverton_holt": ({}, 1),
    "atkinson_allen": ({"lam": 0.5}, 1),
    "ricker1d": ({"lam": 0.5}, 1),
    "ricker2d": ({"r": 0.5, "s": 0.5, "a": 0.5, "b": 0.5}, 2),
    "leslie_gower": ({}, 2),
}
# the d=3 run: export-iterates dumps every iterate, and verify's order check and
# batteries run on a three-species surface
LG3 = {"map": {"name": "leslie_gower", "params": {
           "r": [1.0] * 3, "A": [[1.0 if i == j else 0.3 for j in range(3)] for i in range(3)]}},
       "grid": {"resolution": 48}, "verify": {"sample_count": 100}}


def defined_functions() -> dict:
    """(file, first line) -> module-qualified name of each function in the package source."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):  # a decorated code object starts at its decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = name
            visit(child, path, name)

    for path in sorted(Path(csimplex.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return out


def run_commands(tmp_path) -> set:
    """(file, first line) of every code object called while the commands run."""
    runs = [({"map": {"name": name, "params": params}, **TINY},
             [["check"], ["compute"], ["verify"], ["simulate", "--x0", ",".join(["0.3"] * dim)]], 0)
            for name, (params, dim) in MAPS.items()]
    runs.append((LG3, [["export-iterates"], ["verify"]], 0))
    runs.append(({"map": {"name": "ricker2d"}, "grid": {"resolution": 1}}, [["check"]], 2))
    # a point where ricker1d's per-capita rate underflows to 0: the map's error helper names it
    runs.append((runs[2][0], [["simulate", "--x0", "1e4"]], 3))
    # a spectral check that fails in the one box kappa_max = 0 allows: the kappa search's
    # error carries that box's scan to the report
    runs.append(({**TINY, "map": {"name": "ricker1d", "params": {"lam": 1.5}}, "grid": {"resolution": 5},
                  "solver": {"kappa_max": 0.0, "check_resolution": 8}}, [["check"]], 1))
    # the exact surface 1/max(u) of a decoupled map: only rounding moves its box-face facet
    # normals off zero, so verify's order check solves those cells exactly
    grid = make_grid(2, 6)
    exact = tmp_path / "decoupled-exact.csv"
    save_manifold_csv(str(exact), RadialManifold(grid, 1.0 / grid.vertices.max(axis=1)))
    decoupled = {"name": "leslie_gower", "params": {"r": [1.0, 1.0], "A": [[1.0, 0.0], [0.0, 1.0]]}}
    runs.append(({**TINY, "map": decoupled, "grid": {"resolution": 6}}, [["verify", "--sigma", str(exact)]], 0))
    called = set()
    build_parser.cache_clear()  # the parser is built once per process, as a fresh CLI run builds it

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for cfg, commands, code in runs:
            path = tmp_path / f"{cfg['map']['name']}-{cfg['grid']['resolution']}.json"
            path.write_text(json.dumps({**cfg, "output": str(path.with_suffix(""))}))
            for command in commands:
                sys.setprofile(profile)
                try:
                    got = main([command[0], "--config", str(path), *command[1:]])
                finally:
                    sys.setprofile(None)
                assert got == code, (cfg["map"], command)
    return called


def test_every_package_function_is_reached(tmp_path):
    defined = defined_functions()
    assert set(ALLOWED) <= set(defined.values())
    called = run_commands(tmp_path)
    missed = sorted(name for key, name in defined.items() if key not in called)
    unreached = [name for name in missed if name not in ALLOWED]
    assert not unreached, f"no command reaches {', '.join(unreached)}"
    assert missed == sorted(ALLOWED), "an allowed function is now reached; drop it from ALLOWED"
