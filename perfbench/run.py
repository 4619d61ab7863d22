#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `csimplex check`, `compute` and `verify`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planar-verify --seed 0 --seconds 20 --trace 0

The benchmark imports the package from `src/` of the checkout, writes the
workload's configuration generated from `--seed`, and drives the real CLI
entry point `csimplex.cli.main([...])` in-process. One repeat runs `check`,
`compute` and `verify` once each into a fresh output directory. Two repeats
always run, so that the outputs of two runs with the same seed can be
compared byte for byte. The rest of `--seconds` is filled with single
commands, each time the one with the fewest samples that still fits, so
that every command's median rests on as many samples as the budget allows.
What fits is judged from each workload's nominal command times, not from the
run's own, so the operations a run attempts depend only on its arguments.

`--trace 0` times the repeats untraced and reports the end-to-end metrics.
`--trace 1` runs one untraced repeat and two traced ones; the tracer in
`tracer.py` wraps the package's public functions from outside and reports
per-layer counts, inclusive and self times, and the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. Outputs,
CLI logs and the full run record go to `perfbench/out/`.
"""
import os

# Pin the BLAS to one thread before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer, package_modules, snapshot  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("check", "compute", "verify")
DETERMINISTIC_OUTPUTS = {
    "sigma.csv": "compute",
    "convergence.json": "compute",
    "verification.json": "verify",
}
MIN_REPEATS = 2
# A command that takes under `share` of a whole repeat gets at least `samples`
# samples even past the time budget: a short command's median is the noisiest,
# and more samples of it cost little. (share, samples), shortest first.
SHORT_SAMPLES = ((0.05, 9), (0.15, 5))
SETUP_REPEATS = 40

# The host's speed drifts by up to 2x over minutes and by tens of percent
# within a command (see NOTES.md), which no number of repeats averages out.
# While a command runs, an interval timer interrupts it every
# PROBE_INTERVAL_S to time a fixed probe that never touches csimplex. Each
# command's time, less the probes', is divided by the median probe time during
# it over PROBE_REF_S: it is reported in seconds at the host speed where the
# probe takes PROBE_REF_S.
PROBE_INTERVAL_S = 0.025
PROBE_REF_S = 3e-4
MIN_PROBES = 5  # a sample with fewer probes uses the median over all its metric's samples

# (name, unit): printed on every workload and in the JSON of `--trace 0`.
END_TO_END = (
    ("setup_s", "s"),
    ("check_s", "s"),
    ("compute_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("certified_error", "radial"),
)
# Printed only: oracle_error exists on the oracle workload alone, and fail_rate
# is 0 on healthy workloads; the JSON carries it as `failed` / `attempted`.
REPORTED_ONLY = (("oracle_error", "radial"), ("fail_rate", "ratio"))

# (name, unit): the JSON of `--trace 1`. A unit of "s" marks a time; every
# other metric is a count or a ratio of counts and must repeat exactly.
PER_LAYER = (
    ("maps.eval_F.calls", "count"),
    ("maps.eval_F.points", "count"),
    ("maps.points_per_call", "points/call"),
    ("maps.eval_Z.calls", "count"),
    ("maps.eval_f.calls", "count"),
    ("maps.eval_df.calls", "count"),
    ("maps.eval_F.s", "s"),
    ("maps.eval_Z.s", "s"),
    ("maps.self_s", "s"),
    ("assumptions.runs", "count"),
    ("assumptions.check_as4.calls", "count"),
    ("assumptions.check_as4.s", "s"),
    ("assumptions.scan_points", "count"),
    ("assumptions.check_as3.s", "s"),
    ("assumptions.find_epsilon.s", "s"),
    ("assumptions.kappa_accept_ratio", "ratio"),
    ("assumptions.self_s", "s"),
    ("transform.pushforward.calls", "count"),
    ("transform.pushforward.s", "s"),
    ("transform.resample.calls", "count"),
    ("transform.resample.s", "s"),
    ("transform.resample.pairs", "count"),
    ("transform.resample.useful_ratio", "ratio"),
    ("transform.resample.alpha_mb", "MB"),
    ("transform.refined_cells", "count"),
    ("transform.self_s", "s"),
    ("geometry.hausdorff_points.calls", "count"),
    ("geometry.hausdorff_points.s", "s"),
    ("geometry.hausdorff_points.pairs", "count"),
    ("geometry.lipschitz_estimate.s", "s"),
    ("geometry.is_weakly_unordered.s", "s"),
    ("geometry.radius_at.calls", "count"),
    ("geometry.make_grid.s", "s"),
    ("geometry.self_s", "s"),
    ("simplex.iterations", "count"),
    ("simplex.iter_s", "s"),
    ("simplex.graph_step.calls", "count"),
    ("simplex.attraction_battery.s", "s"),
    ("simplex.attraction.accept_ratio", "ratio"),
    ("simplex.harnack_battery.s", "s"),
    ("simplex.retrotone_battery.s", "s"),
    ("simplex.retrotone.ordered_ratio", "ratio"),
    ("simplex.verify_other_s", "s"),
    ("simplex.self_s", "s"),
    ("io.write_s", "s"),
    ("io.load_s", "s"),
    ("io.bytes_written", "bytes"),
    ("io.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def environment() -> dict:
    """Interpreter, numpy and BLAS versions and the processors this process may use."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def probe() -> None:
    """The fixed probe: a Python integer loop.

    It touches no memory beyond a few objects, so the program's own use of the
    caches, which a change to csimplex may alter, barely reaches it.
    """
    acc = 0
    for i in range(5_000):
        acc += i * i


class SpeedProbe:
    """Times `probe()` from SIGALRM every PROBE_INTERVAL_S while active.

    `timed(fn)` returns fn's wall time less the probes run inside it, and the
    probe times of that interval.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.log = []  # (start, duration) of every probe run

    def _handler(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.log.append((t0, perf_counter() - t0))

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        first = len(self.log)
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = perf_counter()
        try:
            fn()
        finally:
            if self.active:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
        probes = [d for start, d in self.log[first:] if t0 <= start < t1]
        return t1 - t0 - sum(probes), probes


def corrected(samples: list) -> float:
    """Median of (net time, probe times) samples in seconds at the reference speed.

    A sample with under MIN_PROBES probes is scaled by the median probe time of
    all the samples; with no probes at all (an inactive SpeedProbe) this is the
    plain median.
    """
    pooled = [d for _, probes in samples for d in probes]
    fallback = statistics.median(pooled) if pooled else PROBE_REF_S
    return statistics.median(
        net * PROBE_REF_S / (statistics.median(p) if len(p) >= MIN_PROBES else fallback)
        for net, p in samples
    )


def import_package():
    """Import `csimplex` afresh from the checkout's `src/` and return its CLI module."""
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("csimplex")
    cli = importlib.import_module("csimplex.cli")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"csimplex was imported from {origin}, not from the checkout")
    return pkg, cli


def measure_setup(wl, seed: int, work: Path, tiny: bool, speed: SpeedProbe):
    """Time import + config generation + make_map + make_grid.

    Returns the (net time, probe times) of each set-up and the CLI module.
    """
    samples = []
    loaded = {}

    def setup(k):
        pkg, loaded["cli"] = import_package()
        cfg = wl.config(seed, str(work / "setup"), tiny)
        (work / f"setup-{k}.json").write_text(json.dumps(cfg))
        kmap = pkg.make_map(cfg["map"]["name"], cfg["map"]["params"])
        pkg.make_grid(kmap.dim, cfg["grid"]["resolution"])

    for k in range(SETUP_REPEATS):
        samples.append(speed.timed(lambda: setup(k)))
    return samples, loaded["cli"]


def plan(wl, seconds: float) -> dict:
    """Samples of each command that fit `seconds` at the workload's nominal command times.

    The plan is a function of the workload and `seconds` alone, so every run
    with the same arguments attempts the same operations, whatever the host's
    speed. `MIN_REPEATS` full repeats always run; the rest of the budget goes,
    one sample at a time, to the command with the fewest samples that still
    fits.
    """
    nominal = wl.nominal_s
    repeat_s = sum(nominal.values())
    least = {
        cmd: next((n for share, n in SHORT_SAMPLES if nominal[cmd] < share * repeat_s),
                  MIN_REPEATS)
        for cmd in COMMANDS
    }
    counts = dict.fromkeys(COMMANDS, MIN_REPEATS)
    left = seconds - MIN_REPEATS * repeat_s
    while True:
        fits = [cmd for cmd in COMMANDS if nominal[cmd] <= left or counts[cmd] < least[cmd]]
        if not fits:
            return counts
        cmd = min(fits, key=lambda c: counts[c])
        counts[cmd] += 1
        left -= nominal[cmd]


def extra_samples(counts: dict) -> list:
    """The single commands to run after the full repeats, interleaved over the run."""
    done = dict.fromkeys(COMMANDS, MIN_REPEATS)
    order = []
    while True:
        todo = [cmd for cmd in COMMANDS if done[cmd] < counts[cmd]]
        if not todo:
            return order
        cmd = min(todo, key=lambda c: done[c])
        done[cmd] += 1
        order.append(cmd)


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_repeat(cli, wl, seed: int, out: Path, tiny: bool, speed: SpeedProbe,
               commands=COMMANDS, sigma: Path | None = None) -> dict:
    """Run `commands` once each into `out`, timed by `speed`, and check what they wrote.

    `sigma`, when given, is copied in first as the surface `verify` checks.
    """
    result = out / "result"
    result.mkdir(parents=True)
    if sigma is not None:
        shutil.copy(sigma, result / "sigma.csv")
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(wl.config(seed, str(result), tiny)))
    rep = {"name": out.name, "times": {}, "net": {}, "probes": {}, "codes": {},
           "failures": {}, "total_s": 0.0}
    log = io.StringIO()
    for cmd in commands:
        def call():
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rep["codes"][cmd] = cli.main([cmd, "--config", str(cfg_path)])
            except Exception as exc:  # a crash is a failed operation, reported below
                rep["codes"][cmd] = None
                rep["failures"].setdefault(cmd, []).append(f"raised {exc!r}")

        net, probes = speed.timed(call)
        rep["times"][cmd] = net + sum(probes)
        rep["net"][cmd] = net
        rep["probes"][cmd] = probes
        rep["total_s"] += rep["times"][cmd]
        if rep["codes"][cmd] not in (0, None):
            rep["failures"].setdefault(cmd, []).append(f"exit {rep['codes'][cmd]}")
    (out / "cli.log").write_text(log.getvalue())
    rep["digests"] = {
        name: _digest(result / name)
        for name, cmd in DETERMINISTIC_OUTPUTS.items() if cmd in commands
    }
    if "compute" not in commands:
        return rep

    conv_path = result / "convergence.json"
    rep["certified_error"] = None
    rep["oracle_error"] = None
    if conv_path.is_file():
        conv = json.loads(conv_path.read_text())
        rep["certified_error"] = conv["certified_error"]
        for key, want in (("termination", "converged"), ("monotone_ok", True),
                          ("gap_monotone_ok", True)):
            if conv.get(key) != want:
                rep["failures"].setdefault("compute", []).append(f"{key} = {conv.get(key)!r}")
    else:
        rep["failures"].setdefault("compute", []).append("no convergence.json")
    sigma_path = result / "sigma.csv"
    if wl.oracle is not None and sigma_path.is_file():
        data = np.loadtxt(sigma_path, delimiter=",", skiprows=1, ndmin=2)
        rep["oracle_error"] = float(np.max(np.abs(data[:, -1] - wl.oracle(data[:, :-1]))))
        if rep["certified_error"] is not None and rep["oracle_error"] > rep["certified_error"]:
            rep["failures"].setdefault("compute", []).append(
                f"oracle_error {rep['oracle_error']:.6g} > certified_error "
                f"{rep['certified_error']:.6g}: the certificate is not a bound"
            )
    return rep


def compare_outputs(reps: list) -> None:
    """Mark an operation failed when its output differs from the first repeat's."""
    first = reps[0]["digests"]
    for rep in reps[1:]:
        for name, digest in rep["digests"].items():
            cmd = DETERMINISTIC_OUTPUTS[name]
            if digest != first[name]:
                rep["failures"].setdefault(cmd, []).append(
                    f"{name} is not byte-identical to the first repeat's"
                )


def tally(reps: list) -> tuple[int, int, bool, list]:
    """(attempted, failed, correct, failure lines) over every operation run.

    An operation fails when it raises, exits non-zero, leaves an unconverged or
    non-monotone convergence record, certifies less than the oracle error, or
    writes output that differs between repeats with the same seed. The outputs
    are still correct when the only failures are `verify` exiting 1: that is
    the program's own verdict that a verification target was missed.
    """
    attempted = failed = 0
    correct = True
    lines = []
    for rep in reps:
        for cmd in rep["times"]:
            attempted += 1
            reasons = rep["failures"].get(cmd)
            if not reasons:
                continue
            failed += 1
            lines.append(f"{rep['name']} {cmd}: " + "; ".join(reasons))
            if cmd != "verify" or reasons != ["exit 1"]:
                correct = False
    return attempted, failed, correct, lines


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced repeat, from the tracer's summary."""
    fn = summary["functions"]
    counts = summary["counts"]
    layers = summary["layers"]
    callers = summary["parent_calls"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def secs(*names):
        return sum(fn.get(name, {}).get("s", 0.0) for name in names)

    batteries = ("simplex.attraction_battery", "simplex.harnack_battery",
                 "simplex.retrotone_battery")
    points = counts.get("maps.eval_F.points", 0)
    iterations = counts.get("simplex.iterations", 0)
    m = {
        "maps.eval_F.calls": calls("maps.eval_F"),
        "maps.eval_F.points": points,
        "maps.points_per_call": _ratio(points, calls("maps.eval_F")),
        "maps.eval_Z.calls": calls("maps.eval_Z"),
        "maps.eval_f.calls": calls("maps.eval_f"),
        "maps.eval_df.calls": calls("maps.eval_df"),
        "maps.eval_F.s": secs("maps.eval_F"),
        "maps.eval_Z.s": secs("maps.eval_Z"),
        "assumptions.runs": calls("assumptions.run_assumption_checks"),
        "assumptions.check_as4.calls": calls("assumptions.check_as4"),
        "assumptions.check_as4.s": secs("assumptions.check_as4"),
        "assumptions.scan_points": counts.get("assumptions.scan_points", 0),
        "assumptions.check_as3.s": secs("assumptions.check_as3"),
        "assumptions.find_epsilon.s": secs("assumptions.find_epsilon"),
        "assumptions.kappa_accept_ratio": _ratio(
            calls("assumptions.find_kappa"),
            callers.get("assumptions.check_as4<assumptions.find_kappa", 0),
        ),
        "transform.pushforward.calls": calls("transform.pushforward"),
        "transform.pushforward.s": secs("transform.pushforward"),
        "transform.resample.calls": calls("transform.resample"),
        "transform.resample.s": secs("transform.resample"),
        "transform.resample.pairs": counts.get("transform.resample.pairs", 0),
        "transform.resample.useful_ratio": _ratio(
            counts.get("transform.resample.targets", 0),
            counts.get("transform.resample.pairs", 0),
        ),
        "transform.resample.alpha_mb": counts.get("transform.resample.alpha_mb", 0.0),
        "transform.refined_cells": counts.get("transform.refined_cells", 0),
        "geometry.hausdorff_points.calls": calls("geometry.hausdorff_points"),
        "geometry.hausdorff_points.s": secs("geometry.hausdorff_points"),
        "geometry.hausdorff_points.pairs": counts.get("geometry.hausdorff_points.pairs", 0),
        "geometry.lipschitz_estimate.s": secs("geometry.lipschitz_estimate"),
        "geometry.is_weakly_unordered.s": secs("geometry.is_weakly_unordered"),
        "geometry.radius_at.calls": calls("geometry.radius_at"),
        "geometry.make_grid.s": secs("geometry.make_grid"),
        "simplex.iterations": iterations,
        "simplex.iter_s": _ratio(secs("simplex.compute_cs"), iterations),
        "simplex.graph_step.calls": calls("transform.graph_step"),
        "simplex.attraction_battery.s": secs("simplex.attraction_battery"),
        "simplex.attraction.accept_ratio": _ratio(
            counts.get("simplex.attraction.attracted", 0),
            counts.get("simplex.attraction.tested", 0),
        ),
        "simplex.harnack_battery.s": secs("simplex.harnack_battery"),
        "simplex.retrotone_battery.s": secs("simplex.retrotone_battery"),
        "simplex.retrotone.ordered_ratio": _ratio(
            counts.get("simplex.retrotone.ordered", 0),
            counts.get("simplex.retrotone.draws", 0),
        ),
        "simplex.verify_other_s": secs("simplex.verify_cs") - secs(*batteries),
        "io.write_s": secs("io.write_json", "io.save_manifold_csv", "io.save_trajectory_csv"),
        "io.load_s": secs("io.load_config", "io.load_manifold_csv"),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "trace.spans": summary["spans"],
    }
    for layer, vals in layers.items():
        m[f"{layer}.self_s"] = vals["self_s"]
    return m


def _fmt(value, unit: str) -> str:
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.6g} {unit}"


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    if not (SRC / "csimplex" / "__init__.py").is_file():
        raise BenchError(f"no csimplex package under {SRC}; run from the root of a checkout")
    work = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(SRC))

    env = environment()
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}"
          f"{', tiny' if args.tiny else ''}")
    print("# env " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for reason in wl.reasons:
        print(f"# why: {reason}")

    # Traced runs are timed plainly: a probe inside a traced function would land
    # in that function's self time.
    with SpeedProbe(active=not args.trace) as speed:
        setup, cli = measure_setup(wl, args.seed, work, args.tiny, speed)
        # warm lazy imports and first-call paths so the first timed repeat is not special
        run_repeat(cli, wl, args.seed, work / "warmup", True, speed)
        reps = []
        traced = []
        if args.trace:
            reps.append(run_repeat(cli, wl, args.seed, work / "rep0", args.tiny, speed))
            for k in (1, 2):
                before = snapshot()
                with Tracer() as tracer:
                    reps.append(run_repeat(cli, wl, args.seed, work / f"rep{k}", args.tiny,
                                           speed))
                if snapshot() != before:
                    raise BenchError("the tracer did not restore the csimplex modules")
                traced.append(tracer)
            timed = reps[:1]
        else:
            for k in range(MIN_REPEATS):
                reps.append(run_repeat(cli, wl, args.seed, work / f"rep{k}", args.tiny, speed))
            done = dict.fromkeys(COMMANDS, MIN_REPEATS)
            for cmd in extra_samples(plan(wl, args.seconds)):
                sigma = work / "rep0" / "result" / "sigma.csv" if cmd == "verify" else None
                reps.append(run_repeat(cli, wl, args.seed, work / f"{cmd}{done[cmd]}",
                                       args.tiny, speed, commands=(cmd,), sigma=sigma))
                done[cmd] += 1
            timed = reps
    compare_outputs(reps)
    attempted, failed, correct, failure_lines = tally(reps)

    samples = {
        "setup_s": setup,
        **{f"{cmd}_s": [(r["net"][cmd], r["probes"][cmd]) for r in timed if cmd in r["net"]]
           for cmd in COMMANDS},
    }
    pooled = [d for s in samples.values() for _, probes in s for d in probes]
    wall = {name: statistics.median(net + sum(p) for net, p in s) for name, s in samples.items()}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "setup_s": setup, "plan": plan(wl, args.seconds)}
    e2e = {
        **{name: corrected(s) for name, s in samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "certified_error": reps[0]["certified_error"],
        "oracle_error": reps[0]["oracle_error"],
        "fail_rate": _ratio(failed, attempted),
    }
    probe_s = statistics.median(pooled) if pooled else None
    print("# samples " + ", ".join(f"{name} {len(v)}" for name, v in samples.items())
          + f"; {attempted} operations, {failed} failed")
    print((f"# {len(pooled)} probes, median {probe_s * 1e3:.4f} ms (reference"
           f" {PROBE_REF_S * 1e3:.4f} ms)" if pooled else "# not probed: times are plain")
          + "; wall medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in wall.items()))
    for name, unit in END_TO_END + REPORTED_ONLY:
        if e2e[name] is not None:
            print(f"{name} = {_fmt(e2e[name], unit)}")
    for line in failure_lines:
        print(f"# failed: {line}")
    if e2e["certified_error"] is None:
        correct = False

    record.update(e2e=e2e, wall=wall, probe_s=probe_s, repeats=reps,
                  attempted=attempted, failed=failed)
    if args.trace:
        per_rep = [layer_metrics(t.summary()) for t in traced]
        for name, unit in PER_LAYER:
            if unit != "s" and name in per_rep[0] and per_rep[0][name] != per_rep[1][name]:
                correct = False
                print(f"# count {name} differs between traced repeats: "
                      f"{per_rep[0][name]} vs {per_rep[1][name]}")
        traced_total = statistics.median(r["total_s"] for r in reps[1:])
        layer = {
            name: (statistics.median(m[name] for m in per_rep) if unit == "s"
                   else per_rep[0][name])
            for name, unit in PER_LAYER if name != "trace.overhead_s"
        }
        layer["trace.overhead_s"] = traced_total - reps[0]["total_s"]
        print(f"# tracing overhead: traced {traced_total:.4f} s - untraced "
              f"{reps[0]['total_s']:.4f} s = {layer['trace.overhead_s']:.4f} s")
        summary = traced[0].summary()
        print("# layer        entered_s    self_s")
        for name, vals in summary["layers"].items():
            print(f"# {name:<12} {vals['s']:9.4f} {vals['self_s']:9.4f}")
        for name, unit in PER_LAYER:
            print(f"{name} = {_fmt(layer[name], unit)}")
        np.savez(work / "spans.npz", names=np.array(traced[0].names), **traced[0].spans())
        record.update(per_layer=layer, trace_summary=summary)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    record["correct"] = correct
    (work / "record.json").write_text(json.dumps(record, indent=1, default=str))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the repeats; at least two always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds (used by selftest.py)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
