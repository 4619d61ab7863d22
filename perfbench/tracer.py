"""Outside-in tracer for the `csimplex` package.

`Tracer` wraps the public functions of each package module (the layers) and
installs every wrapper on every loaded `csimplex` module that binds the
original function's name, so calls made through `from .maps import eval_F`
style imports are seen too. Each call records a span (function, parent span,
start, end) in flat arrays; inclusive and self times are derived from the
spans afterwards. A few functions also carry an observer that reads their
arguments or result to count work (points evaluated, pairs solved, bytes
written). Wrapper and observer costs land in the caller's self time; the
benchmark reports their sum as the tracing overhead. `uninstall` puts every
original object back.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("maps", "assumptions", "geometry", "transform", "simplex", "io", "cli")

# Image cells with |det| below this are skipped by transform.resample.
DEGENERATE_VOLUME = 1e-14


def package_modules() -> dict:
    """Every loaded module of the `csimplex` package, by name."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "csimplex" or name.startswith("csimplex."))
    }


def snapshot() -> dict:
    """Identity of every attribute of every loaded package module."""
    return {
        name: {attr: id(val) for attr, val in vars(mod).items()}
        for name, mod in package_modules().items()
    }


def layer_functions() -> list:
    """(layer, name, function) for each public function defined in a layer module."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"csimplex.{layer}"]
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((layer, name, fn))
    return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _obs_eval_F(c, args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    size = x.size if type(x) is np.ndarray else np.size(x)
    c["maps.eval_F.points"] += size // _arg(args, kwargs, 0, "kmap").dim


def _obs_scan(c, args, kwargs, result):
    c["assumptions.scan_points"] += _arg(args, kwargs, 2, "resolution") ** args[0].dim


def _obs_pushforward(c, args, kwargs, result):
    c["transform.refined_cells"] += len(result.refined_cells)


def _obs_resample(c, args, kwargs, result):
    cloud = _arg(args, kwargs, 0, "cloud")
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None) or cloud.grid
    cells = cloud.grid.cells
    if grid.dim > 1 and cells.shape[0]:
        dets = np.linalg.det(np.swapaxes(cloud.directions[cells], 1, 2))
        usable = int(np.count_nonzero(np.abs(dets) >= DEGENERATE_VOLUME))
        # a refined cell is solved as its d sub-cells in place of itself
        usable += len(cloud.refined_cells) * (grid.dim - 1)
    else:
        usable = 1
    pairs = grid.n_vertices * usable
    c["transform.resample.targets"] += grid.n_vertices
    c["transform.resample.pairs"] += pairs
    alpha_mb = pairs * grid.dim * 8 / 1e6
    c["transform.resample.alpha_mb"] = max(c["transform.resample.alpha_mb"], alpha_mb)


def _obs_hausdorff(c, args, kwargs, result):
    a = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "a")))
    b = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "b")))
    c["geometry.hausdorff_points.pairs"] += a.shape[0] * b.shape[0]


def _obs_compute(c, args, kwargs, result):
    c["simplex.iterations"] += result.iterations


def _obs_attraction(c, args, kwargs, result):
    failures, done = result
    c["simplex.attraction.tested"] += done
    c["simplex.attraction.attracted"] += done - failures


def _obs_retrotone(c, args, kwargs, result):
    c["simplex.retrotone.draws"] += _arg(args, kwargs, 2, "sample_count")
    c["simplex.retrotone.ordered"] += result[1]


def _obs_write(c, args, kwargs, result):
    c["io.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


OBSERVERS = {
    ("maps", "eval_F"): _obs_eval_F,
    ("assumptions", "check_as3"): _obs_scan,
    ("assumptions", "check_as4"): _obs_scan,
    ("transform", "pushforward"): _obs_pushforward,
    ("transform", "resample"): _obs_resample,
    ("geometry", "hausdorff_points"): _obs_hausdorff,
    ("simplex", "compute_cs"): _obs_compute,
    ("simplex", "attraction_battery"): _obs_attraction,
    ("simplex", "retrotone_battery"): _obs_retrotone,
    ("io", "atomic_write_text"): _obs_write,
}


class Tracer:
    """Span recorder installed around the package's public functions."""

    def __init__(self):
        self.names: list[str] = []  # "layer.function", indexed by function id
        self.layer_of: list[int] = []
        self.fids = array("i")
        self.parents = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._installed: list = []  # (module, attribute, original)

    def _wrap(self, fid: int, fn, observer):
        fids, parents, t0, t1, stack = self.fids, self.parents, self.t0, self.t1, self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            t1.append(0.0)
            stack.append(i)
            t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = perf_counter()
                stack.pop()
            if observer is not None:
                observer(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, name, fn in layer_functions():
            fid = len(self.names)
            self.names.append(f"{layer}.{name}")
            self.layer_of.append(LAYERS.index(layer))
            wrappers[id(fn)] = (fn, self._wrap(fid, fn, OBSERVERS.get((layer, name))))
        for mod in package_modules().values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (fid, parent, t0, t1)."""
        return {
            "fid": np.frombuffer(self.fids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-function calls, inclusive and self time; per-layer self time.

        Self time of a span is its duration minus the durations of its direct
        child spans. A layer's inclusive time sums the spans entered from
        another layer (or from outside the package).
        """
        sp = self.spans()
        fid, parent = sp["fid"], sp["parent"]
        dur = sp["t1"] - sp["t0"]
        n_fn = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=fid.size)
        self_t = dur - child
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        span_layer = layer_of[fid] if fid.size else np.empty(0, dtype=np.int64)
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        entry = span_layer != parent_layer
        functions = {}
        calls = np.bincount(fid, minlength=n_fn)
        incl = np.bincount(fid, weights=dur, minlength=n_fn)
        selfs = np.bincount(fid, weights=self_t, minlength=n_fn)
        for k, name in enumerate(self.names):
            if calls[k]:
                functions[name] = {
                    "calls": int(calls[k]),
                    "s": float(incl[k]),
                    "self_s": float(selfs[k]),
                }
        layers = {}
        lay_self = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))
        lay_incl = np.bincount(span_layer[entry], weights=dur[entry], minlength=len(LAYERS))
        for k, layer in enumerate(LAYERS):
            layers[layer] = {"s": float(lay_incl[k]), "self_s": float(lay_self[k])}
        return {
            "spans": int(fid.size),
            "functions": functions,
            "layers": layers,
            "counts": dict(self.counts),
            "parent_calls": self._parent_calls(fid, parent),
        }

    def _parent_calls(self, fid, parent) -> dict:
        """Calls of each function split by the function of the calling span."""
        if not fid.size:
            return {}
        pf = np.where(parent >= 0, fid[np.maximum(parent, 0)], -1)
        pairs, n = np.unique(np.stack([fid, pf]), axis=1, return_counts=True)
        return {
            f"{self.names[f]}<{self.names[p] if p >= 0 else '-'}": int(k)
            for (f, p), k in zip(pairs.T, n)
        }
