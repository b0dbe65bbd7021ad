"""Per-layer tracing of pgm from outside the package.

The tracer replaces each layer's functions by timing wrappers at every
module that holds a reference to them (``pgm``, ``pgm.cli``,
``pgm.partial``, ``pgm.completion``, ``pgm.means``, and the defining
modules themselves, so calls inside a module are seen too).  The layers
are the modules of ``src/pgm``:

    cli, pattern, partial, completion, linalg, means

A wrapper records a span (name, start, end, parent span, job id) in
flat arrays kept in memory; :meth:`Tracer.save` writes them at the end.
The root span of each job is the call of ``pgm.cli.main``.

The numpy and scipy dense kernels that pgm calls (``eigh``,
``eigvalsh``, ``scipy.linalg.eigh``, ``solve``, ``inv``, ``det``,
``slogdet``) are counted, not spanned: a span per kernel call would cost
more than many of the calls themselves.  Their time is the self time of
the layer that called them.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "pattern", "partial", "completion", "linalg", "means")
IMPORT_SITES = ("pgm", "pgm.cli", "pgm.partial", "pgm.completion", "pgm.means",
                "pgm.pattern", "pgm.linalg")
#: Private cli helpers that are wrapped so that cli time splits into
#: computing the sweep table and formatting text.
CLI_HELPERS = ("_sweep_table", "_human_matrix")
CLI_FORMAT = ("cli.format_matrix", "cli.format_partial", "cli.sweep_csv", "cli._human_matrix")
EIGH_KERNELS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"), ("scipy.linalg", "eigh"))
OTHER_KERNELS = (("numpy.linalg", "solve"), ("numpy.linalg", "inv"),
                 ("numpy.linalg", "det"), ("numpy.linalg", "slogdet"))


def layer_functions():
    """``{function: span name}`` for every traced pgm function."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"pgm.{layer}"]
        for name, value in vars(module).items():
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            if name.startswith("_") and not (layer == "cli" and name in CLI_HELPERS):
                continue
            if layer == "cli" and name in ("main", "entry_point"):
                continue
            found[value] = f"{layer}.{name}"
    return found


class Tracer:
    """Spans and kernel counts of the jobs run while installed."""

    def __init__(self):
        self.names = ["job"]
        self.name_id = {"job": 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_eigh = array("q")
        self.stack = []
        self.job = -1
        self.kernels = {}
        self.eigh_calls = 0
        self.eigh_n3 = 0
        self._patched = []

    # ---- spans

    def _open(self, name_id):
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_eigh.append(self.eigh_calls)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.span_end[sid] = time.perf_counter()
        self.span_eigh[sid] = self.eigh_calls - self.span_eigh[sid]
        self.stack.pop()

    def _spanned(self, fn, name):
        name_id = self.name_id.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key, eigh):
        tracer = self

        def wrapper(a, *args, **kwargs):
            if tracer.stack:
                tracer.kernels[key] = tracer.kernels.get(key, 0) + 1
                if eigh:
                    shape = np.shape(a)
                    tracer.eigh_calls += 1
                    tracer.eigh_n3 += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            return fn(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, main, argv):
        """Call ``main(argv)`` as the root span of a new job."""
        self.job += 1
        sid = self._open(0)
        try:
            return main(argv)
        finally:
            self._close(sid)

    # ---- install

    def _patch(self, module, name, value):
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self):
        wrappers = {fn: self._spanned(fn, name) for fn, name in layer_functions().items()}
        for site in IMPORT_SITES:
            module = sys.modules[site]
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, name, wrappers[value])
        for table, eigh in ((EIGH_KERNELS, True), (OTHER_KERNELS, False)):
            for module_name, name in table:
                module = sys.modules[module_name]
                key = f"{module_name}.{name}"
                self._patch(module, name, self._counted(getattr(module, name), key, eigh))

    def uninstall(self):
        while self._patched:
            module, name, value = self._patched.pop()
            setattr(module, name, value)

    def snapshot(self):
        """Kernel counters, to difference across a pass."""
        return {"eigh_calls": self.eigh_calls, "eigh_n3": self.eigh_n3, **self.kernels}

    # ---- analysis

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "job": np.frombuffer(self.span_job, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "eigh": np.frombuffer(self.span_eigh, dtype=np.int64),
        }

    def pass_summary(self, jobs):
        """Self time and calls per layer over the spans of ``jobs``.

        Self time is a span's duration minus the durations of its direct
        children.  ``uncovered_s`` is the part of the root spans that no
        layer span covers (argument parsing in ``main``).
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        mine = np.isin(a["job"], np.asarray(jobs, dtype=np.int32))
        kinds = ("job",) + LAYERS
        layer_of = np.array([kinds.index(n.split(".")[0]) for n in self.names])[a["name"]]

        def named(*names):
            ids = [self.name_id[n] for n in names if n in self.name_id]
            return mine & np.isin(a["name"], ids)

        out = {}
        for lay in LAYERS:
            sel = mine & (layer_of == kinds.index(lay))
            out[f"{lay}.self_s"] = float(self_s[sel].sum())
            out[f"{lay}.calls"] = int(sel.sum())
        out["cli.parse_s"] = float(self_s[named("cli.parse_partial")].sum())
        out["cli.format_s"] = float(self_s[named(*CLI_FORMAT)].sum())
        geo = named("means.geomean")
        out["means.geomean_calls"] = int(geo.sum())
        out["means.geomean_eigh"] = int(a["eigh"][geo].sum())
        root = named("job")
        out["job.uncovered_s"] = float(self_s[root].sum())
        out["job.traced_s"] = float(dur[root].sum())
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
