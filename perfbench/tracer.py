"""Outside-in span tracer for the eulerlab package.

The tracer times calls into the public functions of each package module
without touching the package source: it replaces the function objects
wherever the loaded ``eulerlab`` modules hold them, both as module
attributes and as values of module-level dicts.  That catches calls through
the owning module (``dg.angle_set``), names imported by value
(``streamlines.stagnation_floor``) and table dispatch (``cli._DISPATCH``).

Each call records one span ``(name, start, end, parent)``.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the workloads run on one thread.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# module -> public functions traced; every layer of the package is listed
LAYERS = {
    "cli": ("main", "attachment_gap"),
    "oned": ("solve_strip_profile", "solve_heteroclinic"),
    "elliptic2d": ("solve_type3_strip", "solve_saddle_quadrant",
                   "solve_semilinear"),
    "flows": ("velocity_from_stream", "analytic_flow", "save_flow",
              "load_flow"),
    "diagnostics": ("run_diagnostics", "angle_set", "total_curvature",
                    "signed_curvature_integral", "kappa_distribution",
                    "curvature_identity_residual", "boundary_trace_Jinf",
                    "stagnation_floor"),
    "streamlines": ("trace", "bilinear_sample", "level_contours",
                    "stagnation_points", "save_polylines"),
    "serialize": ("write_csv", "write_json", "read_json"),
    "grid": ("vector_gradient",),
}

SPAN_NAMES = tuple("%s.%s" % (mod, fn)
                   for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Context manager that wraps the traced functions while it is open.

    Besides spans it keeps three counts read off the wrapped calls' results:
    ``sweeps`` (sum of ``SolveReport.iterations`` over ``solve_semilinear``),
    ``rk4_steps`` (points minus one of every polyline ``trace`` returns) and
    ``bytes_written`` (size of every file ``write_csv``/``write_json`` wrote).
    """

    def __init__(self):
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        self.spans = []
        self.sweeps = 0
        self.rk4_steps = 0
        self.bytes_written = 0

    # -- installation -----------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for mod, fns in LAYERS.items():
            module = sys.modules["eulerlab." + mod]
            for fn in fns:
                orig = getattr(module, fn)
                wrappers[id(orig)] = (orig, self._wrap(mod + "." + fn, orig))
        for modname, module in list(sys.modules.items()):
            if modname != "eulerlab" and not modname.startswith("eulerlab."):
                continue
            tables = [vars(module)] + [v for v in vars(module).values()
                                       if isinstance(v, dict)]
            for table in tables:
                for key, val in list(table.items()):
                    orig, wrapper = wrappers.get(id(val), (None, None))
                    if val is orig:
                        self._patches.append((table, key, orig))
                        table[key] = wrapper
        return self

    def __exit__(self, *exc):
        for table, key, orig in reversed(self._patches):
            table[key] = orig
        self._patches = []
        return False

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for k, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[k]
        return {name: tuple(row) for name, row in out.items()}

    def dump(self, path):
        """Write the spans as CSV: id, name, start, end, parent (seconds)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d,%s,%.9f,%.9f,%d\n"
                         % (k, name, start - t0, end - t0, parent))


def _count_sweeps(tracer, args, kwargs, result):
    tracer.sweeps += result[1].iterations


def _count_rk4(tracer, args, kwargs, result):
    tracer.rk4_steps += len(result.points) - 1


def _count_csv(tracer, args, kwargs, result):
    tracer.bytes_written += os.path.getsize(kwargs.get("path", args[0]))


def _count_json(tracer, args, kwargs, result):
    tracer.bytes_written += os.path.getsize(kwargs.get("path", args[1]))


_COUNTERS = {
    "elliptic2d.solve_semilinear": _count_sweeps,
    "streamlines.trace": _count_rk4,
    "serialize.write_csv": _count_csv,
    "serialize.write_json": _count_json,
}
