"""Per-layer spans around calls into isectret's public functions.

``Tracer.installed()`` rebinds the module attributes listed in ``LAYERS`` to
wrappers that record one span per call: name, parent span, start and end.
Callers inside the package look these functions up through the module at call
time, so the wrappers see internal calls too. ``problems`` binds
``combined_residual`` by name at import, so it is rebound there as well.
Spans stay in memory; ``layer_metrics`` turns them into per-op numbers and
``flush`` writes them out when the run ends.

A span's self time is its duration minus the durations of its child spans.
The tracer keeps one span stack for the process: ``bench`` runs its cells on
one worker thread (``ISECT_THREADS=1``) while the calling thread waits, so
spans still nest.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from isectret import cli, manifold, optimizer, problems, solvers

# layer -> (module, public functions timed in it). errors and verify are not
# timed: verify only fits slopes and is a correctness gate, not a user path.
LAYERS = {
    "manifold": (manifold, (
        "project_affine", "project_binary", "linearized_project", "combined_residual",
        "affine_residual", "binary_residual", "row_normals", "project_tangent",
        "AffineSystem.gram_solve",
    )),
    "solvers": (solvers, (
        "apm_step", "iap_step", "newton_slra_step", "relaxed_newton_slra_step",
        "aphl_step", "gwa_iterate", "gwa_newton_iterate", "gwa_objective",
        "metric_project", "retract", "tapr",
    )),
    "optimizer": (optimizer, ("solve", "objective", "gradient", "bb_step")),
    "problems": (problems, (
        "gen_qkp", "parse_qkp", "parse_qaplib", "lift_qkp", "lift_qap", "feasible_init",
    )),
    "cli": (cli, ("run",)),
}

# names bound by ``from .manifold import ...`` elsewhere: (module, attribute, span)
ALIASES = ((problems, "combined_residual", "manifold.combined_residual"),)

OP = "op"

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)

COUNT_METRICS = (
    ("solvers.retract.iters", "count"),
    ("solvers.retract.fallback_frac", "ratio"),
    ("solvers.tapr.accept_frac", "ratio"),
    ("solvers.metric_project.iters", "count"),
    ("optimizer.solve.outer_iters", "count"),
    ("optimizer.solve.halvings_per_outer", "count"),
    ("optimizer.solve.retraction_iters_per_outer", "count"),
)


def per_layer_names():
    """Every per-layer metric of a traced run, with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    return out + list(COUNT_METRICS)


def _trace_summary(result):
    """(steps, apm fallbacks, rejected trials) from a RetractionResult."""
    phases = result.trace.phases[1:]
    return (
        len(phases),
        sum(p == "apm-fallback" for p in phases),
        sum(p.endswith("-reject") for p in phases),
    )


def _result_hook(extra):
    def hook(i, out, err):
        result = out if err is None else getattr(err, "result", None)
        if result is not None:
            extra[i] = _trace_summary(result)
    return hook


class Tracer:
    def __init__(self):
        self.names = [OP, *SPAN_NAMES]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = set()
        # span index -> (steps, fallbacks, rejects) for retract and tapr
        self.extra = {}
        self._stack = [-1]

    def __len__(self):
        return len(self.name)

    def wrap(self, span_name, fn, hook=None):
        ix = self.index[span_name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                ends[i] = clock()
                stack.pop()
                raised.add(i)
                if hook is not None:
                    hook(i, None, err)
                raise
            ends[i] = clock()
            stack.pop()
            if hook is not None:
                hook(i, out, None)
            return out

        return traced

    def op(self, fn, *args):
        """Run one op under a root span."""
        return self.wrap(OP, fn)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        saved = []
        wrapped = {}
        hooks = {"solvers.retract": _result_hook(self.extra),
                 "solvers.tapr": _result_hook(self.extra)}
        try:
            for layer, (module, fns) in LAYERS.items():
                for fn in fns:
                    owner, attr = module, fn
                    if "." in fn:
                        cls, attr = fn.split(".")
                        owner = getattr(module, cls)
                    span = f"{layer}.{fn}"
                    original = owner.__dict__[attr]
                    wrapped[span] = self.wrap(span, original, hooks.get(span))
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapped[span])
            for module, attr, span in ALIASES:
                saved.append((module, attr, module.__dict__[attr]))
                setattr(module, attr, wrapped[span])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def self_times(self):
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return dur - child

    def flush(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def _ratio(num, den):
    # a ratio whose denominator never occurred in the workload reads 0
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer):
    """Per-op calls and self time for every traced function, plus the
    iteration counts, from the spans of the traced ops."""
    name, parent, _start, _end = tracer.arrays()
    self_t = tracer.self_times()
    ix = tracer.index
    ops = int(np.count_nonzero(name == ix[OP]))
    calls = np.bincount(name, minlength=len(tracer.names))
    busy = np.bincount(name, weights=self_t, minlength=len(tracer.names))
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = _ratio(calls[ix[span]], ops)
        out[f"{span}.self_ms"] = _ratio(busy[ix[span]] * 1e3, ops)

    def extras(span):
        idx = np.flatnonzero(name == ix[span])
        return [tracer.extra[int(i)] for i in idx if int(i) in tracer.extra]

    ret = extras("solvers.retract")
    steps = sum(e[0] for e in ret)
    out["solvers.retract.iters"] = _ratio(steps, len(ret))
    out["solvers.retract.fallback_frac"] = _ratio(sum(e[1] for e in ret), steps)
    tp = extras("solvers.tapr")
    trials = sum(e[0] for e in tp)
    out["solvers.tapr.accept_frac"] = _ratio(trials - sum(e[2] for e in tp), trials)
    dual = calls[ix["solvers.gwa_iterate"]] + calls[ix["solvers.gwa_newton_iterate"]]
    out["solvers.metric_project.iters"] = _ratio(dual, calls[ix["solvers.metric_project"]])

    # outer iterations of each solve, from its direct children: one
    # project_tangent at the start and one per accepted step, one retract per
    # trial step, and one more (failed) outer step when the solve raised
    solves = np.flatnonzero(name == ix["optimizer.solve"])
    accepted = attempted = retracts = inner = 0
    for s in solves:
        kids = np.flatnonzero(parent == s)
        acc = int(np.count_nonzero(name[kids] == ix["manifold.project_tangent"])) - 1
        rets = kids[name[kids] == ix["solvers.retract"]]
        accepted += acc
        attempted += acc + (int(s) in tracer.raised)
        retracts += rets.size
        inner += sum(tracer.extra.get(int(i), (0,))[0] for i in rets)
    out["optimizer.solve.outer_iters"] = _ratio(accepted, solves.size)
    out["optimizer.solve.halvings_per_outer"] = _ratio(retracts - attempted, attempted)
    out["optimizer.solve.retraction_iters_per_outer"] = _ratio(inner, attempted)
    return out, ops
