"""Per-layer tracing by wrapping fricke's public functions from outside.

Used only by traced runs.  Calls to `monodromies` and the layers above it
(real_locus_sweep, match_y, match_on_locus, jacobian_rank, cli.dispatch)
get spans with parent links; the hot inner layers (sigma,
BakerSection.__call__, ConnectionForm.coefficient, parallel_transport,
lattice construction and the exact-algebra modules) get aggregated counters
and timers instead, since per-call spans there would number 10^5-10^6 per
run.  Self time is a call's duration minus the time of
the wrapped calls directly beneath it.  A target that no longer exists is
reported as absent; its metrics read 0.
"""

from __future__ import annotations

import time
import types

# (layer, module, attribute path or "*" for every public function, is_span)
TARGETS = (
    ("abelmono.lattice", "abelmono", "RectangularLattice.__init__", False),
    ("abelmono.sigma", "abelmono", "RectangularLattice.sigma", False),
    ("abelmono.baker", "abelmono", "BakerSection.__call__", False),
    ("abelmono.coefficient", "abelmono", "ConnectionForm.coefficient", False),
    ("abelmono.transport", "abelmono", "parallel_transport", False),
    ("abelmono.monodromies", "abelmono", "monodromies", True),
    ("abelmono.real_locus_sweep", "abelmono", "real_locus_sweep", True),
    ("abelmono.match_y", "abelmono", "match_y", True),
    ("abelmono.match_on_locus", "abelmono", "match_on_locus", True),
    ("abelmono.jacobian_rank", "abelmono", "jacobian_rank", True),
    ("cli.dispatch", "cli", "dispatch", True),
    ("dodeca.verify_theorem91", "dodeca", "verify_theorem91", False),
    ("covering.covering_triviality_check", "covering", "covering_triviality_check", False),
    ("charvar", "charvar", "*", False),
    ("lorentz", "lorentz", "*", False),
    ("spingraft", "spingraft", "*", False),
    ("algebra", "algebra", "*", False),
)
EXPERIMENTS = ("abelmono.real_locus_sweep", "abelmono.match_y", "abelmono.match_on_locus",
           "abelmono.jacobian_rank")


class Layer:
    __slots__ = ("calls", "total", "child", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def peak(self, key, value):
        self.extra[key] = max(self.extra.get(key, 0.0), value)

    @property
    def self_s(self):
        return self.total - self.child


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # name -> module
        self.layers = {name: Layer() for name, *_ in TARGETS}
        self.absent = []
        self.spans = []  # [id, parent, layer, task, start, end]
        self._children = [0.0]  # child-time accumulator per open wrapped call
        self._open = []  # open spans, innermost last
        self._task = None
        self._restore = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self):
        for layer, module_name, path, is_span in TARGETS:
            module = self.modules[module_name]
            found = self._resolve(module, path)
            if not found:
                self.absent.append(layer)
            for owner, attr, fn in found:
                wrapper = self._span(layer, fn) if is_span else self._aggregate(layer, fn)
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    @staticmethod
    def _resolve(module, path):
        if path == "*":
            return [
                (module, name, fn)
                for name, fn in vars(module).items()
                if isinstance(fn, types.FunctionType)
                and not name.startswith("_")
                and fn.__module__ == module.__name__
            ]
        owner = module
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return []
        fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        return [(owner, attr, fn)] if callable(fn) else []

    # -- wrappers -------------------------------------------------------------

    def _aggregate(self, layer, fn):
        stats = self.layers[layer]
        children = self._children
        clock = time.perf_counter
        after = _AFTER.get(layer)

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats.calls += 1
                stats.total += dt
                stats.child += children.pop()
                children[-1] += dt
            if after is not None:
                after(self, stats, result)
            return result

        return wrapper

    def _span(self, layer, fn):
        stats = self.layers[layer]
        children = self._children
        clock = time.perf_counter
        after = _AFTER.get(layer)

        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._open[-1][0] if self._open else None, layer,
                    self._task, 0.0, 0.0]
            self.spans.append(span)
            self._open.append(span)
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                span[4], span[5] = t0 - self._t0, t1 - self._t0
                stats.calls += 1
                stats.total += dt
                stats.child += children.pop()
                children[-1] += dt
                self._open.pop()
            if after is not None:
                after(self, stats, result)
            return result

        return wrapper

    def start_task(self, index):
        self._task = index

    def enclosing_experiment(self):
        for span in reversed(self._open):
            if span[2] in EXPERIMENTS:
                return self.layers[span[2]]
        return None


def _after_transport(tracer, stats, result):
    for key in ("accepted_steps", "rejected_steps"):
        value = getattr(result, key, None)
        if value is not None:
            stats.add(key, value)
    drift = getattr(result, "det_drift", None)
    if drift is not None:
        stats.peak("det_drift_max", float(drift))


def _after_monodromies(tracer, stats, result):
    experiment = tracer.enclosing_experiment()
    if experiment is not None:
        experiment.add("evals", 1)
    gate = getattr(tracer.modules["abelmono"], "TOL_MONO", None)
    residuals = [getattr(result, k, None) for k in ("char_residual", "commutator_residual")]
    if gate is not None and any(v is not None and v > gate for v in residuals):
        stats.add("gate_misses", 1)


def _after_sweep(tracer, stats, result):
    stats.add("refined_rows", sum(1 for row in result.rows if getattr(row, "refined", False)))


def _after_dispatch(tracer, stats, result):
    if result != 0:
        stats.add("exit_nonzero", 1)


_AFTER = {
    "cli.dispatch": _after_dispatch,
    "abelmono.transport": _after_transport,
    "abelmono.monodromies": _after_monodromies,
    "abelmono.real_locus_sweep": _after_sweep,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values named in BENCHMARK.json (unit-less numbers)."""
    L = tracer.layers
    t = L["abelmono.transport"]
    accepted = t.extra.get("accepted_steps", 0)
    rejected = t.extra.get("rejected_steps", 0)
    m = {
        "abelmono.lattice.builds": L["abelmono.lattice"].calls,
        "abelmono.lattice.self_s": L["abelmono.lattice"].self_s,
        "abelmono.sigma.calls": L["abelmono.sigma"].calls,
        "abelmono.sigma.self_s": L["abelmono.sigma"].self_s,
        "abelmono.baker.calls": L["abelmono.baker"].calls,
        "abelmono.baker.self_s": L["abelmono.baker"].self_s,
        "abelmono.coefficient.calls": L["abelmono.coefficient"].calls,
        "abelmono.coefficient.self_s": L["abelmono.coefficient"].self_s,
        "abelmono.transport.calls": t.calls,
        "abelmono.transport.self_s": t.self_s,
        "abelmono.transport.accepted_steps": accepted,
        "abelmono.transport.rejected_steps": rejected,
        "abelmono.transport.reject_ratio": rejected / (accepted + rejected) if accepted + rejected else 0.0,
        "abelmono.transport.det_drift_max": t.extra.get("det_drift_max", 0.0),
        "abelmono.monodromies.calls": L["abelmono.monodromies"].calls,
        "abelmono.monodromies.self_s": L["abelmono.monodromies"].self_s,
        "abelmono.monodromies.gate_misses": L["abelmono.monodromies"].extra.get("gate_misses", 0),
        "abelmono.real_locus_sweep.refined_rows":
            L["abelmono.real_locus_sweep"].extra.get("refined_rows", 0),
    }
    for name in EXPERIMENTS:
        m[name + ".evals"] = L[name].extra.get("evals", 0)
        m[name + ".self_s"] = L[name].self_s
    m["cli.dispatch.self_s"] = L["cli.dispatch"].self_s
    m["cli.exit_nonzero"] = L["cli.dispatch"].extra.get("exit_nonzero", 0)
    m["dodeca.verify_theorem91.self_s"] = L["dodeca.verify_theorem91"].self_s
    m["covering.covering_triviality_check.self_s"] = L["covering.covering_triviality_check"].self_s
    for module in ("charvar", "lorentz", "spingraft"):
        m[module + ".self_s"] = L[module].self_s
    m["algebra.calls"] = L["algebra"].calls
    m["algebra.self_s"] = L["algebra"].self_s
    return m
