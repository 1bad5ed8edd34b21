"""Spans around calls into marketclear's public names, kept in memory.

The engine carries no instrumentation.  For a traced pass the benchmark
rebinds public module-level functions and public methods of public classes to
thin wrappers that record a span (name, start, end, parent span, thread, run
id) and restores them afterwards.  A function is rebound in every ``marketclear``
module that imported it, so calls between modules are seen too.  A name that
no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time

# (span name, module, qualified name) of every traced call.
TARGETS = [
    ("cli.main", "marketclear.cli", "main"),
    ("modelfile.load_model", "marketclear.modelfile", "load_model"),
    ("model.check_all_assumptions", "marketclear.model", "check_all_assumptions"),
    ("scenario.build_lattice", "marketclear.scenario", "build_lattice"),
    ("scenario.evaluate_exogenous", "marketclear.scenario", "evaluate_exogenous"),
    ("finite_market.MarketContext", "marketclear.finite_market", "MarketContext.__init__"),
    ("finite_market.group_tables", "marketclear.finite_market", "MarketContext.group_tables"),
    ("finite_market.build_full_system", "marketclear.finite_market", "build_full_system"),
    ("finite_market.build_clearing_system", "marketclear.finite_market", "build_clearing_system"),
    ("finite_market.build_best_response_system", "marketclear.finite_market",
     "build_best_response_system"),
    ("finite_market.solve_full_equilibrium", "marketclear.finite_market", "solve_full_equilibrium"),
    ("finite_market.solve_minor_clearing", "marketclear.finite_market", "solve_minor_clearing"),
    ("fbsde.DirectSolver", "marketclear.fbsde", "DirectSolver.__init__"),
    ("fbsde.DirectSolver.solve", "marketclear.fbsde", "DirectSolver.solve"),
    ("fbsde.solve_direct", "marketclear.fbsde", "solve_direct"),
    ("fbsde.residual", "marketclear.fbsde", "residual"),
    ("mean_field.solve_mfg", "marketclear.mean_field", "solve_mfg"),
    ("mean_field.reduce_conditional_means", "marketclear.mean_field", "reduce_conditional_means"),
    ("mean_field.build_deviation_system", "marketclear.mean_field", "build_deviation_system"),
    ("mean_field.MeanClearingOperator.solve", "marketclear.mean_field",
     "MeanClearingOperator.solve"),
    ("metrics.convergence_study", "marketclear.metrics", "convergence_study"),
    ("optimality.perturbation_test", "marketclear.optimality", "perturbation_test"),
    ("optimality.cost_minor", "marketclear.optimality", "cost_minor"),
    ("optimality.cost_major", "marketclear.optimality", "cost_major"),
    ("optimality.cost_mfg", "marketclear.optimality", "cost_mfg"),
    ("runio.write_equilibrium_csv", "marketclear.runio", "write_equilibrium_csv"),
    ("runio.write_mfg_csv", "marketclear.runio", "write_mfg_csv"),
    ("runio.write_convergence_csv", "marketclear.runio", "write_convergence_csv"),
    ("runio.write_perturbation_csv", "marketclear.runio", "write_perturbation_csv"),
    ("runio.write_json", "marketclear.runio", "write_json"),
    ("runio.write_manifest", "marketclear.runio", "write_manifest"),
]

# Builders whose returned system gets its ``coeffs``/``terminal`` callbacks
# traced: the coefficient blocks are materialized lazily inside the solver,
# and that time belongs to the layer that defines the system.
_CALLBACK_LAYER = {
    "finite_market.build_full_system": "finite_market.coeffs",
    "finite_market.build_clearing_system": "finite_market.coeffs",
    "finite_market.build_best_response_system": "finite_market.coeffs",
    "mean_field.reduce_conditional_means": "mean_field.coeffs",
    "mean_field.build_deviation_system": "mean_field.coeffs",
}
CALLBACKS = frozenset(_CALLBACK_LAYER.values())


class Tracer:
    """Collects spans of one traced pass; ``run_id`` ties them to a workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[dict] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[dict]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span.

        A pool thread has no open span of its own when a task starts, so its
        first span's parent is the innermost span open in the main thread,
        which is the call that started the pool.
        """
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = {"name": name, "parent": None if parent is None else parent["id"],
                "run_id": self.run_id, "thread": threading.get_ident(),
                "start": time.perf_counter()}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        try:
            self._annotate(span, result, args)
        except (AttributeError, TypeError, IndexError):
            span["unannotated"] = True  # the result changed shape; its counts read absent
        return result

    def _annotate(self, span, result, args):
        """Record the counts the per-layer metrics need; runs outside the span."""
        name = span["name"]
        if name in _CALLBACK_LAYER and result is not None:
            for attr in ("coeffs", "terminal"):
                setattr(result, attr, self._wrap(_CALLBACK_LAYER[name], getattr(result, attr)))
        elif name == "fbsde.DirectSolver":
            system = args[1]
            M = system.mf + system.mb
            span["unknowns"] = int(system.n_unknowns())
            span["block_bytes"] = int(system.lattice.num_nodes * M * M * 8)
        elif name == "scenario.build_lattice":
            span["nodes"] = int(result.num_nodes)
        elif name in ("finite_market.solve_full_equilibrium", "finite_market.solve_minor_clearing"):
            span["groups"] = len(result.population.groups)
        elif name == "metrics.convergence_study":
            span["rows"] = len(result.rows)
        elif name == "optimality.perturbation_test":
            span["level"] = result.level
            span["failed"] = len(result.failed)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self):
        """Rebind every target to a traced wrapper; missing names become absent."""
        for span_name, module_name, qualname in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(span_name)
                continue
            *path, attr = qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            if path:
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "marketclear" or mod_name.startswith("marketclear."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, wrapper):
        # an inherited method is shadowed, and the shadow deleted again on restore
        self._restore.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()


# -- per-layer metrics --------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


class SpanIndex:
    """Ancestry queries over the spans of one traced pass."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def ancestors(self, span):
        while span["parent"] is not None:
            span = self.by_id[span["parent"]]
            yield span

    def outermost(self, names) -> list[dict]:
        """Spans named in ``names`` that are not nested in another such span."""
        return [s for s in self.spans if s["name"] in names
                and not any(a["name"] in names for a in self.ancestors(s))]

    def descendants(self, span, names) -> list[dict]:
        out, todo = [], list(self.children.get(span["id"], []))
        while todo:
            s = todo.pop()
            if s["name"] in names:
                out.append(s)
            else:
                todo.extend(self.children.get(s["id"], []))
        return out

    def self_time(self, span, exclude) -> float:
        """Duration less the part of it that descendants named in ``exclude`` cover."""
        inner = [(max(d["start"], span["start"]), min(d["end"], span["end"]))
                 for d in self.descendants(span, exclude)]
        return span["end"] - span["start"] - _covered(i for i in inner if i[1] > i[0])

    def busy(self, names, exclude=frozenset()) -> float | None:
        spans = self.outermost(names)
        if not spans:
            return None
        return sum(self.self_time(s, exclude) for s in spans)

    def count(self, names) -> int:
        return sum(1 for s in self.spans if s["name"] in names)


# Per-layer metrics: name -> unit.  ``COMMON`` are produced by every workload
# and go on the result line; ``WORKLOAD_SPECIFIC`` exist only where the layer
# runs and are reported as absent elsewhere.
COMMON = {
    "modelfile.load_s": "s",
    "model.check_s": "s",
    "scenario.lattice_s": "s",
    "scenario.exogenous_s": "s",
    "scenario.nodes": "count",
    "finite_market.context_s": "s",
    "finite_market.build_s": "s",
    "finite_market.solve_s": "s",
    "finite_market.solves": "count",
    "finite_market.groups": "count",
    "fbsde.factor_s": "s",
    "fbsde.factorizations": "count",
    "fbsde.solve_direct_s": "s",
    "fbsde.residual_s": "s",
    "fbsde.unknowns": "count",
    "fbsde.block_bytes": "B_computed",
    "fbsde.resolves": "count",
    "optimality.evals": "count",
    "optimality.failed_directions": "count",
    "metrics.rows": "count",
    "runio.write_s": "s",
    "runio.bytes": "B",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}
WORKLOAD_SPECIFIC = {
    "fbsde.resolve_s": "s",
    "mean_field.solve_s": "s",
    "mean_field.resolve_s": "s",
    "metrics.study_s": "s",
    "metrics.self_s": "s",
    "metrics.solve_share": "ratio",
    "optimality.minor_s": "s",
    "optimality.major_n_s": "s",
    "optimality.major_mfg_s": "s",
}

_WRITERS = frozenset(name for name, _, _ in TARGETS if name.startswith("runio."))
_SOLVES = frozenset({"finite_market.solve_full_equilibrium", "finite_market.solve_minor_clearing"})


def layer_metrics(spans: list[dict], *, untraced_wall: float, untraced_cpu: float,
                  out_bytes: int) -> dict:
    """Per-layer values from one traced pass; ``None`` marks an absent span."""
    ix = SpanIndex(spans)
    resolves = [s for s in ix.spans if s["name"] == "fbsde.DirectSolver.solve"
                and (s["parent"] is None
                     or ix.by_id[s["parent"]]["name"] != "fbsde.solve_direct")]
    mean_resolves = [s for s in ix.spans if s["name"] == "mean_field.MeanClearingOperator.solve"]
    factor = [s for s in ix.spans if s["name"] == "fbsde.DirectSolver"]
    studies = ix.outermost({"metrics.convergence_study"})
    levels = {s.get("level"): s for s in ix.spans if s["name"] == "optimality.perturbation_test"}
    rows = sum(s.get("rows", 0) for s in studies)
    study_solves = sum(len(ix.descendants(s, {"finite_market.solve_full_equilibrium"}))
                       for s in studies)
    traced_total = ix.busy({"cli.main"})

    def mean_self(group):
        return (statistics.fmean(ix.self_time(s, CALLBACKS) for s in group)
                if group else None)

    def largest(key):
        return max((s[key] for s in factor), default=None)

    return {
        "modelfile.load_s": ix.busy({"modelfile.load_model"}),
        "model.check_s": ix.busy({"model.check_all_assumptions"}),
        "scenario.lattice_s": ix.busy({"scenario.build_lattice"}),
        "scenario.exogenous_s": ix.busy({"scenario.evaluate_exogenous"}),
        "scenario.nodes": max((s["nodes"] for s in ix.spans if "nodes" in s), default=None),
        "finite_market.context_s": ix.busy({"finite_market.MarketContext",
                                            "finite_market.group_tables"}),
        "finite_market.build_s": ix.busy({"finite_market.build_full_system",
                                          "finite_market.build_clearing_system",
                                          "finite_market.build_best_response_system",
                                          "finite_market.coeffs"}),
        "finite_market.solve_s": ix.busy(_SOLVES),
        "finite_market.solves": ix.count(_SOLVES),
        "finite_market.groups": max((s["groups"] for s in ix.spans if "groups" in s),
                                    default=None),
        "fbsde.factor_s": ix.busy({"fbsde.DirectSolver"}, CALLBACKS),
        "fbsde.factorizations": len(factor),
        "fbsde.solve_direct_s": ix.busy({"fbsde.solve_direct"}, CALLBACKS),
        "fbsde.residual_s": ix.busy({"fbsde.residual"}, CALLBACKS),
        "fbsde.unknowns": largest("unknowns"),
        "fbsde.block_bytes": largest("block_bytes"),
        "fbsde.resolve_s": mean_self(resolves),
        "fbsde.resolves": len(resolves),
        "mean_field.solve_s": ix.busy({"mean_field.solve_mfg"}),
        "mean_field.resolve_s": (statistics.fmean(s["end"] - s["start"] for s in mean_resolves)
                                 if mean_resolves else None),
        "metrics.study_s": ix.busy({"metrics.convergence_study"}),
        "metrics.self_s": (sum(ix.self_time(s, {"mean_field.solve_mfg",
                                                "finite_market.solve_full_equilibrium"})
                               for s in studies) if studies else None),
        "metrics.rows": rows,
        "metrics.solve_share": study_solves / rows if rows else None,
        "optimality.minor_s": _duration(levels.get("minor")),
        "optimality.major_n_s": _duration(levels.get("major-N")),
        "optimality.major_mfg_s": _duration(levels.get("major-mfg")),
        "optimality.evals": ix.count({"optimality.cost_minor", "optimality.cost_major",
                                      "optimality.cost_mfg"}),
        "optimality.failed_directions": sum(s.get("failed", 0) for s in levels.values()),
        "runio.write_s": ix.busy(_WRITERS),
        "runio.bytes": out_bytes,
        "cli.cpu_s": untraced_cpu,
        "trace.overhead_s": None if traced_total is None else traced_total - untraced_wall,
    }


def _duration(span):
    return None if span is None else span["end"] - span["start"]
