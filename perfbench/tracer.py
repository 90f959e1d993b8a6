"""Span tracing installed from outside the program.

`Tracer.install` replaces each target with a timing wrapper on the name
its caller actually looks up (a module attribute or a class attribute),
so no source file of the program changes.  A target that no longer
exists aborts the traced run instead of reporting zero.

Spans are kept in memory as (name, start, end, parent index) and reduced
to per-name call counts, total time and self time (duration minus the
time covered by direct child spans) by `Tracer.summary`.
"""

from __future__ import annotations

import functools
import importlib
import time


class TraceError(RuntimeError):
    """A wrapped name is missing, or an expected span never ran."""


#: (module, dotted attribute) pairs wrapped in every traced process.  The
#: span name is the module's short name plus the attribute path.
TARGETS = (
    ("ssblow.cli", "main"),
    ("ssblow.cli", "RunManifest.write"),
    ("ssblow.gridio", "ScalarField2D.to_binary"),
    ("ssblow.cylsim", "PoissonSolver.__init__"),
    ("ssblow.cylsim", "PoissonSolver.solve"),
    ("ssblow.cylsim", "step"),
    ("ssblow.cylsim", "BlowupSeries.append_sample"),
    ("ssblow.cylsim", "track_blowup"),
    ("ssblow.cylsim", "demo_1d"),
    ("ssblow.rigidity", "psi_endgame"),
    ("ssblow.rigidity", "ibp_identity_check"),
    ("ssblow.rigidity", "classify_triviality"),
    # hierarchy imports these sscalc-backed names directly, so they are
    # wrapped where hierarchy looks them up
    ("ssblow.hierarchy", "derive_hierarchy"),
    ("ssblow.hierarchy", "substitute"),
    ("ssblow.hierarchy", "collect_orders"),
    ("ssblow.hierarchy", "induction_system"),
    ("ssblow.hierarchy", "emit"),
)

_BIN_HEADER_BYTES = 48  # six float64 values, see ssblow.gridio


def span_name(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + attr


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def reset(self) -> None:
        if self._stack:
            raise TraceError("reset inside an open span")
        self.spans = []
        self.counters = {}

    def _wrap(self, fn, name: str, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry of TARGETS; raise TraceError if one is gone."""
        for module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # vars(), not getattr(): an inherited attribute such as
            # object.__init__ must not stand in for a removed method
            fn = vars(owner).get(leaf) if owner is not None else None
            if not callable(fn):
                raise TraceError(f"cannot trace {module_name}.{attr}: "
                                 "the name is missing or not a function")
            name = span_name(module_name, attr)
            setattr(owner, leaf, self._wrap(fn, name, _ON_RESULT.get(name)))

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s and per-call durations,
        plus the number of solves nested under a step."""
        if self._stack:
            raise TraceError("summary inside an open span")
        stats: dict = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["durations"].append(end - start)
        nested = sum(1 for name, _, _, parent in self.spans
                     if name == "cylsim.PoissonSolver.solve"
                     and self._under(parent, "cylsim.step"))
        return {"spans": stats, "solves_under_step": nested,
                "counters": dict(self.counters)}

    def _under(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("to_binary.bytes",
                 args[0].values.nbytes + _BIN_HEADER_BYTES)


def _count_terms(tracer: Tracer, args, result) -> None:
    terms = sum(len(eq.lhs.terms) for by_k in result.orders.values()
                for eq in by_k.values())
    tracer.count("hierarchy.terms", terms)
    # per (mode, depth) the count is a property of one derivation, not a sum
    tracer.counters[f"hierarchy.terms.{result.mode}_d{result.depth}"] = terms


_ON_RESULT = {
    "gridio.ScalarField2D.to_binary": _count_bytes,
    "hierarchy.derive_hierarchy": _count_terms,
}


#: span names that must run at least once in every traced operation or
#: pass of a workload; a zero there means the tracer lost its hook
EXPECTED = {
    "slab": ("cli.main", "cli.RunManifest.write",
             "gridio.ScalarField2D.to_binary",
             "cylsim.PoissonSolver.__init__", "cylsim.PoissonSolver.solve",
             "cylsim.step", "cylsim.BlowupSeries.append_sample"),
    "verify-symbolic": ("cli.main", "cli.RunManifest.write",
                        "hierarchy.derive_hierarchy", "hierarchy.substitute",
                        "hierarchy.collect_orders",
                        "hierarchy.induction_system", "hierarchy.emit",
                        "rigidity.classify_triviality"),
    "verify-numeric": ("cli.main", "cli.RunManifest.write",
                       "rigidity.psi_endgame", "rigidity.ibp_identity_check",
                       "cylsim.track_blowup", "cylsim.demo_1d"),
}


def check_expected(summary: dict, kind: str) -> None:
    missing = [n for n in EXPECTED[kind]
               if summary["spans"].get(n, {}).get("calls", 0) == 0]
    if missing:
        raise TraceError(f"no calls recorded for {', '.join(missing)}")


def _total(name):
    return lambda s: s["spans"].get(name, {}).get("total_s", 0.0)


def _calls(name):
    return lambda s: s["spans"].get(name, {}).get("calls", 0)


def _self(name):
    return lambda s: s["spans"].get(name, {}).get("self_s", 0.0)


def _median_call(name):
    def f(s):
        # imported here so that a traced worker's cli.import_s is not
        # shortened by modules the tracer loaded first
        import statistics
        d = s["spans"].get(name, {}).get("durations")
        return statistics.median(d) if d else 0.0
    return f


def _counter(key):
    return lambda s: s["counters"].get(key, 0)


def _solves_per_step(s):
    steps = _calls("cylsim.step")(s)
    return s["solves_under_step"] / steps if steps else 0.0


#: per-layer metrics of one traced operation or pass:
#: name -> (unit, function of its summary)
LAYER_METRICS = {
    "cli.main.self_s": ("s", _self("cli.main")),
    "cli.RunManifest.write_s": ("s", _total("cli.RunManifest.write")),
    "gridio.ScalarField2D.to_binary_s":
        ("s", _total("gridio.ScalarField2D.to_binary")),
    "gridio.to_binary.bytes": ("B", _counter("to_binary.bytes")),
    "cylsim.PoissonSolver.init_s":
        ("s", _total("cylsim.PoissonSolver.__init__")),
    "cylsim.PoissonSolver.init_calls":
        ("count", _calls("cylsim.PoissonSolver.__init__")),
    "cylsim.PoissonSolver.solve_s":
        ("s", _total("cylsim.PoissonSolver.solve")),
    "cylsim.PoissonSolver.solve_calls":
        ("count", _calls("cylsim.PoissonSolver.solve")),
    "cylsim.solves_per_step": ("solves/step", _solves_per_step),
    "cylsim.step.calls": ("count", _calls("cylsim.step")),
    "cylsim.step_s": ("s", _median_call("cylsim.step")),
    "cylsim.step.self_s": ("s", _self("cylsim.step")),
    "cylsim.BlowupSeries.append_sample_s":
        ("s", _total("cylsim.BlowupSeries.append_sample")),
    "cylsim.track_blowup_s": ("s", _total("cylsim.track_blowup")),
    "cylsim.track_blowup.calls": ("count", _calls("cylsim.track_blowup")),
    "cylsim.demo_1d_s": ("s", _total("cylsim.demo_1d")),
    "cylsim.demo_1d.calls": ("count", _calls("cylsim.demo_1d")),
    "rigidity.psi_endgame_s": ("s", _total("rigidity.psi_endgame")),
    "rigidity.psi_endgame.calls": ("count", _calls("rigidity.psi_endgame")),
    "rigidity.ibp_identity_check_s":
        ("s", _total("rigidity.ibp_identity_check")),
    "rigidity.ibp_identity_check.calls":
        ("count", _calls("rigidity.ibp_identity_check")),
    "rigidity.classify_triviality_s":
        ("s", _total("rigidity.classify_triviality")),
    "rigidity.classify_triviality.calls":
        ("count", _calls("rigidity.classify_triviality")),
    "hierarchy.derive_hierarchy_s":
        ("s", _total("hierarchy.derive_hierarchy")),
    "hierarchy.derive_hierarchy.calls":
        ("count", _calls("hierarchy.derive_hierarchy")),
    "hierarchy.substitute_s": ("s", _total("hierarchy.substitute")),
    "hierarchy.collect_orders_s": ("s", _total("hierarchy.collect_orders")),
    "hierarchy.collect_orders.calls":
        ("count", _calls("hierarchy.collect_orders")),
    "hierarchy.induction_system_s":
        ("s", _total("hierarchy.induction_system")),
    "hierarchy.emit_s": ("s", _total("hierarchy.emit")),
    "hierarchy.terms": ("count", _counter("hierarchy.terms")),
    **{f"hierarchy.terms.generalized_d{d}":
       ("count", _counter(f"hierarchy.terms.generalized_d{d}"))
       for d in range(1, 5)},
}


def layer_metrics(summary: dict) -> dict:
    return {name: fn(summary) for name, (_, fn) in LAYER_METRICS.items()}
