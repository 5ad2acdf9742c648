"""Span tracer that wraps the package's public functions from outside.

``Tracer.install()`` replaces each target function with a timing wrapper at
every place the function object is bound: the attribute of its defining
module and every ``from .x import y`` copy in the other ``gksplit`` modules
(methods are replaced on their class).  Each call records one span --
function, start, end, parent span and request id -- in flat arrays, and
per-function calls, total time and self time are accumulated as the spans
close.  Self time is the span's duration minus the time covered by its child
spans.  A few counters are read where the work happens: graph sizes from the
graphs ``Graph.__init__`` builds, certificate steps from the certificates
``recheck`` receives, and ``BudgetExceeded`` raised through ``factor``.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

#: (module, attribute path, metric stem) of every wrapped function.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("splitcheck", "is_split_forbidden", "splitcheck.is_split_forbidden"),
    ("splitcheck", "is_split_degree", "splitcheck.is_split_degree"),
    ("splitcheck", "validate_partition", "splitcheck.validate_partition"),
    ("graph", "Graph.__init__", "graph.Graph.init"),
    ("graph", "Graph.find_forbidden", "graph.find_forbidden"),
    ("graph", "Graph.compact_form", "graph.compact_form"),
    ("graph", "Graph.to_json", "graph.to_json"),
    ("graph", "Graph.to_dot", "graph.to_dot"),
    ("graph", "Graph.from_json", "graph.from_json"),
    ("gkbuild", "gk_altsym", "gkbuild.gk_altsym"),
    ("gkbuild", "theoremD_verify", "gkbuild.theoremD_verify"),
    ("gkbuild", "classical_compact_partition", "gkbuild.classical_compact_partition"),
    ("gkbuild", "nonsplit_witness_linear", "gkbuild.nonsplit_witness_linear"),
    ("numtheory", "factor", "numtheory.factor"),
    ("numtheory", "ppd_set", "numtheory.ppd_set"),
    ("numtheory", "cyclotomic_value", "numtheory.cyclotomic_value"),
    ("numtheory", "raw_order", "numtheory.raw_order"),
    ("numtheory", "is_prime", "numtheory.is_prime"),
    ("numtheory", "primes_upto", "numtheory.primes_upto"),
    ("exceptional", "exceptional_compact", "exceptional.exceptional_compact"),
    ("exceptional", "tits_compact", "exceptional.tits_compact"),
    ("groups", "spectrum_formulas", "groups.spectrum_formulas"),
    ("groups", "gk_from_spectrum", "groups.gk_from_spectrum"),
    ("certificates", "recheck", "certificates.recheck"),
)

MODULES = ("cli", "gkbuild", "exceptional", "groups", "numtheory", "graph", "splitcheck", "certificates")

COUNTERS = (
    "graph.vertices_built",
    "graph.edges_built",
    "numtheory.factor.budget_exhausted",
    "certificates.steps_checked",
    "certificates.steps_assumed",
)


class Tracer:
    def __init__(self):
        self.names = [stem for _, _, stem in TARGETS]
        # one entry per span
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        # per function
        k = len(self.names)
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        self._active = [0] * k
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request_id = -1
        self._stack: list[list] = []  # [span index, child time]

    # -- recording -----------------------------------------------------------

    def _wrap(self, fid: int, func, hook=None):
        tracer = self
        fn, start, end, parent, request = self.fn, self.start, self.end, self.parent, self.request
        stack, calls, total, self_time, active = (
            self._stack, self.calls, self.total, self.self_time, self._active,
        )

        def traced(*args, **kwargs):
            index = len(fn)
            fn.append(fid)
            parent.append(stack[-1][0] if stack else -1)
            request.append(tracer.request_id)
            end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            active[fid] += 1
            t0 = perf_counter()
            start.append(t0)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(args, None, exc)
                raise
            else:
                if hook is not None:
                    hook(args, result, None)
                return result
            finally:
                t1 = perf_counter()
                end[index] = t1
                stack.pop()
                active[fid] -= 1
                dur = t1 - t0
                calls[fid] += 1
                if not active[fid]:
                    total[fid] += dur
                self_time[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    # -- counters read at the boundaries ---------------------------------------

    def _graph_built(self, args, result, exc):
        if exc is None:
            g = args[0]
            self.counters["graph.vertices_built"] += len(g.vertices)
            self.counters["graph.edges_built"] += len(g.edges)

    def _factor_done(self, args, result, exc):
        if isinstance(exc, self._budget_error):
            self.counters["numtheory.factor.budget_exhausted"] += 1

    def _recheck_called(self, args, result, exc):
        for s in args[0].steps:
            key = "certificates.steps_assumed" if s.assumption else "certificates.steps_checked"
            self.counters[key] += 1

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded package."""
        self._budget_error = sys.modules["gksplit.errors"].BudgetExceeded
        hooks = {
            "graph.Graph.init": self._graph_built,
            "numtheory.factor": self._factor_done,
            "certificates.recheck": self._recheck_called,
        }
        package = [m for name, m in sys.modules.items() if name == "gksplit" or name.startswith("gksplit.")]
        for fid, (module, path, stem) in enumerate(TARGETS):
            home = sys.modules[f"gksplit.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(fid, raw.__func__, hooks.get(stem))))
                else:
                    setattr(cls, attr, self._wrap(fid, raw, hooks.get(stem)))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(fid, original, hooks.get(stem))
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "functions": {
                name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "spans": len(self.fn),
        }

    def write_spans(self, path: str) -> None:
        """Spans as one JSON header line followed by the five raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.fn),
            "arrays": [
                ["fn", self.fn.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
                ["parent", self.parent.typecode],
                ["request", self.request.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fn, self.start, self.end, self.parent, self.request):
                arr.tofile(fh)
