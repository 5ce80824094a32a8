"""Spans around calls into logag's public functions, recorded from outside.

Each span holds its name, start, end, the span that caused it, and the op it
belongs to. Spans stay in memory until ``write_spans`` is called at the end.

The engine's modules import these functions by name, so a wrapper replaces
the name in every ``logag`` module that binds it: wrapping
``logag.classical.entails`` alone would miss the calls ``logag.grading``
makes through its own binding. ``grading._run_levels`` inlines the
telescoping step, so the step's parts are wrapped, not ``telescope_once``
or ``kernel_survivors``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# (module defining the function, function name, span name)
TARGETS = (
    ("terms", "parse_theory", "terms.parse_theory"),
    ("terms", "render", "terms.render"),
    ("classical", "satisfiable", "classical.satisfiable"),
    ("classical", "entails", "classical.entails"),
    ("classical", "is_consistent", "classical.is_consistent"),
    ("classical", "bottom_kernels", "classical.bottom_kernels"),
    ("classical", "relevant_universe", "classical.relevant_universe"),
    ("classical", "mutually_entailing", "classical.mutually_entailing"),
    ("grading", "depth1_expansion", "grading.depth1_expansion"),
    ("grading", "survives", "grading.survives"),
    ("grading", "fused_grade", "grading.fused_grade"),
    ("grading", "supported", "grading.supported"),
    ("grading", "telescope_n", "grading.telescope_n"),
    # Defined in grading; it is the JSON export of ``logag trace``.
    ("grading", "trace_to_dict", "cli.trace_to_dict"),
    ("arguments", "translate", "arguments.translate"),
    ("arguments", "check_theorem1", "arguments.check_theorem1"),
    ("arguments", "check_theorem2", "arguments.check_theorem2"),
    ("arguments", "enumerate_structures", "arguments.enumerate_structures"),
)


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = 0
        self._kernel_inputs: set = set()

    def begin_op(self, op: int) -> None:
        self._op = op
        self._kernel_inputs = set()

    def span(self, name: str, fn):
        """``fn`` recording one span per call; a direct recursive call joins its caller's span."""
        nid = len(self.names)
        self.names.append(name)
        stack, name_id = self._stack, self.name_id

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            i = len(name_id)
            name_id.append(nid)
            self.parent.append(top)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()

        return traced

    def counting(self, span_name: str, fn):
        """Boundary counters, kept outside the span they describe."""
        if span_name == "classical.bottom_kernels":

            def counted(q, *args, **kwargs):
                q = frozenset(q)
                if q in self._kernel_inputs:
                    self.counts["bottom_kernels.repeats"] += 1
                self._kernel_inputs.add(q)
                kernels = fn(q, *args, **kwargs)
                self.counts["bottom_kernels.kernels_found"] += len(kernels)
                return kernels

            return counted
        if span_name == "grading.telescope_n":

            def counted(*args, **kwargs):
                trace = fn(*args, **kwargs)
                self.counts["telescope_n.levels"] += len(trace.levels)
                return trace

            return counted
        return fn

    def install(self) -> None:
        """Replace every target in every loaded ``logag`` module that binds it."""
        import logag.arguments  # noqa: F401  (load every module before patching)
        import logag.cli  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n == "logag" or n.startswith("logag.")]
        for home, fname, span_name in TARGETS:
            original = getattr(sys.modules[f"logag.{home}"], fname)
            wrapped = self.counting(span_name, self.span(span_name, original))
            for module in modules:
                if module.__dict__.get(fname) is original:
                    setattr(module, fname, wrapped)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op means of the per-layer metrics, derived from the spans."""
        n = len(self.name_id)
        child = [0.0] * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        under: Counter = Counter()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                under[(self.name_id[p], self.name_id[i])] += 1
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
        ids = {name: i for i, name in enumerate(self.names)}

        def c(name):
            return calls[ids[name]]

        def s(name):
            return self_s[ids[name]]

        def u(parent, name):
            return under[(ids[parent], ids[name])]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in ("classical.satisfiable", "classical.entails", "classical.bottom_kernels",
                     "grading.survives", "grading.fused_grade", "grading.telescope_n",
                     "arguments.translate", "terms.render"):
            m[f"{name}.calls"] = c(name)
        for _, _, name in TARGETS:
            if name != "classical.is_consistent":
                m[f"{name}.self_s"] = s(name)
        m["classical.entails.hit_ratio"] = 1.0 - ratio(
            u("classical.entails", "classical.satisfiable"), c("classical.entails")
        )
        m["classical.bottom_kernels.consistency_checks"] = u(
            "classical.bottom_kernels", "classical.is_consistent"
        )
        m["classical.bottom_kernels.kernels_found"] = self.counts["bottom_kernels.kernels_found"]
        m["classical.bottom_kernels.repeat_ratio"] = ratio(
            self.counts["bottom_kernels.repeats"], c("classical.bottom_kernels")
        )
        m["grading.depth1_expansion.entails_calls"] = u(
            "grading.depth1_expansion", "classical.entails"
        )
        m["grading.telescope_n.levels"] = self.counts["telescope_n.levels"]
        per_op = {k: v / ops for k, v in m.items() if not k.endswith("_ratio")}
        per_op.update((k, v) for k, v in m.items() if k.endswith("_ratio"))
        return per_op

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
