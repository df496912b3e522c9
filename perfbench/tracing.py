"""Spans and counters around the public entry points of each kgalilei layer.

``Tracer.install()`` replaces public functions, methods and properties with
wrappers that record one span per call: [name, start, end, parent, item].
Spans stay in memory; ``Tracer.write`` saves them when the run ends and
``Tracer.metrics`` derives the per-layer metrics, with self time taken as a
span's duration minus the time its child spans cover.  The program's source
is not changed; the wrappers live only in the traced process.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from kgalilei import equivalence, gridrep, hopf, hydrogen, masses, realization, scalars, weyl

#: Members of RationalFunction that force the canonical form.
CANON_PROPERTIES = ("is_zero", "is_one", "num", "den", "expr")
CANON_METHODS = ("__eq__", "__hash__", "normalize")

#: Public realization entry points that the workloads reach.
REALIZATION_METHODS = (
    (realization, ("verify_one_particle", "canonical_residuals")),
    (realization.OneParticleRealization, ("realize", "realize_uea")),
    (realization.TwoParticleSystem, ("total", "realize_total_uea", "verify_composed",
                                     "relative_variables", "kinetic_split")),
)
HOPF_CHECKS = ("check_jacobi", "check_hom", "check_coassoc", "check_hopf_axiom")
MASS_FUNCTIONS = ("check_deformation", "check_physical", "to_physical", "to_algebra",
                  "compose", "compose_many", "reduced", "classical_reduced")

#: Span names whose nested calls are folded into the outermost one.
OUTERMOST_ONLY = {"scalars.canon", "masses"}

START, END, PARENT, ITEM = 1, 2, 3, 4

#: The per-layer metrics of a traced run, with their units: from the spans
#: (``Tracer.metrics``), from the item checks and the configs (``worker.py``)
#: and from the traced and untraced repetitions together (``run.py``).
UNITS = {
    "scalars.canon_calls": "count", "scalars.canon_s": "s",
    "scalars.evaluate_calls": "count", "scalars.evaluate_s": "s",
    "weyl.mul_calls": "count", "weyl.mul_s": "s", "weyl.mul_self_s": "s",
    "weyl.terms_out": "count",
    "hopf.uea_mul_calls": "count", "hopf.uea_mul_self_s": "s",
    "hopf.tensor_mul_calls": "count", "hopf.tensor_mul_self_s": "s",
    "hopf.check_calls": "count", "hopf.rewrite_steps": "count",
    "realization.calls": "count", "realization.self_s": "s", "realization.residuals": "count",
    "equivalence.find_theta_calls": "count", "equivalence.find_theta_s": "s",
    "equivalence.failed": "count",
    "hydrogen.radial_calls": "count", "hydrogen.radial_s": "s",
    "hydrogen.grid_points": "points", "hydrogen.failed": "count",
    "gridrep.act_calls": "count", "gridrep.act_s": "s", "gridrep.grid_points": "points",
    "gridrep.sample_accept_ratio": "ratio", "gridrep.failed": "count",
    "masses.calls": "count", "masses.s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class Tracer:
    """Records spans in memory for one traced process."""

    def __init__(self, clock=time.perf_counter):
        #: Span times are read from this clock; the worker passes the speed
        #: probe's, which leaves out the probe chunks that run inside spans.
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.algebras: list = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, perf = self.spans, self.stack, self.clock
        fold = name in OUTERMOST_ONLY
        tracer = self

        def traced(*args, **kwargs):
            if fold and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, perf(), 0.0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf()
                stack.pop()
            if on_result is not None and record[ITEM] is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def _patch_property(self, owner, attr: str, name: str) -> None:
        prop = owner.__dict__[attr]
        setattr(owner, attr, property(self.wrap(name, prop.fget)))

    def install(self) -> None:
        rf = scalars.RationalFunction
        for attr in CANON_PROPERTIES:
            self._patch_property(rf, attr, "scalars.canon")
        for attr in CANON_METHODS:
            self._patch(rf, attr, "scalars.canon")
        self._patch(rf, "evaluate", "scalars.evaluate")

        def count_terms(result):
            self.counts["weyl.terms_out"] += len(result.terms)

        self._patch(weyl.WeylExpression, "__mul__", "weyl.mul", count_terms)
        self._patch(hopf.UEAExpression, "__mul__", "hopf.uea_mul")
        self._patch(hopf.TensorExpression, "__mul__", "hopf.tensor_mul")
        for attr in HOPF_CHECKS:
            self._patch(hopf.GalileiHopf, attr, "hopf.check")
        init = hopf.GalileiHopf.__init__

        def register(alg, *args, **kwargs):
            init(alg, *args, **kwargs)
            self.algebras.append(alg)

        hopf.GalileiHopf.__init__ = register
        for owner, attrs in REALIZATION_METHODS:
            for attr in attrs:
                self._patch(owner, attr, "realization")
        self._patch(equivalence, "find_theta", "equivalence.find_theta")
        self._patch(hydrogen, "radial_solve", "hydrogen.radial_solve")

        def count_sampled(result):
            self.counts["gridrep.tuple_elements"] += len(result)

        self._patch(gridrep, "act", "gridrep.act")
        self._patch(gridrep, "random_in_grid_element", "gridrep.random_element")
        self._patch(gridrep, "random_in_grid_tuple", "gridrep.random_tuple", count_sampled)
        for attr in MASS_FUNCTIONS:
            self._patch(masses, attr, "masses")

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans recorded inside check items."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for n, span in enumerate(spans):
            if span[ITEM] is None:
                continue
            duration = span[END] - span[START]
            calls[span[0]] += 1
            total[span[0]] += duration
            self_time[span[0]] += duration - child[n]
        elements = calls["gridrep.random_element"]
        return {
            "scalars.canon_calls": calls["scalars.canon"],
            "scalars.canon_s": total["scalars.canon"],
            "scalars.evaluate_calls": calls["scalars.evaluate"],
            "scalars.evaluate_s": total["scalars.evaluate"],
            "weyl.mul_calls": calls["weyl.mul"],
            "weyl.mul_s": total["weyl.mul"],
            "weyl.mul_self_s": self_time["weyl.mul"],
            "weyl.terms_out": int(self.counts["weyl.terms_out"]),
            "hopf.uea_mul_calls": calls["hopf.uea_mul"],
            "hopf.uea_mul_self_s": self_time["hopf.uea_mul"],
            "hopf.tensor_mul_calls": calls["hopf.tensor_mul"],
            "hopf.tensor_mul_self_s": self_time["hopf.tensor_mul"],
            "hopf.check_calls": calls["hopf.check"],
            "hopf.rewrite_steps": sum(alg.rewrite_steps for alg in self.algebras),
            "realization.calls": calls["realization"],
            "realization.self_s": self_time["realization"],
            "equivalence.find_theta_calls": calls["equivalence.find_theta"],
            "equivalence.find_theta_s": total["equivalence.find_theta"],
            "hydrogen.radial_calls": calls["hydrogen.radial_solve"],
            "hydrogen.radial_s": total["hydrogen.radial_solve"],
            "gridrep.act_calls": calls["gridrep.act"],
            "gridrep.act_s": total["gridrep.act"],
            "gridrep.sample_accept_ratio":
                self.counts["gridrep.tuple_elements"] / elements if elements else 0.0,
            "masses.calls": calls["masses"],
            "masses.s": total["masses"],
            "trace.spans": len(spans),
        }

    def write(self, path) -> None:
        """Save the spans as JSON lines: name, start, end, parent, item."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
