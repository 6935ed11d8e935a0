"""Spans around calls into orbitlab's public functions, recorded from outside.

`Tracer.install()` replaces every binding of each traced function in the
loaded `orbitlab` modules (the defining module, the modules that import it
and the package namespace) with a wrapper that records a span: name, start,
end, parent span and report id.  Methods are wrapped on their class, and
generators are timed per `next`.  Counters (morphisms returned, elements
listed, ...) are taken from the arguments and results at the same
boundaries.  Spans stay in memory; `metrics()` turns them into per-layer
self times, call counts and ratios.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from math import factorial
from time import perf_counter


def _injections(m, n):
    return factorial(n) // factorial(n - m) if 0 <= m <= n else 0


def _hom_set_counts(args, kwargs, result):
    return {"morphisms": len(result), "scanned": _injections(args[1], args[2])}


def _mulclose_counts(args, kwargs, result):
    return {"elements": len(result)}


def _orbits_counts(args, kwargs, result):
    return {"points": sum(len(o.elements) for o in result)}


def _extensions_counts(args, kwargs, result):
    # the element list is cached by the call itself; read it without a span
    return {"found": len(result), "scanned": len(args[0].action._elements)}


def _embeddings_counts(args, kwargs, result):
    a, b = args
    return {"found": len(result), "scanned": _injections(len(a.universe), len(b.universe))}


def _groebner_inputs(args, kwargs):
    vectors = list(args[0])
    counts = {"input_vectors": len(vectors), "distinct_vectors": len(set(vectors))}
    return (vectors,) + tuple(args[1:]), counts


def _normal_form_counts(args, kwargs, result):
    return {"nonzero": 0 if result.is_zero() else 1}


# (span name, module, attribute, class or None, counter, argument hook)
TRACED = (
    ("categories.hom_set", "orbitlab.categories", "hom_set", None, _hom_set_counts, None),
    ("categories.factorize", "orbitlab.categories", "factorize", None, None, None),
    ("actions.mulclose", "orbitlab.actions", "mulclose", None, _mulclose_counts, None),
    ("actions.orbits", "orbitlab.actions", "orbits", None, _orbits_counts, None),
    ("actions.pointwise_stabilizer", "orbitlab.actions", "pointwise_stabilizer", "FiniteAction", None, None),
    ("actions.is_t_dense", "orbitlab.actions", "is_t_dense", None, None, None),
    ("orbitcat.extensions", "orbitlab.orbitcat", "extensions", "OrbitCategory", _extensions_counts, None),
    ("orbitcat.object", "orbitlab.orbitcat", "object", "OrbitCategory", None, None),
    ("orbitcat.hom", "orbitlab.orbitcat", "hom", "OrbitCategory", None, None),
    ("orbitcat.phi_iso_report", "orbitlab.orbitcat", "phi_iso_report", None, None, None),
    ("structures.age_has_sap", "orbitlab.structures", "age_has_sap", None, None, None),
    ("structures.solve_amalgamation", "orbitlab.structures", "solve_amalgamation", None, None, None),
    ("structures.structures_on", "orbitlab.structures", "structures_on", "BuiltinAge", None, None),
    ("structures.structures_on", "orbitlab.structures", "structures_on", "PairAge", None, None),
    ("structures.arrangement_structure", "orbitlab.structures", "arrangement_structure", None, None, None),
    ("structures.enumerate_embeddings", "orbitlab.structures", "enumerate_embeddings", None, _embeddings_counts, None),
    ("structures.canonical_form", "orbitlab.structures", "canonical_form", "FiniteStructure", None, None),
    ("modlab.width_component", "orbitlab.modlab", "width_component", None, None, None),
    ("modlab.apply_morphism", "orbitlab.modlab", "apply_morphism", None, None, None),
    ("modlab.groebner_basis", "orbitlab.modlab", "groebner_basis", None, None, _groebner_inputs),
    ("modlab.normal_form", "orbitlab.modlab", "normal_form", None, _normal_form_counts, None),
    ("modlab.submodule_dimension_upto", "orbitlab.modlab", "submodule_dimension_upto", None, None, None),
    ("modlab.restriction_decomposition_check", "orbitlab.modlab", "restriction_decomposition_check", None, None, None),
    ("cli.emit", "orbitlab.cli", "_emit", None, None, None),
)

NAMES = tuple(dict.fromkeys(name for name, *_ in TRACED))


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric -> how it is read from the aggregated spans and counters.
# ("self", span) is self time in seconds, ("calls", span) the span count.
PER_LAYER = {
    "categories.hom_set.self_s": ("self", "categories.hom_set"),
    "categories.hom_set.calls": ("calls", "categories.hom_set"),
    "categories.hom_set.morphisms": ("count", "categories.hom_set", "morphisms"),
    "categories.hom_set.yield": ("ratio", "categories.hom_set", "morphisms", "scanned"),
    "categories.factorize.self_s": ("self", "categories.factorize"),
    "categories.factorize.calls": ("calls", "categories.factorize"),
    "actions.mulclose.self_s": ("self", "actions.mulclose"),
    "actions.mulclose.calls": ("calls", "actions.mulclose"),
    "actions.mulclose.elements": ("count", "actions.mulclose", "elements"),
    "actions.orbits.self_s": ("self", "actions.orbits"),
    "actions.orbits.calls": ("calls", "actions.orbits"),
    "actions.orbits.points": ("count", "actions.orbits", "points"),
    "actions.pointwise_stabilizer.self_s": ("self", "actions.pointwise_stabilizer"),
    "actions.pointwise_stabilizer.calls": ("calls", "actions.pointwise_stabilizer"),
    "actions.is_t_dense.self_s": ("self", "actions.is_t_dense"),
    "orbitcat.extensions.self_s": ("self", "orbitcat.extensions"),
    "orbitcat.extensions.calls": ("calls", "orbitcat.extensions"),
    "orbitcat.extensions.yield": ("ratio", "orbitcat.extensions", "found", "scanned"),
    "orbitcat.object.self_s": ("self", "orbitcat.object"),
    "orbitcat.object.calls": ("calls", "orbitcat.object"),
    "orbitcat.hom.self_s": ("self", "orbitcat.hom"),
    "orbitcat.hom.calls": ("calls", "orbitcat.hom"),
    "orbitcat.phi_iso_report.self_s": ("self", "orbitcat.phi_iso_report"),
    "structures.age_has_sap.self_s": ("self", "structures.age_has_sap"),
    "structures.solve_amalgamation.self_s": ("self", "structures.solve_amalgamation"),
    "structures.solve_amalgamation.calls": ("calls", "structures.solve_amalgamation"),
    "structures.structures_on.self_s": ("self", "structures.structures_on"),
    "structures.structures_on.yielded": ("count", "structures.structures_on", "yielded"),
    "structures.arrangement_structure.self_s": ("self", "structures.arrangement_structure"),
    "structures.arrangement_structure.calls": ("calls", "structures.arrangement_structure"),
    "structures.enumerate_embeddings.self_s": ("self", "structures.enumerate_embeddings"),
    "structures.enumerate_embeddings.calls": ("calls", "structures.enumerate_embeddings"),
    "structures.enumerate_embeddings.yield": ("ratio", "structures.enumerate_embeddings", "found", "scanned"),
    "structures.canonical_form.self_s": ("self", "structures.canonical_form"),
    "modlab.width_component.self_s": ("self", "modlab.width_component"),
    "modlab.width_component.calls": ("calls", "modlab.width_component"),
    "modlab.apply_morphism.self_s": ("self", "modlab.apply_morphism"),
    "modlab.apply_morphism.calls": ("calls", "modlab.apply_morphism"),
    "modlab.groebner_basis.self_s": ("self", "modlab.groebner_basis"),
    "modlab.groebner_basis.calls": ("calls", "modlab.groebner_basis"),
    "modlab.groebner_basis.input_vectors": ("count", "modlab.groebner_basis", "input_vectors"),
    "modlab.groebner_basis.distinct_share": (
        "ratio", "modlab.groebner_basis", "distinct_vectors", "input_vectors"),
    "modlab.normal_form.self_s": ("self", "modlab.normal_form"),
    "modlab.normal_form.calls": ("calls", "modlab.normal_form"),
    "modlab.normal_form.nonzero_share": ("ratio", "modlab.normal_form", "nonzero", "calls"),
    "modlab.submodule_dimension_upto.self_s": ("self", "modlab.submodule_dimension_upto"),
    "modlab.restriction_decomposition_check.self_s": ("self", "modlab.restriction_decomposition_check"),
    "cli.emit.self_s": ("self", "cli.emit"),
}


class Tracer:
    def __init__(self):
        self.report = -1
        self.name_id = {name: i for i, name in enumerate(NAMES)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_report = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = {name: {} for name in NAMES}
        self.missing = []

    def enter(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_report.append(self.report)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())

    def leave(self):
        end = perf_counter()
        self.span_end[self.stack.pop()] = end

    def add(self, name, counts):
        acc = self.counts[name]
        for key, value in counts.items():
            acc[key] = acc.get(key, 0) + value

    # -- wrappers --------------------------------------------------------------

    def _wrap_function(self, name, fn, counter, hook):
        nid = self.name_id[name]
        enter, leave, add = self.enter, self.leave, self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, counts = hook(args, kwargs)
                add(name, counts)
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if counter is not None:
                add(name, counter(args, kwargs, result))
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        nid = self.name_id[name]
        enter, leave, add = self.enter, self.leave, self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave()
                add(name, {"yielded": 1})
                yield item

        return wrapper

    def install(self):
        """Wrap every traced function at each of its binding sites.  A
        function that is no longer there is listed in `missing`; its metrics
        read 0."""
        loaded = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "orbitlab"]
        for name, module, attr, cls, counter, hook in TRACED:
            owner = sys.modules.get(module)
            if cls:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            if getattr(original, "__wrapped__", None) is not None:
                raise RuntimeError(f"{module}.{attr} is already traced")
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap_function(name, original, counter, hook)
            if cls:
                setattr(owner, attr, wrapped)
                continue
            for m in loaded:
                if vars(m).get(attr) is original:
                    setattr(m, attr, wrapped)

    # -- aggregation -------------------------------------------------------------

    def self_times(self, factor):
        """Per span name: (self seconds scaled by the round's speed factor,
        span count), and the unscaled self seconds of all spans together."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: [0.0, 0] for name in NAMES}
        total = 0.0
        for i in range(n):
            own = ends[i] - starts[i] - child[i]
            acc = out[NAMES[self.span_name[i]]]
            acc[0] += own * factor
            acc[1] += 1
            total += own
        return out, total

    def metrics(self, factor):
        """(per-layer metric values, unscaled self time of all spans)."""
        selfs, total = self.self_times(factor)
        values = {}
        for metric, spec in PER_LAYER.items():
            kind, span = spec[0], spec[1]
            counts = dict(self.counts[span], calls=selfs[span][1])
            if kind == "self":
                values[metric] = selfs[span][0]
            elif kind == "calls":
                values[metric] = selfs[span][1]
            elif kind == "count":
                values[metric] = counts.get(spec[2], 0)
            else:
                values[metric] = _ratio(counts.get(spec[2], 0), counts.get(spec[3], 0))
        return values, total
