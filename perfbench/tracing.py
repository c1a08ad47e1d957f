"""Spans and counters around the public functions of each leavitt module.

The program is not changed: ``Tracer.install`` replaces each listed
function in every leavitt namespace that holds it (so intra-package
calls such as ``structure`` calling ``graph.no_exit_condition`` are
traced too) and each listed method on its class; ``Tracer.restore``
puts the originals back.

A span is (name, start, end, parent index, operation id); spans stay in
memory and are written out when the run ends.  Scalar arithmetic is only
counted, never spanned: a span per field operation would swamp the run.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

MODULES = ("scalar", "graph", "lpa", "gmatrix", "structure", "regularity", "cli")

# (module, function) -> span name
FUNCTIONS = {
    ("graph", "no_exit_condition"): "graph.no_exit_condition",
    ("graph", "simple_cycles"): "graph.simple_cycles",
    ("graph", "paths_into"): "graph.paths_into",
    ("graph", "paths_into_cycle"): "graph.paths_into_cycle",
    ("graph", "paths_up_to"): "graph.paths_up_to",
    ("structure", "classify"): "structure.classify",
    ("structure", "decompose"): "structure.decompose",
    ("structure", "phi"): "structure.phi",
    ("structure", "verify_phi"): "structure.verify_phi",
    ("structure", "pull_back"): "structure.pull_back",
    ("structure", "phi_inverse_basis"): "structure.phi_inverse_basis",
    ("structure", "dim_series_check"): "structure.dim_series_check",
    ("regularity", "graded_inner_inverse"): "regularity.graded_inner_inverse",
    ("regularity", "inner_inverse_field"): "regularity.inner_inverse_field",
    ("regularity", "inner_inverse_laurent"): "regularity.inner_inverse_laurent",
    ("regularity", "block_ranks"): "regularity.block_ranks",
    ("regularity", "idempotent_report"): "regularity.idempotent_report",
    ("regularity", "regularity_witness_report"): "regularity.regularity_witness_report",
    ("regularity", "sample_homogeneous"): "regularity.sample_homogeneous",
    ("regularity", "type_I_witness"): "regularity.type_I_witness",
    ("scalar", "smith_normal_form"): "scalar.smith_normal_form",
    ("cli", "main"): "cli.main",
    ("cli", "_load_graph"): "cli.load_graph",
    ("cli", "_load_element"): "cli.load_element",
    ("cli", "_emit"): "cli.emit",
}

# (module, class, method) -> span name
METHODS = {
    ("gmatrix", "GradedMatrix", "__mul__"): "gmatrix.mul",
    ("gmatrix", "GradedMatrix", "__add__"): "gmatrix.add",
    ("gmatrix", "GradedMatrix", "scale"): "gmatrix.scale",
    ("gmatrix", "GradedMatrix", "star"): "gmatrix.star",
    ("gmatrix", "GradedMatrixAlgebra", "unit"): "gmatrix.unit",
    ("structure", "GeneratorImages", "apply"): "structure.apply",
    ("lpa", "LeavittAlgebra", "normal_form"): "lpa.normal_form",
    ("lpa", "LeavittAlgebra", "element"): "lpa.element",
    ("lpa", "LeavittAlgebra", "basis_monomials"): "lpa.basis_monomials",
    ("lpa", "LpaElement", "__mul__"): "lpa.element_mul",
}

# (module, class, method) -> counter name; counted, not spanned
COUNTED = {
    ("scalar", "Rationals", "mul"): "scalar.field_mul.calls",
    ("scalar", "PrimeField", "mul"): "scalar.field_mul.calls",
    ("scalar", "Rationals", "add"): "scalar.field_add.calls",
    ("scalar", "PrimeField", "add"): "scalar.field_add.calls",
    ("scalar", "LaurentRing", "mul"): "scalar.laurent_mul.calls",
}


# -- counters taken from arguments and results -----------------------------------


def _gmatrix_mul(counts, args, result):
    a, b = args[0], args[1]
    n = a.algebra.n
    zero = a.algebra.base.is_zero
    cols = [0] * n
    for row in a.entries:
        for k, x in enumerate(row):
            if not zero(x):
                cols[k] += 1
    useful = 0
    for k, row in enumerate(b.entries):
        useful += cols[k] * sum(1 for x in row if not zero(x))
    counts["gmatrix.mul.cells"] += n**3
    counts["gmatrix.mul.useful"] += useful


def _phi(counts, args, result):
    nonzeros = 0
    for images in (result.vertices, result.edges, result.ghosts):
        for mats in images.values():
            for m in mats:
                zero = m.algebra.base.is_zero
                nonzeros += sum(1 for row in m.entries for x in row if not zero(x))
    counts["structure.image_nonzeros"] += nonzeros


def _decompose(counts, args, result):
    n = max(b.n for b in result.blocks)
    counts["structure.block_n_max"] = max(counts["structure.block_n_max"], n)


HOOKS = {
    "gmatrix.mul": _gmatrix_mul,
    "structure.phi": _phi,
    "structure.decompose": _decompose,
    "structure.verify_phi": lambda c, a, r: c.update({"structure.verify_phi.checks": len(r.checks)}),
    "graph.simple_cycles": lambda c, a, r: c.update({"graph.simple_cycles.cycles": len(r)}),
    "graph.paths_into": lambda c, a, r: c.update({"graph.paths_into.paths": len(r)}),
    "graph.paths_into_cycle": lambda c, a, r: c.update({"graph.paths_into.paths": len(r)}),
    "lpa.normal_form": lambda c, a, r: c.update(
        {"lpa.normal_form.terms_in": len(a[1]), "lpa.normal_form.terms_out": len(r.terms)}
    ),
    "lpa.basis_monomials": lambda c, a, r: c.update({"lpa.basis_monomials.size": len(r)}),
    "regularity.block_ranks": lambda c, a, r: c.update({"regularity.rank_sum": sum(r)}),
}


class Tracer:
    def __init__(self, leavitt_modules):
        self.modules = leavitt_modules  # name -> module, plus "" for the package
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._patches = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                # the hook's own time is a span of the tracer, so that it is
                # subtracted from the caller's self time
                hook(counts, args, result)
                spans.append(("trace.hook", end, clock(), parent, self.op))
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = self.modules
        for (mod, fname), span in FUNCTIONS.items():
            original = getattr(mods[mod], fname)
            wrapper = self._spanned(span, original)
            for module in mods.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for (mod, cls, meth), span in METHODS.items():
            owner = getattr(mods[mod], cls)
            self._patch(owner, meth, self._spanned(span, owner.__dict__[meth]))
        for (mod, cls, meth), key in COUNTED.items():
            owner = getattr(mods[mod], cls)
            self._patch(owner, meth, self._counted(key, owner.__dict__[meth]))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results ----------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(spans, first, counts):
    """Per-layer metrics of one traced pass: the spans from index `first`.

    Inclusive time of a function counts only its outermost span, so a
    recursive call is not counted twice; a layer's self time is the time
    of its spans minus the time of their direct children.
    """
    child_time = Counter()
    for name, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive, calls, self_time = Counter(), Counter(), Counter()
    for k in range(first, len(spans)):
        name, start, end, parent, _ = spans[k]
        self_time[name.split(".", 1)[0]] += (end - start) - child_time[k]
        calls[name] += 1
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            inclusive[name] += end - start

    def s(*names):
        return sum(inclusive[n] for n in names)

    def c(key):
        return counts.get(key, 0)

    mul_cells = c("gmatrix.mul.cells")
    return {
        "gmatrix.mul.s": s("gmatrix.mul"),
        "gmatrix.mul.calls": calls["gmatrix.mul"],
        "gmatrix.mul.cells": mul_cells,
        "gmatrix.mul.useful_frac": c("gmatrix.mul.useful") / mul_cells if mul_cells else 0.0,
        "gmatrix.add.calls": calls["gmatrix.add"],
        "gmatrix.self_s": self_time["gmatrix"],
        "structure.decompose.s": s("structure.decompose"),
        "structure.phi.s": s("structure.phi"),
        "structure.apply.s": s("structure.apply"),
        "structure.verify_phi.s": s("structure.verify_phi"),
        "structure.verify_phi.checks": c("structure.verify_phi.checks"),
        "structure.pull_back.s": s("structure.pull_back"),
        "structure.dim_series_check.s": s("structure.dim_series_check"),
        "structure.block_n_max": c("structure.block_n_max"),
        "structure.image_nonzeros": c("structure.image_nonzeros"),
        "structure.self_s": self_time["structure"],
        "graph.no_exit_condition.s": s("graph.no_exit_condition"),
        "graph.no_exit_condition.calls": calls["graph.no_exit_condition"],
        "graph.simple_cycles.s": s("graph.simple_cycles"),
        "graph.simple_cycles.cycles": c("graph.simple_cycles.cycles"),
        "graph.paths_into.s": s("graph.paths_into", "graph.paths_into_cycle"),
        "graph.paths_into.paths": c("graph.paths_into.paths"),
        "graph.paths_up_to.s": s("graph.paths_up_to"),
        "graph.self_s": self_time["graph"],
        "lpa.normal_form.s": s("lpa.normal_form"),
        "lpa.normal_form.calls": calls["lpa.normal_form"],
        "lpa.normal_form.terms_in": c("lpa.normal_form.terms_in"),
        "lpa.normal_form.terms_out": c("lpa.normal_form.terms_out"),
        "lpa.element_mul.s": s("lpa.element_mul"),
        "lpa.basis_monomials.s": s("lpa.basis_monomials"),
        "lpa.basis_monomials.size": c("lpa.basis_monomials.size"),
        "lpa.self_s": self_time["lpa"],
        "regularity.graded_inner_inverse.s": s("regularity.graded_inner_inverse"),
        "regularity.inner_inverse_field.s": s("regularity.inner_inverse_field"),
        "regularity.inner_inverse_laurent.s": s("regularity.inner_inverse_laurent"),
        "regularity.block_ranks.s": s("regularity.block_ranks"),
        "regularity.rank_sum": c("regularity.rank_sum"),
        "regularity.self_s": self_time["regularity"],
        "scalar.field_mul.calls": c("scalar.field_mul.calls"),
        "scalar.field_add.calls": c("scalar.field_add.calls"),
        "scalar.laurent_mul.calls": c("scalar.laurent_mul.calls"),
        "scalar.smith_normal_form.s": s("scalar.smith_normal_form"),
        "scalar.smith_normal_form.calls": calls["scalar.smith_normal_form"],
        "cli.load.s": s("cli.load_graph", "cli.load_element"),
        "cli.emit.s": s("cli.emit"),
        "cli.self_s": self_time["cli"],
    }
