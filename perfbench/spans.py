"""In-process span tracing of liecheck's public functions.

The tracer wraps functions and methods from the benchmark's side only; the
package is not modified.  A wrapped module-level function is rebound in every
``liecheck`` module namespace that holds it, so calls made through imported
names (``check_integrable`` -> ``check_nijenhuis`` -> ``check_admissible``)
appear as nested spans.  Methods are patched on their classes.

Each span is ``[name, start, end, parent, command]``; spans stay in memory
until the pass ends.  Inclusive time of a name sums its outermost spans; self
time subtracts the time covered by direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute, class or None)
TARGETS = (
    ("cli.main", "liecheck.cli", "main", None),
    ("specfile.parse", "liecheck.specfile", "parse", None),
    ("specfile.build", "liecheck.specfile", "build", None),
    ("algebra.from_matrix_generators", "liecheck.algebra", "from_matrix_generators", None),
    ("algebra.validate", "liecheck.algebra", "__init__", "LieAlgebra"),
    ("algebra.bracket", "liecheck.algebra", "bracket", "LieAlgebra"),
    ("exact.matmul", "liecheck.exact", "__matmul__", "ExactMatrix"),
    ("exact.apply", "liecheck.exact", "apply", "ExactMatrix"),
    ("exact.membership", "liecheck.exact", "coordinates_of", "Subspace"),
    ("exact.rref", "liecheck.exact", "rref", None),
    ("exact.kernel_basis", "liecheck.exact", "kernel_basis", None),
    ("operators.check_admissible", "liecheck.operators", "check_admissible", None),
    ("operators.construct", "liecheck.operators", "operator_ad", None),
    ("operators.construct", "liecheck.operators", "operator_from_rules", None),
    ("operators.construct", "liecheck.operators", "operator_left_mult", None),
    ("operators.construct", "liecheck.operators", "operator_right_mult", None),
    ("operators.construct", "liecheck.operators", "operator_sandwich", None),
    ("torsion.torsion_form", "liecheck.torsion", "torsion_form", None),
    ("torsion.check_nijenhuis", "liecheck.torsion", "check_nijenhuis", None),
    ("torsion.check_nijenhuis_ad", "liecheck.torsion", "check_nijenhuis_ad", None),
    ("complexstruct.compute_z_spaces", "liecheck.complexstruct", "compute_z_spaces", None),
    ("complexstruct.check_integrable", "liecheck.complexstruct", "check_integrable", None),
    ("complexstruct.split_diagnostics", "liecheck.complexstruct", "split_diagnostics", None),
    ("harness.run_harness", "liecheck.harness", "run_harness", None),
    ("harness.build_model", "liecheck.harness", "build_model", None),
    ("harness.relation_checks", "liecheck.harness", "relation_checks", None),
    ("harness.numerical_torsion", "liecheck.harness", "numerical_torsion", None),
    ("harness.bundle_map", "liecheck.harness", "bundle_map", None),
    ("harness.fd_bracket", "liecheck.harness", "fd_bracket", None),
)

_NAME, _START, _END, _PARENT, _CMD = range(5)


class Tracer:
    """Installs wrappers, collects spans and result counters for one pass."""

    def __init__(self):
        self.spans = []
        self.current = -1
        self.command = -1
        self.counters = defaultdict(int)
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = tracer.current
            rec = [name, clock(), 0.0, parent, tracer.command]
            tracer.current = len(spans)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                tracer.current = parent
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _on_membership(self, coords):
        self.counters["exact.membership.hits"] += coords is not None

    def _on_torsion_report(self, report):
        self.counters["torsion.pairs_checked"] += report.checked_pairs

    def install(self):
        """Wrap every target; :meth:`uninstall` restores the originals."""
        hooks = {
            "exact.membership": self._on_membership,
            "torsion.check_nijenhuis": self._on_torsion_report,
            "torsion.check_nijenhuis_ad": self._on_torsion_report,
        }
        packages = [m for k, m in sys.modules.items()
                    if m is not None and (k == "liecheck" or k.startswith("liecheck."))]
        for name, modname, attr, cls_name in TARGETS:
            module = importlib.import_module(modname)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hooks.get(name))
            if cls_name:
                self._rebind(owner, attr, original, wrapped)
                continue
            for mod in packages:
                if mod.__dict__.get(attr) is original:
                    self._rebind(mod, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def summarize(spans, counters) -> dict:
    """Per-name calls, inclusive ms of outermost spans, and self ms."""
    calls = defaultdict(int)
    incl = defaultdict(float)
    child_time = [0.0] * len(spans)
    for rec in spans:
        parent = rec[_PARENT]
        if parent >= 0:
            child_time[parent] += rec[_END] - rec[_START]
    selfs = defaultdict(float)
    for idx, rec in enumerate(spans):
        name = rec[_NAME]
        dur = rec[_END] - rec[_START]
        calls[name] += 1
        selfs[name] += dur - child_time[idx]
        parent = rec[_PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][_NAME] == name:
                nested = True
                break
            parent = spans[parent][_PARENT]
        if not nested:
            incl[name] += dur
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.ms"] = incl[name] * 1000.0
        out[f"{name}.self_ms"] = selfs[name] * 1000.0
    for key, value in counters.items():
        out[key] = value
    return out


def per_command(spans, name: str) -> dict:
    """Span counts of ``name`` per command index."""
    counts = defaultdict(int)
    for rec in spans:
        if rec[_NAME] == name:
            counts[rec[_CMD]] += 1
    return counts


def inclusive_by_command(spans, names) -> dict:
    """``{command: {name: ms}}`` for outermost spans of the given names."""
    out = defaultdict(lambda: defaultdict(float))
    wanted = set(names)
    for rec in spans:
        name = rec[_NAME]
        if name not in wanted:
            continue
        parent = rec[_PARENT]
        while parent >= 0 and spans[parent][_NAME] != name:
            parent = spans[parent][_PARENT]
        if parent < 0:
            out[rec[_CMD]][name] += (rec[_END] - rec[_START]) * 1000.0
    return out
