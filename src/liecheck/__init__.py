"""Exact verdicts for operators on homogeneous pairs of Lie algebras.

The package decides, in exact rational arithmetic, whether a linear operator
on a finite-dimensional Lie algebra descends to a homogeneous bundle map
(admissibility), whether the induced map is a Nijenhuis operator (torsion
values inside the subalgebra), and whether an induced almost complex
structure is integrable (the subspace Z+ of the complexification closed
under the bracket).  A floating-point harness cross-validates the algebraic
torsion criterion against finite-difference brackets on concrete matrix
models.

The public names resolve on first use: ``from liecheck import
check_integrable`` loads the modules that name needs, and importing the
package loads none of them.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# The harness's defaults and the bounds that harness.run_harness checks,
# kept here so that the command line prints them without loading the harness.
DEFAULT_SAMPLES = 20
DEFAULT_STEP = 1e-4
DEFAULT_SEED = 0
MAX_SAMPLES = 10 ** 6
MIN_STEP = 1e-8
MAX_STEP = 1e-1

_EXPORTS = {
    "algebra": ("LieAlgebra", "Subalgebra", "from_matrix_generators", "make_subalgebra"),
    "complexstruct": ("IntegrabilityReport", "SplitDiagnostics", "check_integrable",
                      "compute_z_spaces", "split_diagnostics"),
    "errors": ("LieCheckError",),
    "exact": ("ExactMatrix", "GaussianRational", "Rational", "Subspace", "format_scalar",
              "kernel_basis", "parse_scalar", "rref", "subspace_intersection",
              "subspace_sum"),
    "operators": ("HomogeneousPair", "LinearOperator", "VerdictReport", "check_admissible",
                  "operator_ad", "operator_from_rules", "operator_left_mult",
                  "operator_right_mult", "operator_sandwich"),
    "torsion": ("TorsionReport", "check_nijenhuis", "check_nijenhuis_ad", "torsion_form"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


# One lock for every first run, so that lazy modules that use each other
# cannot wait on each other's locks; the names of the modules running now.
_LOAD_LOCK = threading.RLock()
_LOADING = set()


class _LazyModule(types.ModuleType):
    """A module whose code has not run yet.  The first attribute access runs
    it under ``_LOAD_LOCK`` and only then makes it a plain module, so a
    second thread waits for the run instead of reading a half-run module.
    (``importlib.util.LazyLoader`` before Python 3.13 makes its placeholder
    a plain module before running the code.)  An access from the run itself
    reads what the module holds so far, as an import cycle does."""

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            spec = types.ModuleType.__getattribute__(self, "__spec__")
            if type(self) is _LazyModule and spec.name not in _LOADING:
                _LOADING.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                finally:
                    _LOADING.discard(spec.name)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def _lazy_module(name: str):
    """The submodule ``name`` (such as ``"liecheck.harness"``), placed in
    ``sys.modules`` and on its package now, and run on first attribute
    access (or when an import statement names it).

    A module that is already imported is returned as it is.  The placeholder
    is visible to code that walks ``sys.modules``, unlike a module imported
    inside a function later.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        module.__class__ = _LazyModule
        sys.modules[name] = module
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)
    return module
