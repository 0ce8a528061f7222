"""Every function the benchmark's span tracer wraps exists where it looks.

``perfbench/spans.py`` wraps each ``TARGETS`` entry through
``owner.__dict__[attr]``, so renaming or deleting a traced function breaks
``perfbench/run.py --trace 1``; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name, modname, attr, cls_name", TARGETS,
                         ids=[f"{m}:{c + '.' if c else ''}{a}" for _, m, a, c in TARGETS])
def test_tracer_target_resolves(name, modname, attr, cls_name):
    module = importlib.import_module(modname)
    owner = getattr(module, cls_name) if cls_name else module
    assert callable(owner.__dict__[attr])
