"""Every function the benchmark's span tracer wraps exists where it looks.

``perfbench/spans.py`` wraps each ``TARGETS`` entry through
``owner.__dict__[attr]``, so renaming or deleting a traced function breaks
``perfbench/run.py --trace 1``; these tests fail first, as they do when a
command imports a module that the tracer cannot see yet.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from test_cli import run_fresh

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


def test_tracer_wraps_every_target_after_cli_import():
    # perfbench/run.py imports liecheck.cli, then installs the tracer, which
    # rebinds a function only in the liecheck modules listed in sys.modules
    # at that moment; a module that a command imported later would run
    # unwrapped.  After uninstall no wrapper may be left behind.
    run_fresh(
        "import sys, types\n"
        f"sys.path.insert(0, {str(SPANS.parent)!r})\n"
        "import liecheck.cli\n"
        "import spans\n"
        "def owner(modname, cls_name):\n"
        "    module = sys.modules[modname]\n"
        "    return getattr(module, cls_name) if cls_name else module\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "bare = [f'{m}.{a}' for _, m, a, c in spans.TARGETS\n"
        "        if not hasattr(owner(m, c).__dict__[a], '__wrapped__')]\n"
        "if bare: sys.exit(f'not wrapped after install: {bare}')\n"
        "tracer.uninstall()\n"
        "left = [f'{name}.{key}' for name, module in list(sys.modules.items())\n"
        "        if name == 'liecheck' or name.startswith('liecheck.')\n"
        "        for key, value in vars(module).items()\n"
        "        if isinstance(value, types.FunctionType) and hasattr(value, '__wrapped__')]\n"
        "left += [f'{m}.{c}.{a}' for _, m, a, c in spans.TARGETS\n"
        "         if c and hasattr(owner(m, c).__dict__[a], '__wrapped__')]\n"
        "if left: sys.exit(f'still wrapped after uninstall: {left}')\n"
    )
