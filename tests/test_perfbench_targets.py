"""Every wrap target of the repo benchmark's tracer names live code.

``perfbench/tracing.py`` wraps each ``TARGETS`` row by reading
``owner.__dict__[attr]``, so a renamed or deleted method breaks the traced
benchmark run.  This reads the table only; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,owner_name,attr,name,mode", _targets())
def test_target_is_defined_on_its_owner(module_name, owner_name, attr, name, mode):
    owner = getattr(importlib.import_module(module_name), owner_name)
    assert attr in owner.__dict__, f"{owner_name}.{attr} (traced as {name}) is gone"
