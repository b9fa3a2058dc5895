"""The benchmark's tracer wraps package attributes by name; they must resolve.

perfbench/tracing.py installs its spans on the (module, attribute) pairs
in BOUNDARIES and counts factorizations through gaussian.cho_factor. A
rename or removal of any of them breaks the traced benchmark run, so it
is caught here, in the test suite, as well as by `run.py --self-check`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return list(tracing.BOUNDARIES) + [("gaussian", "cho_factor")]


@pytest.mark.parametrize("module_name, qualname", boundaries())
def test_traced_attribute_resolves(module_name, qualname):
    module = importlib.import_module(f"woexplain.{module_name}")
    if "." in qualname:
        owner_name, attr = qualname.split(".")
        target = vars(getattr(module, owner_name)).get(attr)
    else:
        target = getattr(module, qualname, None)
    assert callable(target), f"woexplain.{module_name}.{qualname} no longer resolves"
