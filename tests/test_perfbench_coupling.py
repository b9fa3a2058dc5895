"""The benchmark's tracer wraps package attributes by name; they must resolve.

perfbench/tracing.py installs its spans on the (module, attribute) pairs
in BOUNDARIES, counts factorizations through gaussian.cho_factor and
reads ContrastParams().max_exhaustive_classes to count contrast
candidates. A rename or removal of any of them breaks the traced
benchmark run, so it is caught here, in the test suite, as well as by
`run.py --self-check`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def boundaries():
    return list(load_tracing().BOUNDARIES) + [("gaussian", "cho_factor")]


@pytest.mark.parametrize("module_name, qualname", boundaries())
def test_traced_attribute_resolves(module_name, qualname):
    module = importlib.import_module(f"woexplain.{module_name}")
    if "." in qualname:
        owner_name, attr = qualname.split(".")
        target = vars(getattr(module, owner_name)).get(attr)
    else:
        target = getattr(module, qualname, None)
    assert callable(target), f"woexplain.{module_name}.{qualname} no longer resolves"


def test_candidate_counter_reads_the_exhaustive_cap():
    """Without params, the candidate counter compares |V| with ContrastParams()'s cap."""
    from woexplain.contrast import ContrastParams

    tracing = load_tracing()
    cap = ContrastParams().max_exhaustive_classes
    counters = {"contrast.candidates": 0}
    tracing._count_candidates(counters, (range(cap),), {})
    tracing._count_candidates(counters, (range(cap + 1),), {})
    assert counters["contrast.candidates"] == 2 ** (cap - 1) - 1
