"""Every function the benchmark tracer wraps must exist in the library: a
renamed target would silently drop its per-layer metrics."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
TARGETS = (list(_T.SPANS)
           + [(mod, path) for mod, path, _group in _T.HOT]
           + [("exceptional", name) for name in _T.LEMMA_GENERATORS])


@pytest.mark.parametrize("mod, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_tracer_target_resolves(mod, path):
    # import the submodule itself: the package does not import every one (cli)
    obj = importlib.import_module(f"edgering.{mod}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
