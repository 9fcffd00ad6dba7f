"""The names the benchmark tracer patches must exist in the library."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for targets in tracer.PATCHES.values()
        for owner, name in targets
        if not hasattr(owner, name)
    ]
    assert tracer.PATCHES and missing == []
