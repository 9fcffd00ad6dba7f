"""The benchmark tracer must find its names in the library, and must see and
restore every layer it patches."""

import importlib.util
from pathlib import Path

from freechaos import GridKernel, chaos, cli, theorems

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for targets in tracer.PATCHES.values()
        for owner, name in targets
        if not hasattr(owner, name)
    ]
    assert tracer.PATCHES and missing == []


def test_tracer_times_every_engine_and_restores_the_library(capsys):
    tracer = load_tracer()
    originals = {(owner, name): getattr(owner, name) for targets in tracer.PATCHES.values() for owner, name in targets}
    f = GridKernel.random_mirror_symmetric(1, 3, 0.7, 0)
    tr = tracer.Tracer()
    # a built class table would let moment_diagram skip nc0_classes
    chaos._diagram_terms.cache_clear()
    tr.install()
    try:
        for engine in (chaos.moment_product, chaos.moment_diagram, chaos.moment_trace_formula):
            engine(f, 4)
        theorems.fourth_moment_identity(f)
        code = cli.main(["nc", "--classes", "--m", "4", "--q", "2"])
    finally:
        tr.uninstall()
    assert (code, capsys.readouterr().out) == (0, "(m=4, q=2): 3 pairings, 0 with blocks > 2, 5 with blocks >= 2\n")
    layers = (
        "chaos.moment_product",
        "chaos.moment_diagram",
        "chaos.moment_trace_formula",
        "theorems.fourth_moment_identity",
        "cli.main",
        "partitions.nc0_classes",
        "kernels.diagram_integral",
    )
    spans = {layer: tr.spans.get(layer, [0, 0.0, 0.0]) for layer in layers}
    assert [layer for layer, (calls, _, total_s) in spans.items() if not (calls > 0 and total_s > 0)] == []
    assert [key for key, fn in originals.items() if getattr(*key) is not fn] == []
