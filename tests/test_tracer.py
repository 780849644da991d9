"""The benchmark tracer still finds every function it wraps in the package."""

import importlib.util
from pathlib import Path

import hocohom.cli  # noqa: F401  (the tracer patches only modules already imported)
from hocohom import linalg, resolution

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_wraps_every_listed_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = (linalg.rank, resolution.rank, linalg.Matrix.__matmul__)
    tracer = tracer_module.Tracer()
    try:
        assert tracer.install() == []
        assert resolution.rank is not originals[0]
    finally:
        tracer.uninstall()
    assert (linalg.rank, resolution.rank, linalg.Matrix.__matmul__) == originals
