"""The benchmark tracer still finds every function it wraps in the package,
and a traced request still runs as the untraced one does."""

import importlib.util
import json
from pathlib import Path

from hocohom import cli, linalg, resolution  # the tracer patches only imported modules
from hocohom.problem import load_problem

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_tracer_wraps_every_listed_function():
    tracer_module = _tracer_module()
    originals = (linalg.rank, resolution.rank, linalg.Matrix.__matmul__)
    tracer = tracer_module.Tracer()
    try:
        assert tracer.install() == []
        assert resolution.rank is not originals[0]
    finally:
        tracer.uninstall()
    assert (linalg.rank, resolution.rank, linalg.Matrix.__matmul__) == originals


def test_traced_verify_request_reports_as_the_untraced_one():
    # every counter reads the arguments of the function it wraps, so a
    # signature that drifted from the tracer's reading raises here
    tracer_module = _tracer_module()
    spec_path = ROOT / "specs" / "c2_f2.json"
    untraced = cli.cmd_verify(load_problem(spec_path))
    tracer = tracer_module.Tracer()
    try:
        assert tracer.install() == []
        with tracer.request(1):
            traced = cli.cmd_verify(load_problem(spec_path))
    finally:
        tracer.uninstall()
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)
    metrics = tracer.request_metrics(1)
    assert metrics["resolution.bar_calls"] > 0 and metrics["resolution.builds"] > 0
    assert "les.power_identification" in tracer.reached
