"""The benchmark's span tracer must still find every callable it wraps.

perfbench/spans.py patches named attributes of the library; a renamed
function would break the traced benchmark run, so the wrapping is
exercised here on one small analyze call.
"""

import importlib.util
import json
import os

from ms_stability import cli, second_variation

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_eigen_spans(tmp_path, capsys):
    spans = load_spans()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
        "grid": {"nx": 32, "ny": 32},
        "eigen": {"compute_mu": True}}))
    original = second_variation.lambda1
    tracer = spans.Tracer("test")
    spans.install(tracer)
    try:
        code = cli.main(["analyze", "--config", str(cfg)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = {s["name"] for s in tracer.spans}
    assert {"second_variation.lambda1", "second_variation.mu"} <= names
    assert second_variation.lambda1 is original
