"""The benchmark's span tracer must still find every callable it wraps.

perfbench/spans.py patches named attributes of the library; a renamed
function would break the traced benchmark run, so the wrapping is
exercised here on one small analyze call, one two-point phase-diagram,
whose per-point spans give the cli.point_s metrics, and one validate,
whose solve spans give the state and transport metrics.
"""

import importlib.util
import json
import os

import pytest

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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_tracer_records_one_span_per_lattice_point(tmp_path, capsys, jobs):
    spans = load_spans()
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps({
        "geometry": {"kind": "strip", "a_values": [1.0],
                     "b_values": [1.0, 2.0]},
        "grid": {"nx": 32, "ny": 32}}))
    tracer = spans.Tracer("test")
    spans.install(tracer)
    try:
        # a root span, as perfbench/child.py opens one; --jobs is ignored,
        # so under either value the point spans open on this thread
        with tracer.span("cli.main"):
            code = cli.main(["phase-diagram", "--config", str(cfg),
                             "--jobs", jobs])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    points = [s for s in tracer.spans if s["name"] == "cli._phase_point"]
    assert len(points) == 2
    for point in points:
        eigen = [s for s in tracer.spans
                 if s["name"] == "second_variation.lambda1"
                 and s["parent"] == point["id"]]
        assert len(eigen) == 1


def test_tracer_records_the_validate_solves(tmp_path, capsys):
    spans = load_spans()
    cfg = tmp_path / "validate.json"
    cfg.write_text(json.dumps({
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
        "grid": {"nx": 32, "ny": 32}}))
    tracer = spans.Tracer("test")
    spans.install(tracer)
    try:
        code = cli.main(["validate", "--config", str(cfg)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = [s["name"] for s in tracer.spans]
    # one state on the base curve; the flow solves four flowed curves one
    # half strip at a time, two sides each; and the two sides of the one
    # transport solve
    assert names.count("elliptic.StripSystem") == 1
    assert names.count("elliptic.solve_state") == 1
    assert names.count("elliptic._Component.solve") == 12
    by_id = {s["id"]: s for s in tracer.spans}
    jump = [s for s in tracer.spans if s["name"] == "elliptic.solve_jump_source"]
    assert len(jump) == 1
    assert by_id[jump[0]["parent"]]["name"] == \
        "second_variation.second_variation_value"
