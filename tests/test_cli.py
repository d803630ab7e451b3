"""End-to-end checks of the command-line interface."""

import json
import math
import pathlib
import re

import pytest

from ms_stability.analytic_oracle import lambda1_strip, mode_lambda
from ms_stability.cli import main
from ms_stability.config import parse_config
from ms_stability.errors import ConfigInvalid


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def strip_config(tmp_path, a=1.0, b=1.0, n=32, **extra):
    data = {"geometry": {"kind": "strip", "a": a, "b": b},
            "grid": {"nx": n, "ny": n}}
    data.update(extra)
    return write_config(tmp_path, "cfg.json", data)


# an integer JSON literal too large for a float: 1 followed by 400 zeros
HUGE = 10 ** 400


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_stable_strip(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    assert report["verdict"] == "strictly_stable"
    lam = report["results"]["lambda1"]
    assert lam["provenance"] == "numeric"
    ref = report["results"]["lambda1_analytic_flat"]
    assert ref["provenance"] == "analytic"
    assert abs(lam["value"] - ref["value"]) <= 0.02 * ref["value"]
    assert report["results"]["sup_residual"]["value"] < 1e-10
    eigen = report["stats"]["eigen"]
    assert eigen["method"] == "dense_eigh"
    assert eigen["size"] == 31  # mean-zero restriction of 32 curve nodes
    leading = eigen["leading"]
    assert len(leading) == 3
    assert all(v["provenance"] == "numeric" for v in leading)
    assert leading[0]["value"] == lam["value"]
    # the cos/sin pair of the leading mode
    assert leading[1]["value"] == pytest.approx(leading[0]["value"], rel=1e-9)


def test_analyze_unstable_strip(tmp_path, capsys):
    cfg = strip_config(tmp_path, b=2.0)
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 3
    assert report["verdict"] == "unstable"
    assert report["results"]["lambda1"]["value"] > 1.02


def test_analyze_marginal_strip(tmp_path, capsys):
    # lambda_1 -> 1 as a -> inf at b = pi/2, well inside the default band
    cfg = strip_config(tmp_path, a=2.0, b=math.pi / 2.0)
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 4
    assert report["verdict"] == "marginal"


def test_analyze_with_mu(tmp_path, capsys):
    cfg = strip_config(tmp_path, eigen={"compute_mu": True})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    mu = report["results"]["mu"]
    lam = report["results"]["lambda1"]
    assert mu["provenance"] == "numeric"
    assert mu["value"] == pytest.approx(1.0 / lam["value"], rel=1e-5)


def test_analyze_segment_verdicts(tmp_path, capsys):
    stable = write_config(tmp_path, "seg1.json", {
        "geometry": {"kind": "segment", "length": 1.0, "h1": -1.0, "h2": -1.0}})
    code, report = run_json(capsys, ["analyze", "--config", stable])
    assert code == 0
    assert report["results"]["min_eig"]["value"] > 0.0
    assert report["results"]["second_variation_constant"]["value"] == 2.0
    assert report["results"]["mu"]["infinite"] is True

    unstable = write_config(tmp_path, "seg2.json", {
        "geometry": {"kind": "segment", "length": 1.0, "h1": 3.0, "h2": 3.0}})
    code, report = run_json(capsys, ["analyze", "--config", unstable])
    assert code == 3
    assert report["results"]["min_eig"]["value"] < 0.0


def test_phase_diagram_schema_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, "lattice.json", {
        "geometry": {"kind": "strip", "a_values": [1.0], "b_values": [1.0, 2.0]},
        "grid": {"nx": 32, "ny": 32}})
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["phase-diagram", "--config", cfg, "--out", str(out1),
                 "--jobs", "2"]) == 0
    assert main(["phase-diagram", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == ("a,b,lambda1_numeric,lambda1_analytic,verdict,"
                        "grid_nx,grid_ny,residual")
    assert len(lines) == 3
    stable = lines[1].split(",")
    unstable = lines[2].split(",")
    assert (float(stable[0]), float(stable[1])) == (1.0, 1.0)
    assert stable[4] == "strictly_stable"
    assert unstable[4] == "unstable"
    # numeric and closed-form leading values agree along the sweep
    for row in (stable, unstable):
        assert float(row[2]) == pytest.approx(float(row[3]), rel=0.02)
        assert float(row[7]) < 1e-10
        assert row[5] == row[6] == "32"


def test_phase_diagram_empty_lattice(tmp_path, capsys):
    cfg = write_config(tmp_path, "empty.json", {
        "geometry": {"kind": "strip", "a_values": [], "b_values": [1.0]}})
    code = main(["phase-diagram", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ("a,b,lambda1_numeric,lambda1_analytic,verdict,"
                   "grid_nx,grid_ny,residual\n")


def test_phase_diagram_requires_lattice(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    code = main(["phase-diagram", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 1
    assert "ConfigInvalid" in err and "a_values" in err


def test_unknown_key_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
        "grid": {"nx": 32, "nz": 5}})
    code = main(["analyze", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: ConfigInvalid" in err
    assert "grid.nz" in err


def test_odd_mode_is_surfaced(tmp_path, capsys):
    cfg = strip_config(tmp_path, eigen={"modes": [3]})
    code = main(["compare", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: OddMode" in err


def test_validate_passes_on_flat_interface(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    code, report = run_json(capsys, ["validate", "--config", cfg])
    assert code == 0
    assert report["passed"] is True
    assert report["results"]["fd_second"]["provenance"] == "fd"
    assert report["results"]["assembled_second"]["provenance"] == "numeric"
    fd = report["results"]["fd_second"]["value"]
    assembled = report["results"]["assembled_second"]["value"]
    assert fd == pytest.approx(assembled, rel=0.05)
    assert abs(report["results"]["fd_first"]["value"]) <= 1e-4 * 3.0


def test_validate_flags_noncritical_curve(tmp_path, capsys):
    cfg = write_config(tmp_path, "bent.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                     "curve": {"mode": 1, "amplitude": 0.05}},
        "grid": {"nx": 32, "ny": 32}})
    code, report = run_json(capsys, ["validate", "--config", cfg])
    assert code == 2
    assert report["passed"] is False
    assert report["criticality"]["non_critical"] is True
    assert report["checks"]["first_ok"] is False


def test_compare_passes_for_resolved_mode(tmp_path, capsys):
    cfg = strip_config(tmp_path, eigen={"modes": [2]})
    code = main(["compare", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "order" in out


def test_compare_fails_on_underresolved_modes(tmp_path, capsys):
    # modes 4 and 6 exceed the 2% gate on a 32^2 grid; the command says so
    cfg = strip_config(tmp_path, eigen={"modes": [2, 4, 6]})
    code = main(["compare", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out


def test_compare_json_report(tmp_path, capsys):
    cfg = strip_config(tmp_path, eigen={"modes": [2]})
    out_path = tmp_path / "compare.json"
    code = main(["compare", "--config", cfg, "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["modes"][0]["analytic"]["provenance"] == "analytic"
    assert all(row["order"]["value"] >= 1.8 for row in report["fields"])


def test_compare_needs_a_coarser_grid(tmp_path, capsys):
    # the coarse grid is max(16, nx // 2), so nx = 16 has none
    cfg = strip_config(tmp_path, n=16, eigen={"modes": [2]})
    code = main(["compare", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigInvalid: ")
    assert "grid.nx" in captured.err


def test_oracle_strip_values(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    code, report = run_json(capsys, ["oracle", "--config", cfg])
    assert code == 0
    assert report["results"]["lambda1"]["value"] == pytest.approx(
        (2.0 / math.pi) * math.tanh(2.0 * math.pi), rel=1e-14)
    assert report["results"]["modes"]["4"]["provenance"] == "analytic"


def test_oracle_segment_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "seg.json", {
        "geometry": {"kind": "segment", "length": 1.0, "h1": 3.0, "h2": 3.0}})
    code, report = run_json(capsys, ["oracle", "--config", cfg])
    assert code == 3
    assert report["results"]["second_variation_constant"]["value"] == -6.0


def test_seed_settings_leave_the_report_unchanged(tmp_path, capsys,
                                                  monkeypatch):
    # nothing is randomized: MS_STABILITY_SEED is not read and the
    # deprecated eigen.seed is accepted but dropped
    monkeypatch.delenv("MS_STABILITY_SEED", raising=False)
    plain = strip_config(tmp_path)
    assert main(["analyze", "--config", plain]) == 0
    reference = capsys.readouterr().out

    monkeypatch.setenv("MS_STABILITY_SEED", "not-a-number")
    assert main(["analyze", "--config", plain]) == 0
    assert capsys.readouterr().out == reference
    monkeypatch.delenv("MS_STABILITY_SEED")

    for seed in (7, 12345):
        cfg = write_config(tmp_path, "seed%d.json" % seed, {
            "geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
            "grid": {"nx": 32, "ny": 32}, "eigen": {"seed": seed}})
        assert main(["analyze", "--config", cfg]) == 0
        assert capsys.readouterr().out == reference


def test_cli_overrides(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    code, report = run_json(capsys, [
        "analyze", "--config", cfg, "--grid", "48,32",
        "--restriction", "endpoint_zero"])
    assert code == 0
    assert report["config"]["grid_nx"] == 48
    assert report["config"]["grid_ny"] == 32
    assert report["config"]["restriction"] == "endpoint_zero"

    assert main(["analyze", "--config", cfg, "--grid", "48"]) == 1
    assert "--grid" in capsys.readouterr().err


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    out_path = tmp_path / "report.json"
    code = main(["analyze", "--config", cfg, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert json.loads(out_path.read_text())["verdict"] == "strictly_stable"


def test_jobs_must_be_positive(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    assert main(["analyze", "--config", cfg, "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "ConfigInvalid" in capsys.readouterr().err


@pytest.mark.parametrize("data,needle", [
    ({"geometry": {"kind": "disk"}}, "geometry.kind"),
    ({"geometry": {"kind": "strip", "a": -1.0, "b": 1.0}}, "geometry.a"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "eigen": {"restriction": "diagonal"}}, "restriction"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "validate": {"flow": {"kind": "spiral"}}}, "validate.flow.kind"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "output": {"format": "xml"}}, "output.format"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"m": 32, "heights": [0.0] * 16}}},
     "geometry.curve.heights"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "boundary": {"top": {"cos": [[0, 1.0]]}}}},
     "geometry.boundary.top.cos"),
    ({"geometry": {"kind": "segment", "length": 1.0, "h1": 1.0}},
     "geometry.h2"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"heights": 5, "amplitude": 0.05}}},
     "geometry.curve.heights"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"heights": {"x": 1}, "mode": 2}}},
     "geometry.curve.heights"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "boundary": {"top": {"cos": [[1, math.nan]]}}}},
     "geometry.boundary.top.cos[0]"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "boundary": {"top": {"cos": [[2, 0.1], [1, True]]}}}},
     "geometry.boundary.top.cos[1]"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "eigen": {"tol": 1e-8}}, "eigen.tol"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "eigen": {"max_iter": 200}}, "eigen.max_iter"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "eigen": {"seed": "7"}}, "eigen.seed"),
    # integer literals beyond the float range, one per place a number is read
    ({"geometry": {"kind": "strip", "a": HUGE, "b": 1.0}}, "geometry.a"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "boundary": {"top": {"sin": [[1, -HUGE]]}}}},
     "geometry.boundary.top.sin[0]"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"heights": [0.0] * 15 + [HUGE]}}},
     "geometry.curve.heights[15]"),
    ({"geometry": {"kind": "strip", "a_values": [1.0, HUGE],
                   "b_values": [1.0]}}, "geometry.a_values[1]"),
    ({"geometry": {"kind": "strip", "a_values": [1.0],
                   "b_values": [HUGE]}}, "geometry.b_values[0]"),
], ids=["kind", "negative-a", "restriction", "flow-kind", "format",
        "heights-length", "overtone-mode", "missing-h2",
        "heights-number-with-sine-keys", "heights-object-with-sine-keys",
        "overtone-amplitude-nan", "overtone-amplitude-bool", "eigen-tol",
        "eigen-max-iter", "eigen-seed-type", "huge-number",
        "huge-overtone-amplitude", "huge-height", "huge-a-value",
        "huge-b-value"])
def test_config_rejections(data, needle):
    with pytest.raises(ConfigInvalid, match=re.escape(needle)):
        parse_config(data)


def test_boundary_overtones_are_applied():
    import numpy as np

    cfg = parse_config({
        "geometry": {"kind": "strip", "a": 1.0, "b": 2.0,
                     "boundary": {"top": {"slope": 0.5, "constant": 2.0,
                                          "cos": [[1, 1.0]],
                                          "sin": [[2, 0.25]]}}}})
    datum = cfg.geometry.top.to_boundary_data(2.0)
    assert datum.slope == 0.5
    x = np.linspace(0.0, 2.0, 9)
    expect = 2.0 + np.cos(np.pi * x) + 0.25 * np.sin(2.0 * np.pi * x)
    assert np.allclose(datum.sample(x), expect, atol=1e-14)


def test_constant_datum_gives_tiny_operator(tmp_path, capsys):
    # piecewise-constant state: the tangential derivative is pure solver
    # noise (~1e-15), so lambda_1 is noise squared but the jump is healthy
    cfg = write_config(tmp_path, "const.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                     "boundary": {"top": {"slope": 0.0, "constant": 2.0},
                                  "bottom": {"slope": 0.0}}},
        "grid": {"nx": 32, "ny": 32}})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    assert report["verdict"] == "strictly_stable"
    assert abs(report["results"]["lambda1"]["value"]) < 1e-12
    assert report["results"]["min_jump"]["value"] == pytest.approx(2.0, abs=1e-12)


def test_zero_data_gives_empty_operator(tmp_path, capsys):
    # identically zero state: the coupling vanishes exactly, the
    # eigensolve reports a zero operator and the dual value is +inf
    cfg = write_config(tmp_path, "zero.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                     "boundary": {"top": {"slope": 0.0},
                                  "bottom": {"slope": 0.0}}},
        "grid": {"nx": 32, "ny": 32},
        "eigen": {"compute_mu": True}})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    assert report["results"]["lambda1"]["value"] == 0.0
    assert report["results"]["mu"]["infinite"] is True
    notes = " ".join(report["notes"])
    assert "operator is zero" in notes and "empty constraint" in notes
    assert "jump degenerates" in notes
    # no eigensolve ran, and the report says so
    eigen = report["stats"]["eigen"]
    assert eigen["method"] == "none"
    assert eigen["size"] == 31
    assert [v["value"] for v in eigen["leading"]] == [0.0, 0.0, 0.0]


# wall slopes (s+, s-) with the mean squared slope by which they scale T
SLOPED_WALLS = [
    ({"top": {"slope": 0.5, "constant": 1.0}, "bottom": {"slope": -0.5}}, 0.25),
    ({"top": {"slope": 2.0, "constant": 1.0}, "bottom": {"slope": 0.0}}, 2.0),
]


@pytest.mark.parametrize("boundary,scale", SLOPED_WALLS,
                         ids=["slopes-half", "slopes-2-0"])
def test_analyze_closed_form_follows_the_wall_slopes(tmp_path, capsys,
                                                     boundary, scale):
    cfg = write_config(tmp_path, "walls.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0, "boundary": boundary},
        "grid": {"nx": 32, "ny": 32}})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code in (0, 3)   # slopes (2, 0) make the pair unstable
    ref = report["results"]["lambda1_analytic_flat"]["value"]
    assert ref == pytest.approx(scale * lambda1_strip(1.0, 1.0), rel=1e-15)
    lam = report["results"]["lambda1"]["value"]
    assert lam == pytest.approx(ref, rel=0.02)


@pytest.mark.parametrize("boundary,scale", SLOPED_WALLS,
                         ids=["slopes-half", "slopes-2-0"])
def test_phase_diagram_closed_form_follows_the_wall_slopes(tmp_path, capsys,
                                                           boundary, scale):
    cfg = write_config(tmp_path, "walls.json", {
        "geometry": {"kind": "strip", "a_values": [1.0], "b_values": [1.0, 2.0],
                     "boundary": boundary},
        "grid": {"nx": 32, "ny": 32}})
    assert main(["phase-diagram", "--config", cfg]) == 0
    rows = [line.split(",")
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert [float(row[1]) for row in rows] == [1.0, 2.0]
    for row in rows:
        ref = float(row[3])
        assert ref == pytest.approx(scale * lambda1_strip(1.0, float(row[1])),
                                    rel=1e-8)
        assert float(row[2]) == pytest.approx(ref, rel=0.02)


@pytest.mark.parametrize("boundary,scale", SLOPED_WALLS,
                         ids=["slopes-half", "slopes-2-0"])
def test_oracle_follows_the_wall_slopes(tmp_path, capsys, boundary, scale):
    cfg = write_config(tmp_path, "walls.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0, "boundary": boundary},
        "grid": {"nx": 32, "ny": 32}})
    code, report = run_json(capsys, ["oracle", "--config", cfg])
    results = report["results"]
    assert results["lambda1"]["value"] == pytest.approx(
        scale * lambda1_strip(1.0, 1.0), rel=1e-15)
    for n in (2, 4, 6):
        assert results["modes"][str(n)]["value"] == pytest.approx(
            scale * mode_lambda(n, 1.0, 1.0), rel=1e-15)
    # the closed-form verdict is the one the solver reaches
    analyze_code, analyze = run_json(capsys, ["analyze", "--config", cfg])
    assert (code, report["verdict"]) == (analyze_code, analyze["verdict"])


def test_oracle_refuses_overtone_walls(tmp_path, capsys):
    cfg = write_config(tmp_path, "overtone.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                     "boundary": {"bottom": {"slope": -1.0,
                                             "cos": [[2, 0.1]]}}}})
    assert main(["oracle", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConfigInvalid" in captured.err
    assert "geometry.boundary" in captured.err


def test_overtone_walls_have_no_closed_form(tmp_path, capsys):
    geometry = {"kind": "strip", "a": 1.0, "b": 1.0, "a_values": [1.0],
                "b_values": [1.0],
                "boundary": {"top": {"slope": 1.0, "constant": 1.0,
                                     "sin": [[1, 0.1]]}}}
    cfg = write_config(tmp_path, "overtone.json", {
        "geometry": geometry, "grid": {"nx": 32, "ny": 32}})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    assert "lambda1_analytic_flat" not in report["results"]
    assert main(["phase-diagram", "--config", cfg]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[3] == "nan"
    assert math.isfinite(float(row[2]))


def test_compare_ignores_the_configured_walls(tmp_path, capsys):
    # compare probes the canonical wall pair whatever geometry.boundary says
    reports = []
    for name, boundary in (("plain", None),
                           ("walls", {"top": {"slope": 0.5, "constant": 3.0,
                                              "cos": [[1, 0.2]]},
                                      "bottom": {"slope": -2.0}})):
        geometry = {"kind": "strip", "a": 1.0, "b": 1.0}
        if boundary is not None:
            geometry["boundary"] = boundary
        cfg = write_config(tmp_path, name + ".json", {
            "geometry": geometry, "grid": {"nx": 32, "ny": 32},
            "eigen": {"modes": [2]}})
        out_path = tmp_path / (name + "-compare.json")
        assert main(["compare", "--config", cfg, "--out", str(out_path)]) == 0
        reports.append(out_path.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_readme_config_block_parses():
    # the README's annotated configuration must stay a valid config
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```jsonc\n(.*?)```", readme.read_text(), re.S).group(1)
    text = "\n".join(line.split("//")[0] for line in block.splitlines())
    cfg = parse_config(json.loads(text))
    assert cfg.geometry.kind == "strip"
