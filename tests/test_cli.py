"""End-to-end checks of the command-line interface."""

import argparse
import copy
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import ms_stability
from ms_stability import cli, elliptic
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
    # the flat pair with linear walls takes the spectrum from its symbols
    assert eigen["method"] == "circulant_symbol"
    assert eigen["size"] == 31  # mean-zero restriction of 32 curve nodes
    leading = eigen["leading"]
    assert len(leading) == 3
    assert all(v["provenance"] == "numeric" for v in leading)
    assert leading[0]["value"] == lam["value"]
    # the cos/sin pair of the leading mode, one symbol value
    assert leading[1]["value"] == leading[0]["value"]


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


def test_segment_node_count_and_floor_are_the_library_ones(tmp_path, capsys):
    # with no geometry.m the CLI meshes the segment as the library does,
    # and the library refuses the node counts the config refuses
    cfg = write_config(tmp_path, "seg.json", {
        "geometry": {"kind": "segment", "length": 1.0, "h1": -1.0, "h2": -1.0}})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    seg = ms_stability.SegmentConfig(1.0, -1.0, -1.0)
    assert report["results"]["min_eig"]["value"] == ms_stability.segment_min_eig(seg)
    with pytest.raises(ValueError, match="at least 16 nodes"):
        ms_stability.segment_min_eig(seg, m=15)


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


def test_phase_diagram_runs_every_point_on_the_calling_thread(
        tmp_path, capsys, monkeypatch):
    # --jobs is accepted but ignored: each point runs in order on the
    # thread that called main, and the CSV bytes do not depend on N.
    cfg = write_config(tmp_path, "lattice.json", {
        "geometry": {"kind": "strip", "a_values": [0.5, 1.0],
                     "b_values": [1.0, 2.0]},
        "grid": {"nx": 16, "ny": 16}})
    threads = []
    point = cli._phase_point

    def recording_point(*args):
        threads.append(threading.get_ident())
        return point(*args)

    monkeypatch.setattr(cli, "_phase_point", recording_point)
    outputs = []
    for jobs in ("1", "2", "5"):
        out = tmp_path / ("jobs%s.csv" % jobs)
        assert main(["phase-diagram", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 0
        outputs.append(out.read_bytes())
    assert threads == [threading.get_ident()] * 12
    assert outputs[0] == outputs[1] == outputs[2]


def test_phase_diagram_assembles_one_side_per_point(tmp_path, capsys, monkeypatch):
    # Every lattice point is the midline, whose lower side is the upper
    # one, so a 2 x 2 lattice assembles four sides, not eight.
    cfg = write_config(tmp_path, "lattice.json", {
        "geometry": {"kind": "strip", "a_values": [0.5, 1.0],
                     "b_values": [1.0, 2.0]},
        "grid": {"nx": 16, "ny": 16}})
    calls = []
    init = elliptic._Component.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(elliptic._Component, "__init__", counting_init)
    assert main(["phase-diagram", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert len(calls) == 4


def test_phase_diagram_shares_one_gram_per_distinct_period(
        tmp_path, capsys, monkeypatch):
    # b_values unsorted with a duplicate: one Cholesky factor per distinct
    # b, rows in a-major order, and each row's lambda_1 equal to that of
    # a one-point analyze, which builds its own Gram.  The cos overtone on
    # the top wall keeps the pair off the circulant route, which factors
    # no Gram at all.
    a_values, b_values = [0.5, 1.0, 2.0], [2.0, 0.5, 2.0]
    boundary = {"top": {"slope": 1.0, "constant": 1.0, "cos": [[1, 0.1]]}}
    cfg = write_config(tmp_path, "lattice.json", {
        "geometry": {"kind": "strip", "a_values": a_values,
                     "b_values": b_values, "boundary": boundary},
        "grid": {"nx": 32, "ny": 32}})
    factored = []
    cholesky = np.linalg.cholesky

    def counting(mat):
        factored.append(mat.shape)
        return cholesky(mat)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    assert main(["phase-diagram", "--config", cfg]) == 0
    assert len(factored) == 2
    monkeypatch.undo()
    rows = [line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:]]
    assert [(float(r[0]), float(r[1])) for r in rows] == \
        [(a, b) for a in a_values for b in b_values]
    for row in rows:
        a, b = float(row[0]), float(row[1])
        point = write_config(tmp_path, "point.json", {
            "geometry": {"kind": "strip", "a": a, "b": b,
                         "boundary": boundary},
            "grid": {"nx": 32, "ny": 32}})
        _, report = run_json(capsys, ["analyze", "--config", point])
        assert report["stats"]["eigen"]["method"] == "dense_eigh"
        assert row[2] == cli._fmt(report["results"]["lambda1"]["value"])


def test_phase_diagram_empty_lattice(tmp_path, capsys):
    # an empty axis is refused at parse, not answered with a bare CSV header
    cfg = write_config(tmp_path, "empty.json", {
        "geometry": {"kind": "strip", "a_values": [], "b_values": [1.0]}})
    code = main(["phase-diagram", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigInvalid: geometry.a_values "
                                   "must be a non-empty list")


@pytest.mark.parametrize("curve", [
    {"mode": 1, "amplitude": 0.3}, {"heights": [0.0] * 32}])
def test_phase_diagram_refuses_a_curve(tmp_path, capsys, curve):
    # every lattice point is solved on the flat curve, so a configured
    # curve would be dropped unread
    cfg = write_config(tmp_path, "curved.json", {
        "geometry": {"kind": "strip", "a_values": [1.0], "b_values": [1.0],
                     "curve": curve},
        "grid": {"nx": 32, "ny": 32}})
    assert main(["phase-diagram", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConfigInvalid" in captured.err and "geometry.curve" in captured.err


def test_heights_must_match_the_grid_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, "heights.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                     "curve": {"heights": [0.0] * 16}},
        "grid": {"nx": 32, "ny": 32}})
    assert main(["analyze", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "ConfigInvalid" in err and "geometry.curve.heights" in err
    assert "grid.nx = 32" in err


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


def test_duplicate_key_is_named(tmp_path, capsys):
    # json keeps the last of two equal keys; the config must not run at nx = 32
    path = tmp_path / "dup.json"
    path.write_text('{"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},'
                    ' "grid": {"nx": 64, "nx": 32, "ny": 32}}')
    code = main(["analyze", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: ConfigInvalid: duplicate key 'nx'" in err


def test_odd_mode_is_accepted(tmp_path, capsys):
    # a mode k is cos(2 pi k x / b), b-periodic for every integer k >= 1
    cfg = strip_config(tmp_path, eigen={"modes": [1, 3]})
    code, report = run_json(capsys, ["oracle", "--config", cfg])
    assert code == 0
    modes = report["results"]["modes"]
    assert list(modes) == ["1", "3"]
    assert modes["3"]["value"] == mode_lambda(3, 1.0, 1.0)


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


@pytest.mark.parametrize("flow", [
    None,
    {"kind": "cos", "mode": 2, "amplitude": 0.5},
    {"kind": "const", "amplitude": -2.0},
])
def test_validate_reports_the_flow_it_ran(tmp_path, capsys, flow):
    extra = {} if flow is None else {"validate": {"flow": flow}}
    cfg = strip_config(tmp_path, **extra)
    _, report = run_json(capsys, ["validate", "--config", cfg])
    expected = {"amplitude": 1.0, "kind": "sin", "mode": 1}
    expected.update(flow or {})
    assert report["config"]["flow"] == expected


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


def test_sampled_heights_analyze_as_the_sine_they_sample(tmp_path, capsys):
    # a geometry.curve.heights list builds the same curve as the sine keys
    n = 32
    heights = (0.05 * np.sin(2.0 * np.pi * np.arange(n) / n)).tolist()
    outputs = []
    for curve in ({"heights": heights}, {"mode": 1, "amplitude": 0.05}):
        cfg = write_config(tmp_path, "curve.json", {
            "geometry": {"kind": "strip", "a": 1.0, "b": 1.0, "curve": curve},
            "grid": {"nx": n, "ny": n}, "eigen": {"compute_mu": True}})
        code = main(["analyze", "--config", cfg])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_validate_constant_flow_translates_the_flat_pair(tmp_path, capsys):
    # criterion 5 through the CLI: a constant normal flow translates the
    # flat pair, whose energy does not change along it
    cfg = strip_config(tmp_path, validate={"flow": {"kind": "const"}})
    code, report = run_json(capsys, ["validate", "--config", cfg])
    assert code == 0
    assert report["checks"] == {"first_ok": True, "second_ok": True}
    for key in ("fd_second", "assembled_second", "assembled_dual"):
        assert abs(report["results"][key]["value"]) <= 1e-12


def test_compare_passes_for_resolved_mode(tmp_path, capsys):
    cfg = strip_config(tmp_path, eigen={"modes": [1]})
    code, report = run_json(capsys, ["compare", "--config", cfg])
    assert code == report["exit_code"] == 0
    assert report["passed"] is True
    assert [row["solve"] for row in report["fields"]] == ["state", "jump"]


def test_compare_fails_on_underresolved_modes(tmp_path, capsys):
    # modes 2 and 3 exceed the 2% gate on a 32^2 grid; the report says so
    cfg = strip_config(tmp_path, eigen={"modes": [1, 2, 3]})
    code, report = run_json(capsys, ["compare", "--config", cfg])
    assert code == report["exit_code"] == 2
    assert report["passed"] is False
    assert [row["rel_error"]["value"] > 0.02 for row in report["modes"]] == [
        False, True, True]


def test_compare_json_report(tmp_path, capsys):
    cfg = strip_config(tmp_path, eigen={"modes": [1]})
    out_path = tmp_path / "compare.json"
    code = main(["compare", "--config", cfg, "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["modes"][0]["analytic"]["provenance"] == "analytic"
    assert all(row["order"]["value"] >= 1.8 for row in report["fields"])


def test_compare_needs_a_coarser_grid(tmp_path, capsys):
    # the coarse grid is max(16, nx // 2), so nx = 16 has none
    cfg = strip_config(tmp_path, n=16, eigen={"modes": [1]})
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
    assert report["results"]["modes"]["2"]["provenance"] == "analytic"


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


def test_cli_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = strip_config(tmp_path, output={"path": "configured.json"})
    out_path = tmp_path / "report.json"
    code = main(["analyze", "--config", cfg, "--grid", "48,32",
                 "--restriction", "endpoint_zero", "--out", str(out_path)])
    assert capsys.readouterr().out == ""
    report = json.loads(out_path.read_text())
    assert not (tmp_path / "configured.json").exists()
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


@pytest.mark.parametrize("command,out", [
    ("analyze", "missing/report.json"),   # a directory that does not exist
    ("oracle", "."),                      # a directory, not a file
])
def test_unwritable_out_is_an_error_line(tmp_path, capsys, monkeypatch,
                                         command, out):
    monkeypatch.chdir(tmp_path)
    cfg = strip_config(tmp_path)
    code = main([command, "--config", cfg, "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigInvalid: cannot write output "
                                   "file %s: " % out)


FLAT_32 = {"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
           "grid": {"nx": 32, "ny": 32}}
OUTPUT_RULE_CONFIGS = {
    "analyze": FLAT_32,
    "validate": FLAT_32,
    "phase-diagram": {"geometry": {"kind": "strip", "a_values": [0.5, 1.0],
                                   "b_values": [1.0, 2.0]},
                      "grid": {"nx": 16, "ny": 16}},
    "compare": dict(FLAT_32, eigen={"modes": [1]}),
    "oracle": {"geometry": {"kind": "segment", "length": 1.0,
                            "h1": -1.0, "h2": -1.0}},
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_writes_one_report(tmp_path, capsys, monkeypatch,
                                         command):
    # stdout carries exactly the bytes --out would hold, --out leaves
    # stdout empty, and an unwritable --out prints nothing on stdout
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "cfg.json", OUTPUT_RULE_CONFIGS[command])
    assert main([command, "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert main([command, "--config", cfg, "--out", "report.out"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "report.out").read_bytes() == printed.encode()

    assert main([command, "--config", cfg, "--out", "missing/report.out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigInvalid: cannot write output "
                                   "file missing/report.out: ")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_parser_reads_every_flag(command):
    parser = cli._build_parser()
    assert not any(isinstance(action, argparse._SubParsersAction)
                   for action in parser._actions)
    args = parser.parse_args([
        command, "--config", "c.json", "--out", "r.json", "--grid", "48,32",
        "--restriction", "endpoint_zero", "--jobs", "2"])
    assert vars(args) == {"command": command, "config": "c.json",
                          "out": "r.json", "grid": "48,32",
                          "restriction": "endpoint_zero", "jobs": 2}
    assert vars(parser.parse_args([command, "--config", "c.json"])) == {
        "command": command, "config": "c.json", "out": None, "grid": None,
        "restriction": None, "jobs": 1}


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "c.json"],   # unknown command
    ["analyze"],                       # no --config
    ["--config", "c.json"],            # no command
    ["analyze", "--config", "c.json", "--jobs", "two"],
], ids=["unknown-command", "missing-config", "missing-command", "jobs-type"])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: ms-stability" in capsys.readouterr().err


LATTICE_ONLY = {"kind": "strip", "a_values": [1.0], "b_values": [1.0]}
SEGMENT = {"kind": "segment", "length": 1.0, "h1": -1.0, "h2": -1.0}


@pytest.mark.parametrize("command,geometry,flags,message", [
    ("analyze", LATTICE_ONLY, [], "geometry.a and geometry.b are required here"),
    ("compare", LATTICE_ONLY, [], "compare needs geometry.a and geometry.b"),
    ("oracle", LATTICE_ONLY, [], "oracle needs geometry.a and geometry.b"),
    ("validate", SEGMENT, [], "validate requires geometry.kind = strip"),
    ("phase-diagram", SEGMENT, [],
     "phase-diagram requires geometry.kind = strip"),
    ("compare", SEGMENT, [], "compare requires geometry.kind = strip"),
    ("analyze", {"kind": "strip", "a": 1.0, "b": 1.0}, ["--grid", "a,b"],
     "--grid expects integers, got 'a,b'"),
    ("analyze", {"kind": "strip", "a": 1.0, "b": 1.0}, ["--grid", "8,8"],
     "--grid sizes must be >= 16"),
], ids=["analyze-no-a-b", "compare-no-a-b", "oracle-no-a-b",
        "validate-segment", "phase-diagram-segment", "compare-segment",
        "grid-not-integers", "grid-below-floor"])
def test_config_errors_exit_1_with_one_line(tmp_path, capsys, command,
                                            geometry, flags, message):
    cfg = write_config(tmp_path, "cfg.json", {"geometry": geometry,
                                              "grid": {"nx": 16, "ny": 16}})
    assert main([command, "--config", cfg] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ConfigInvalid: %s\n" % message


@pytest.mark.parametrize("command,data", [
    # 2 pi a / b = 6283: the field probe's cosh overflows
    ("compare", {"geometry": {"kind": "strip", "a": 1.0, "b": 1e-3},
                 "grid": {"nx": 32, "ny": 32}}),
    # a finite slope whose square is not
    ("analyze", {"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                              "boundary": {"top": {"slope": 1e200}}},
                 "grid": {"nx": 16, "ny": 16}}),
], ids=["compare-cosh", "analyze-slope-squared"])
def test_overflow_exits_1_with_one_line(tmp_path, capsys, command, data):
    cfg = write_config(tmp_path, "cfg.json", data)
    with pytest.warns(RuntimeWarning):  # NumPy overflows before Python raises
        assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: OverflowError: [^\n]*\n", captured.err)


def test_config_that_is_not_json_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{geometry: strip}")
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigInvalid: config is not valid "
                                   "JSON: ")


def test_jobs_must_be_positive(tmp_path, capsys):
    cfg = strip_config(tmp_path)
    assert main(["analyze", "--config", cfg, "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_unattainable_rtol_fails_fast(tmp_path, capsys):
    # An rtol below the rounding floor of the true residual used to spin CG
    # to its iteration cap (tens of seconds at 64^2); it must end at once
    # with the error line and exit 1.
    cfg = strip_config(tmp_path, n=64, solver={"rtol": 1e-20})
    start = time.perf_counter()
    code = main(["analyze", "--config", cfg])
    assert time.perf_counter() - start < 10.0
    assert code == 1
    assert "error: SolverDiverged" in capsys.readouterr().err


def test_tall_flat_strip_solves_the_upper_side_only(tmp_path, capsys):
    # a = 50 b at 32^2: the flat curve's drift load is exactly zero, so the
    # lower side (wall data -x) has no load and no CG, where rounding noise
    # in its load would end in SolverDiverged and exit 1.
    cfg = strip_config(tmp_path, a=50.0, eigen={"compute_mu": True})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    assert report["stats"]["state_cg_iterations"] == 1


def test_singular_row_sweep_exits_with_solver_diverged(tmp_path, capsys,
                                                       monkeypatch):
    # A Schur complement that the curved row sweep cannot invert ends the
    # call with the error line and exit 1, not a LinAlgError traceback.
    def singular(mat):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    cfg = strip_config(tmp_path, geometry={
        "kind": "strip", "a": 1.0, "b": 1.0,
        "curve": {"mode": 1, "amplitude": 0.05}})
    assert main(["analyze", "--config", cfg]) == 1
    assert "error: SolverDiverged" in capsys.readouterr().err


def test_note_when_the_closed_form_contradicts_the_verdict(tmp_path, capsys):
    # At 16^2 the discrete lambda_1 of a = 0.341, b = 2 lies below the band
    # 0.005 around 1, while the closed form 1.00579 lies above it.  The
    # verdict and exit code stay the discrete ones; a note names both
    # values and the closed form's verdict.
    cfg = strip_config(tmp_path, a=0.341, b=2.0, n=16, eigen={"band": 0.005})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert (code, report["verdict"]) == (0, "strictly_stable")
    results = report["results"]
    assert results["lambda1"]["value"] == pytest.approx(0.989473848752957,
                                                        rel=1e-12)
    assert results["lambda1_analytic_flat"]["value"] == pytest.approx(
        1.0057881156119985, rel=1e-12)
    [note] = report["notes"]
    assert "0.9894738488 is strictly_stable" in note
    assert "1.005788116 is unstable" in note
    # under the default band 0.02 both values are marginal: no note
    cfg = strip_config(tmp_path, a=0.341, b=2.0, n=16)
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert (code, report["verdict"], report["notes"]) == (4, "marginal", [])


def test_canonical_report_has_no_closed_form_note(tmp_path, capsys):
    # The canonical pair at 128^2, with mu: the discrete and the closed-form
    # lambda_1 are both strictly stable, so the report gains no note.
    cfg = strip_config(tmp_path, n=128, eigen={"compute_mu": True})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert (code, report["verdict"], report["notes"]) == (0, "strictly_stable", [])
    assert report["results"]["lambda1_analytic_flat"]["value"] < 0.98


# Runs CLI calls in a fresh interpreter and lists the scipy and
# concurrent.futures modules loaded after the import and after each call.
# Every call writes its report to --out, so stdout holds only the steps.
SCIPY_PROBE = textwrap.dedent("""
    import json, sys
    from ms_stability.cli import main

    def scipy_modules():
        return sorted(m for m in sys.modules
                      if m.split(".")[0] == "scipy" or m == "concurrent.futures")

    steps = [["import", None, scipy_modules()]]
    for name, argv in json.loads(sys.argv[1]):
        code = main(argv)
        steps.append([name, code, scipy_modules()])
    print(json.dumps(steps))
""")


def test_no_command_loads_scipy(tmp_path):
    # Every command runs on NumPy alone, so a CLI call does not pay SciPy's
    # import: flat and curved analyze, validate, phase-diagram, compare,
    # and oracle on the strip and on the segment.  None of them, nor the
    # import, loads concurrent.futures either; phase-diagram --jobs 2
    # starts no pool.  The curved report keeps its lambda_1 and mu.
    flat = strip_config(tmp_path, eigen={"compute_mu": True})
    lattice = write_config(tmp_path, "lattice.json", {
        "geometry": {"kind": "strip", "a_values": [0.5, 1.0], "b_values": [1.0, 2.0]},
        "grid": {"nx": 32, "ny": 32}})
    curved = write_config(tmp_path, "curved.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                     "curve": {"mode": 1, "amplitude": 0.05}},
        "grid": {"nx": 32, "ny": 32}, "eigen": {"compute_mu": True}})
    modes = write_config(tmp_path, "modes.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
        "grid": {"nx": 32, "ny": 32}, "eigen": {"modes": [1]}})
    concave = write_config(tmp_path, "concave.json", {
        "geometry": {"kind": "segment", "length": 1.0, "h1": -1.0, "h2": -1.0}})
    convex = write_config(tmp_path, "convex.json", {
        "geometry": {"kind": "segment", "length": 1.0, "h1": 3.0, "h2": 3.0}})
    names = ("flat", "validate", "phase", "compare", "oracle", "concave",
             "convex", "curved")
    out = {name: str(tmp_path / name) for name in names}
    calls = [
        ["flat", ["analyze", "--config", flat, "--out", out["flat"]]],
        ["validate", ["validate", "--config", flat, "--out", out["validate"]]],
        ["phase", ["phase-diagram", "--config", lattice, "--out", out["phase"],
                   "--jobs", "2"]],
        ["compare", ["compare", "--config", modes, "--out", out["compare"]]],
        ["oracle", ["oracle", "--config", flat, "--out", out["oracle"]]],
        ["concave", ["analyze", "--config", concave, "--out", out["concave"]]],
        ["convex", ["oracle", "--config", convex, "--out", out["convex"]]],
        ["curved", ["analyze", "--config", curved, "--out", out["curved"]]],
    ]
    package_root = os.path.dirname(os.path.dirname(ms_stability.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = {name: (code, modules) for name, code, modules in json.loads(proc.stdout)}
    for name in ("import",) + names:
        assert steps[name][1] == [], name
    assert [steps[name][0] for name in names] == [0, 0, 0, 0, 0, 0, 3, 0]
    # lambda_1 and mu of this curved pair: the converged discrete values,
    # from solver.rtol 1e-13, which the default rtol must meet to 5e-12
    results = json.loads(pathlib.Path(out["curved"]).read_text())["results"]
    assert results["lambda1"]["value"] == pytest.approx(0.62468465504150, rel=5e-12)
    assert results["mu"]["value"] == pytest.approx(1.6008076906156, rel=5e-12)


def test_oracle_rejects_mode_below_one_at_parse(tmp_path, capsys):
    cfg = strip_config(tmp_path, eigen={"modes": [0]})
    assert main(["oracle", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "ConfigInvalid" in err and "eigen.modes[0]" in err


def test_missing_config_file(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "ConfigInvalid" in capsys.readouterr().err


def strip_geometry(**keys):
    return {"geometry": dict({"kind": "strip", "a": 1.0, "b": 1.0}, **keys)}


def segment_geometry(**keys):
    return {"geometry": dict({"kind": "segment", "length": 1.0, "h1": -1.0,
                              "h2": -1.0}, **keys)}


def with_section(name, **keys):
    return dict(strip_geometry(), **{name: keys})


@pytest.mark.parametrize("data,needle", [
    ({"geometry": {"kind": "disk"}}, "geometry.kind"),
    ({"geometry": {"kind": "strip", "a": -1.0, "b": 1.0}}, "geometry.a"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "eigen": {"restriction": "diagonal"}}, "restriction"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "validate": {"flow": {"kind": "spiral"}}}, "validate.flow.kind"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "output": {"format": "xml"}}, "output.format"),
    # the sample count is grid.nx, so there is no m key to set it
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"m": 32, "heights": [0.0] * 16}}},
     "unknown key geometry.curve.m"),
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
    # integer fields too large for a float, which they are used as
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"mode": HUGE, "amplitude": 0.05}}},
     "geometry.curve.mode"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "validate": {"flow": {"mode": HUGE}}}, "validate.flow.mode"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "eigen": {"modes": [1, HUGE]}}, "eigen.modes[1]"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "boundary": {"top": {"cos": [[HUGE, 0.1]]}}}},
     "geometry.boundary.top.cos[0]"),
    # CG would return the zero correction as converged
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "solver": {"rtol": 1.0}}, "solver.rtol"),
    # a heights list is the whole curve; sine keys next to it are refused
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"heights": [0.0] * 16, "mode": "x",
                             "amplitude": True}}}, "geometry.curve.mode"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"heights": [0.0] * 16, "amplitude": 0.05}}},
     "geometry.curve.amplitude"),
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                   "curve": {"heights": [0.0] * 16, "phase": 0.0}}},
     "geometry.curve.phase"),
    # the oracle's mode law starts at 2
    ({"geometry": {"kind": "strip", "a": 1.0, "b": 1.0},
      "eigen": {"modes": [0]}}, "eigen.modes[0]"),
    # a section, list or flag of the wrong shape
    ({}, "missing required section: geometry"),
    (dict(strip_geometry(), grid=5), "grid must be an object"),
    (strip_geometry(a_values=1.0), "geometry.a_values must be a list"),
    (strip_geometry(boundary={"top": {"cos": 5}}),
     "geometry.boundary.top.cos must be a list of [mode, amplitude]"),
    (strip_geometry(boundary={"top": {"cos": [[1]]}}),
     "geometry.boundary.top.cos[0] must be [mode, amplitude]"),
    (strip_geometry(curve={"heights": "wavy"}),
     "geometry.curve.heights must be 'flat' or a list"),
    (with_section("eigen", compute_mu=1), "eigen.compute_mu must be true or false"),
    (with_section("eigen", modes=[]),
     "eigen.modes must be a non-empty list of integers"),
    # an empty lattice axis would print only the CSV header
    (strip_geometry(a_values=[], b_values=[1.0]),
     "geometry.a_values must be a non-empty list"),
    (strip_geometry(a_values=[1.0], b_values=[]),
     "geometry.b_values must be a non-empty list"),
    (with_section("output", path=5), "output.path must be a string"),
], ids=["kind", "negative-a", "restriction", "flow-kind", "format",
        "heights-length", "overtone-mode", "missing-h2",
        "heights-number-with-sine-keys", "heights-object-with-sine-keys",
        "overtone-amplitude-nan", "overtone-amplitude-bool", "eigen-tol",
        "eigen-max-iter", "eigen-seed-type", "huge-number",
        "huge-overtone-amplitude", "huge-height", "huge-a-value",
        "huge-b-value", "huge-curve-mode", "huge-flow-mode", "huge-eigen-mode",
        "huge-overtone-mode", "rtol-one", "heights-with-mode",
        "heights-with-amplitude", "heights-with-phase", "eigen-mode-zero",
        "no-geometry", "grid-not-object", "a-values-not-list",
        "overtones-not-list", "overtone-not-pair", "heights-word",
        "compute-mu-int", "modes-empty", "a-values-empty", "b-values-empty",
        "output-path-int"])
def test_config_rejections(data, needle):
    with pytest.raises(ConfigInvalid, match=re.escape(needle)):
        parse_config(data)


# Every number a config holds: (key path, rule, config with the value at it).
# A rule is "number", "positive", or ("integer", minimum or None).
NUMERIC_KEYS = [
    ("geometry.a", "positive", lambda v: strip_geometry(a=v)),
    ("geometry.b", "positive", lambda v: strip_geometry(b=v)),
    ("geometry.a_values[1]", "positive",
     lambda v: strip_geometry(a_values=[1.0, v], b_values=[1.0])),
    ("geometry.b_values[0]", "positive",
     lambda v: strip_geometry(a_values=[1.0], b_values=[v])),
    ("geometry.curve.heights[3]", "number",
     lambda v: strip_geometry(curve={"heights": [0.0] * 3 + [v] + [0.0] * 12})),
    ("geometry.curve.mode", ("integer", 1),
     lambda v: strip_geometry(curve={"mode": v})),
    ("geometry.curve.amplitude", "number",
     lambda v: strip_geometry(curve={"amplitude": v})),
    ("geometry.curve.phase", "number", lambda v: strip_geometry(curve={"phase": v})),
    ("geometry.boundary.top.slope", "number",
     lambda v: strip_geometry(boundary={"top": {"slope": v}})),
    ("geometry.boundary.bottom.constant", "number",
     lambda v: strip_geometry(boundary={"bottom": {"constant": v}})),
    ("geometry.boundary.top.cos[0][0]", ("integer", 1),
     lambda v: strip_geometry(boundary={"top": {"cos": [[v, 0.1]]}})),
    ("geometry.boundary.bottom.sin[1][1]", "number",
     lambda v: strip_geometry(boundary={"bottom": {"sin": [[1, 0.1], [2, v]]}})),
    ("geometry.length", "positive", lambda v: segment_geometry(length=v)),
    ("geometry.h1", "number", lambda v: segment_geometry(h1=v)),
    ("geometry.h2", "number", lambda v: segment_geometry(h2=v)),
    ("geometry.m", ("integer", 16), lambda v: segment_geometry(m=v)),
    ("grid.nx", ("integer", 16), lambda v: with_section("grid", nx=v)),
    ("grid.ny", ("integer", 16), lambda v: with_section("grid", ny=v)),
    ("solver.rtol", "positive", lambda v: with_section("solver", rtol=v)),
    ("eigen.seed", ("integer", None), lambda v: with_section("eigen", seed=v)),
    ("eigen.band", "positive", lambda v: with_section("eigen", band=v)),
    ("eigen.modes[1]", ("integer", 1),
     lambda v: with_section("eigen", modes=[1, v])),
    ("validate.flow.mode", ("integer", 1),
     lambda v: with_section("validate", flow={"mode": v})),
    ("validate.flow.amplitude", "number",
     lambda v: with_section("validate", flow={"amplitude": v})),
    ("validate.step", "positive", lambda v: with_section("validate", step=v)),
    ("validate.first_tol", "positive",
     lambda v: with_section("validate", first_tol=v)),
    ("validate.second_tol", "positive",
     lambda v: with_section("validate", second_tol=v)),
    ("validate.criticality_tol", "positive",
     lambda v: with_section("validate", criticality_tol=v)),
]


def _good_and_bad_values(rule):
    bad = [True, "1", [1], math.nan, math.inf, HUGE]
    if rule in ("number", "positive"):
        return 0.5, bad + ([0, -1] if rule == "positive" else [])
    minimum = rule[1]
    if minimum is None:
        return 2, bad + [1.5]
    return minimum, bad + [1.5, minimum - 1]


@pytest.mark.parametrize("path,config,good,value", [
    pytest.param(path, config, good, value, id="%s=%s" % (
        path, "1e400" if value is HUGE else json.dumps(value)))
    for path, rule, config in NUMERIC_KEYS
    for good, bad in [_good_and_bad_values(rule)] for value in bad])
def test_every_number_is_checked_and_named(path, config, good, value):
    # the config is valid with a good value at the key, so the rejection
    # below is the bad value's
    parse_config(config(good))
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(config(value))
    assert str(exc.value).startswith(path + " ")


def _set(data, path, value):
    """A copy of the config data with the dotted key path set to value."""
    data = copy.deepcopy(data)
    *parents, last = path.split(".")
    obj = data
    for key in parents:
        obj = obj.setdefault(key, {})
    obj[last] = value
    return data


def _drop(data, path):
    """A copy of the config data without the dotted key path."""
    data = copy.deepcopy(data)
    *parents, last = path.split(".")
    obj = data
    for key in parents:
        obj = obj.get(key, {})
    obj.pop(last, None)
    return data


# (key path, config): a null at the key is read as if the key were absent
NULL_TAKES_THE_DEFAULT = [
    ("grid", strip_geometry()),
    ("grid.nx", with_section("grid", ny=32)),
    ("solver", strip_geometry()),
    ("solver.rtol", strip_geometry()),
    ("eigen.seed", strip_geometry()),
    ("eigen.band", with_section("eigen", compute_mu=True)),
    ("validate.flow", strip_geometry()),
    ("validate.flow.mode", with_section("validate", flow={"kind": "cos"})),
    ("validate.step", strip_geometry()),
    ("output.path", strip_geometry()),
    ("geometry.a", strip_geometry()),
    ("geometry.a_values", strip_geometry(b_values=[1.0])),
    ("geometry.curve", strip_geometry()),
    ("geometry.boundary", strip_geometry()),
    ("geometry.boundary.top", strip_geometry(boundary={"bottom": {"slope": 0.5}})),
    # a wall that is given keeps its canonical slope
    ("geometry.boundary.top.slope", strip_geometry(boundary={"top": {"constant": 2.0}})),
    ("geometry.boundary.top.cos", strip_geometry(boundary={"top": {"constant": 2.0}})),
    ("geometry.m", segment_geometry()),
]


@pytest.mark.parametrize("path,data", NULL_TAKES_THE_DEFAULT,
                         ids=[path for path, _ in NULL_TAKES_THE_DEFAULT])
def test_null_takes_the_default(path, data):
    assert parse_config(_set(data, path, None)) == parse_config(_drop(data, path))


NULL_IS_REFUSED = [
    ("geometry", strip_geometry(), "geometry must be an object"),
    ("eigen.restriction", strip_geometry(),
     "eigen.restriction must be mean_zero, endpoint_zero or none"),
    ("eigen.compute_mu", strip_geometry(), "eigen.compute_mu must be true or false"),
    ("eigen.modes", strip_geometry(), "eigen.modes must be a list"),
    ("validate.flow.kind", strip_geometry(),
     "validate.flow.kind must be sin, cos or const"),
    ("geometry.curve.heights", strip_geometry(),
     "geometry.curve.heights must be 'flat' or a list"),
    ("geometry.kind", strip_geometry(), "geometry.kind must be 'strip' or 'segment'"),
    ("geometry.length", segment_geometry(), "missing required key geometry.length"),
]


@pytest.mark.parametrize("path,data,message", NULL_IS_REFUSED,
                         ids=[path for path, _, _ in NULL_IS_REFUSED])
def test_null_is_refused(path, data, message):
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(_set(data, path, None))
    assert str(exc.value) == message


@pytest.mark.parametrize("key", ["mode", "amplitude", "phase"])
def test_null_sine_key_selects_the_sine_curve(tmp_path, capsys, key):
    data = _set(with_section("grid", nx=16, ny=16), "geometry.curve." + key, None)
    curve = parse_config(data).geometry.curve
    assert curve == type(curve)(kind="sine")
    cfg = write_config(tmp_path, "null.json", data)
    assert main(["phase-diagram", "--config", cfg]) == 1
    assert "geometry.curve must be flat" in capsys.readouterr().err


def _strip_with(**keys):
    return {"kind": "strip", "a": 1.0, "b": 1.0, **keys}


# (config with several faults, the one reported): top-level keys first, then
# geometry, grid, solver, eigen, validate and output; within an object its
# unknown keys before its values, and the values in a fixed order
FIRST_FAULTS = [
    ({"zz": 1, "geometry": {"kind": "disk"}}, "unknown key config.zz"),
    ({"grid": 5}, "missing required section: geometry"),
    ({"geometry": {"kind": "disk", "zz": 1}}, "geometry.kind must be"),
    ({"geometry": _strip_with(a=-1.0, zz=1)}, "unknown key geometry.zz"),
    ({"geometry": _strip_with(a=-1.0, boundary={"left": {}})},
     "unknown key geometry.boundary.left"),
    ({"geometry": _strip_with(a=-1.0, curve={"m": 1})}, "geometry.a must be"),
    ({"geometry": _strip_with(curve={"mode": "x"},
                              boundary={"top": {"slope": "x"}})},
     "geometry.curve.mode must be"),
    ({"geometry": _strip_with(boundary={"top": {"slope": "x"},
                                        "bottom": {"zz": 1}})},
     "geometry.boundary.top.slope must be"),
    ({"geometry": _strip_with(curve={"heights": [True], "phase": 0.0,
                                     "mode": 1})},
     "geometry.curve.mode cannot be combined"),
    ({"geometry": _strip_with(boundary={"top": {"cos": [[1, math.nan], [1]]}})},
     "geometry.boundary.top.cos[0][1] must be"),
    ({"geometry": {"kind": "segment", "h1": "x"}},
     "missing required key geometry.length"),
    ({"geometry": {"kind": "segment", "length": -1.0}}, "geometry.length must be"),
    ({"geometry": _strip_with(a=-1.0), "grid": {"nx": 1}}, "geometry.a must be"),
    (dict(strip_geometry(), grid={"nx": 1, "zz": 1}), "unknown key grid.zz"),
    (dict(strip_geometry(), solver={"rtol": 1.0}, eigen={"restriction": "x"}),
     "solver.rtol must be below 1"),
    (dict(strip_geometry(), eigen={"band": -1.0, "modes": [], "seed": "x"}),
     "eigen.seed must be"),
    (dict(strip_geometry(), eigen={"band": -1.0, "modes": []}),
     "eigen.modes must be a non-empty list"),
    (dict(strip_geometry(), validate={"step": -1.0, "flow": {"zz": 1}}),
     "unknown key validate.flow.zz"),
    (dict(strip_geometry(), validate={"step": -1.0}, output={"path": 5}),
     "validate.step must be"),
]


@pytest.mark.parametrize("data,first", FIRST_FAULTS)
def test_a_rejection_names_the_first_fault(data, first):
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(data)
    assert str(exc.value).startswith(first)


def _allowed_keys(data, path):
    """The keys the object at path accepts, read off the rejection of an
    unknown key there."""
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(_set(data, path + ".zz" if path else "zz", 1))
    return re.fullmatch(r"unknown key .*\.zz \(allowed: (.*)\)",
                        str(exc.value)).group(1).split(", ")


# (section path, config that holds an object there)
SECTIONS = [
    ("", strip_geometry()),
    ("geometry", strip_geometry()),
    ("geometry", segment_geometry()),
    ("geometry.curve", strip_geometry()),
    ("geometry.boundary", strip_geometry()),
    ("geometry.boundary.top", strip_geometry()),
    ("geometry.boundary.bottom", strip_geometry()),
    ("grid", strip_geometry()),
    ("solver", strip_geometry()),
    ("eigen", strip_geometry()),
    ("validate", strip_geometry()),
    ("validate.flow", strip_geometry()),
    ("output", strip_geometry()),
]


def _accepted_paths():
    paths = []
    for section, data in SECTIONS:
        for key in _allowed_keys(data, section):
            path = section + "." + key if section else key
            if path not in paths:
                paths.append(path)
    return paths


# key path -> (config, a valid value that the config does not hold there)
NON_DEFAULT = {
    "geometry": ({}, {"kind": "strip"}),
    "grid": (strip_geometry(), {"nx": 32}),
    "solver": (strip_geometry(), {"rtol": 1e-8}),
    "eigen": (strip_geometry(), {"band": 0.1}),
    "validate": (strip_geometry(), {"step": 0.01}),
    "output": (strip_geometry(), {"path": "report.json"}),
    "geometry.kind": ({"geometry": {"a": 1.0, "b": 1.0}}, "strip"),
    "geometry.a": (strip_geometry(), 2.0),
    "geometry.b": (strip_geometry(), 2.0),
    "geometry.a_values": (strip_geometry(b_values=[1.0]), [1.0]),
    "geometry.b_values": (strip_geometry(a_values=[1.0]), [1.0]),
    "geometry.curve": (strip_geometry(), {"mode": 2}),
    "geometry.boundary": (strip_geometry(), {"top": {"slope": 2.0}}),
    "geometry.length": (segment_geometry(), 2.0),
    "geometry.h1": (segment_geometry(), 0.5),
    "geometry.h2": (segment_geometry(), 0.5),
    "geometry.m": (segment_geometry(), 32),
    "geometry.curve.heights": (strip_geometry(), [0.0] * 16),
    "geometry.curve.mode": (strip_geometry(curve={"amplitude": 0.05}), 2),
    "geometry.curve.amplitude": (strip_geometry(curve={"mode": 2}), 0.05),
    "geometry.curve.phase": (strip_geometry(curve={"mode": 2}), 0.5),
    "geometry.boundary.top": (strip_geometry(), {"slope": 2.0}),
    "geometry.boundary.bottom": (strip_geometry(), {"slope": 0.5}),
    "grid.nx": (strip_geometry(), 32),
    "grid.ny": (strip_geometry(), 32),
    "solver.rtol": (strip_geometry(), 1e-8),
    "eigen.restriction": (strip_geometry(), "none"),
    "eigen.band": (strip_geometry(), 0.1),
    "eigen.compute_mu": (strip_geometry(), True),
    "eigen.modes": (strip_geometry(), [2]),
    "validate.flow": (strip_geometry(), {"kind": "cos"}),
    "validate.step": (strip_geometry(), 0.01),
    "validate.first_tol": (strip_geometry(), 1e-3),
    "validate.second_tol": (strip_geometry(), 0.1),
    "validate.criticality_tol": (strip_geometry(), 0.1),
    "validate.flow.kind": (strip_geometry(), "cos"),
    "validate.flow.mode": (strip_geometry(), 2),
    "validate.flow.amplitude": (strip_geometry(), 0.5),
    "output.path": (strip_geometry(), "report.json"),
    **{"geometry.boundary.%s.%s" % (side, key): (
        strip_geometry(boundary={side: {"constant": 2.0}}), value)
       for side in ("top", "bottom")
       for key, value in [("slope", 3.0), ("constant", 3.0),
                          ("cos", [[1, 0.1]]), ("sin", [[1, 0.1]])]},
}


def _parse_or_fault(data):
    try:
        return parse_config(data)
    except ConfigInvalid as exc:
        return str(exc)


@pytest.mark.parametrize("path", [path for path in _accepted_paths()
                                  if path != "eigen.seed"])
def test_no_key_is_read_and_dropped(path):
    # eigen.seed is the one key documented as ignored.  A required key is
    # compared with another value of it (or with the refusal of its absence).
    assert path in NON_DEFAULT, "no sample value for %s" % path
    data, value = NON_DEFAULT[path]
    assert parse_config(_set(data, path, value)) != _parse_or_fault(data)


def test_readme_config_block_names_every_key():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```jsonc\n(.*?)```", readme.read_text(), re.S).group(1)
    named = set(re.findall(r'"(\w+)"\s*:', block))   # comments included
    for section, data in SECTIONS:
        missing = set(_allowed_keys(data, section)) - named
        assert not missing, (section or "config", sorted(missing))


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


def test_zero_data_on_the_dense_route_gives_empty_operator(tmp_path, capsys):
    # endpoint_zero leaves the Fourier symbol route, so the zero A goes
    # through the whitened eigvalsh, whose values are exactly zero
    cfg = write_config(tmp_path, "zero.json", {
        "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                     "boundary": {"top": {"slope": 0.0},
                                  "bottom": {"slope": 0.0}}},
        "grid": {"nx": 32, "ny": 32},
        "eigen": {"compute_mu": True, "restriction": "endpoint_zero"}})
    code, report = run_json(capsys, ["analyze", "--config", cfg])
    assert code == 0
    assert report["results"]["mu"]["infinite"] is True
    notes = " ".join(report["notes"])
    assert "operator is zero" in notes and "empty constraint" in notes
    eigen = report["stats"]["eigen"]
    assert eigen["method"] == "none"
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
    for k in (1, 2, 3):
        assert results["modes"][str(k)]["value"] == pytest.approx(
            scale * mode_lambda(k, 1.0, 1.0), rel=1e-15)
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


@pytest.mark.parametrize("command", ["analyze", "phase-diagram", "oracle"])
def test_zero_amplitude_overtone_keeps_the_closed_form(tmp_path, capsys,
                                                       command):
    # cos(2 pi x / b) times 0 leaves the wall linear, so every output,
    # closed form included, is the one of the wall without the pair
    printed = []
    for top in ({"constant": 1.0}, {"constant": 1.0, "cos": [[1, 0.0]]}):
        cfg = write_config(tmp_path, "walls.json", {
            "geometry": {"kind": "strip", "a": 1.0, "b": 1.0,
                         "a_values": [0.5, 1.0], "b_values": [1.0, 2.0],
                         "boundary": {"top": top}},
            "grid": {"nx": 32, "ny": 32}})
        assert main([command, "--config", cfg]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]


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
            "eigen": {"modes": [1]}})
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
