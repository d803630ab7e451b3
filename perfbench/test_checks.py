"""Self-test of the benchmark's output checks: bad outputs count as failures.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from ms_stability.cli import CSV_HEADER  # noqa: E402

JOBS1 = ["phase-diagram", "--jobs", "1"]
JOBS2 = ["phase-diagram", "--jobs", "2"]


def _lattice_csv(wrong_verdict_at=None, residual="1e-14"):
    """A CSV like phase-diagram's: lambda1 0.1% below the closed form."""
    lines = [CSV_HEADER]
    for a in run.LATTICE_A:
        for b in run.LATTICE_B:
            verdict = checks.closed_form_verdict(a, b)
            if (a, b) == wrong_verdict_at:
                verdict = "unstable" if verdict == "strictly_stable" else "strictly_stable"
            lam = checks.lambda1_closed_form(a, b)
            lines.append(",".join(["%.9g" % a, "%.9g" % b, "%.9g" % (0.999 * lam),
                                   "%.9g" % lam, verdict, "64", "64", residual]))
    return "\n".join(lines) + "\n"


def _call(argv, text, exit_code=0, seed=0):
    return {"argv": argv, "text": text, "exit_code": exit_code, "seed": seed}


def _failures(workload, calls):
    return run.count_failures(run.WORKLOADS[workload], calls, CSV_HEADER)


def test_good_lattice_passes():
    csv = _lattice_csv()
    assert _failures("phase-lattice-64", [_call(JOBS1, csv), _call(JOBS2, csv)]) == 0


def test_wrong_verdict_counts_as_failure():
    bad = _lattice_csv(wrong_verdict_at=(0.5, 2.0))
    assert _failures("phase-lattice-64", [_call(JOBS1, bad), _call(JOBS2, bad)]) == 2


def test_jobs_csvs_that_differ_count_as_failure():
    calls = [_call(JOBS1, _lattice_csv()), _call(JOBS2, _lattice_csv(residual="2e-14"))]
    assert _failures("phase-lattice-64", calls) == 1


def test_wrong_header_counts_as_failure():
    csv = _lattice_csv().replace("residual", "resid", 1)
    assert _failures("phase-lattice-64", [_call(JOBS1, csv), _call(JOBS2, csv)]) == 2


def _analyze_report(verdict="strictly_stable", lam=0.63655, mu=None):
    mu = 1.0 / lam if mu is None else mu
    return json.dumps({"verdict": verdict,
                       "results": {"lambda1": {"value": lam}, "mu": {"value": mu}}})


def test_analyze_checks():
    argv = ["analyze", "--jobs", "1"]
    good = _analyze_report()
    assert _failures("analyze-strip-128", [_call(argv, good), _call(argv, good)]) == 0
    other_seed = _analyze_report(lam=0.63656)
    assert _failures("analyze-strip-128",
                     [_call(argv, good), _call(argv, other_seed, seed=1)]) == 0
    for bad in (_analyze_report(verdict="unstable"),      # wrong verdict
                _analyze_report(lam=0.60),                # 6% off the closed form
                _analyze_report(mu=1.0 / 0.63655 + 1e-3)):  # duality broken
        assert _failures("analyze-strip-128", [_call(argv, bad)]) == 1
    assert _failures("analyze-strip-128", [_call(argv, good, exit_code=3)]) == 1
    assert _failures("analyze-strip-128", [_call(argv, "")]) == 1


def test_validate_checks():
    argv = ["validate", "--jobs", "1"]

    def report(second_ok):
        return json.dumps({"checks": {"first_ok": True, "second_ok": second_ok}})

    assert _failures("validate-flow-256", [_call(argv, report(True))]) == 0
    assert _failures("validate-flow-256", [_call(argv, report(False), exit_code=2)]) == 1


def test_repeat_bytes_must_match():
    argv = ["validate", "--jobs", "1"]
    first = json.dumps({"checks": {"first_ok": True, "second_ok": True}})
    second = json.dumps({"checks": {"second_ok": True, "first_ok": True}})
    assert _failures("validate-flow-256", [_call(argv, first), _call(argv, second)]) == 1


def test_failed_child_counts_as_failure():
    assert _failures("validate-flow-256", [None]) == 1
