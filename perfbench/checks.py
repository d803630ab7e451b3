"""Output checks of the benchmark workloads.

Each check returns a list of problems; an empty list means the call's
output is correct.  The closed form and the verdict rule are written out
here rather than taken from the package, so a defect there cannot hide
itself.
"""

import json
import math

import numpy as np

LAMBDA1_REL_TOL = 0.02      # analyze: lambda1 within 2% of the closed form
DUALITY_TOL = 1e-6          # analyze: |mu * lambda1 - 1|
BAND = 0.02                 # default marginal band of the verdict


def lambda1_closed_form(a, b):
    """Leading eigenvalue of T on the flat strip: (2b/pi) tanh(2 pi a/b)."""
    return 2.0 * b / math.pi * math.tanh(2.0 * math.pi * a / b)


def closed_form_verdict(a, b, band=BAND):
    lam = lambda1_closed_form(a, b)
    if lam < 1.0 - band:
        return "strictly_stable"
    if lam > 1.0 + band:
        return "unstable"
    return "marginal"


def _json(text):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, ["report is not JSON: %s" % exc]


def analyze_problems(text, exit_code, a, b):
    """analyze: exit 0, strictly stable, lambda1 near the closed form,
    mu > 1 and mu * lambda1 = 1."""
    problems = [] if exit_code == 0 else ["exit code %r" % exit_code]
    report, bad = _json(text)
    if report is None:
        return problems + bad
    results = report["results"]
    lam = results["lambda1"]["value"]
    mu = results["mu"]["value"]
    closed = lambda1_closed_form(a, b)
    if report["verdict"] != "strictly_stable":
        problems.append("verdict %r" % report["verdict"])
    if not abs(lam - closed) <= LAMBDA1_REL_TOL * closed:
        problems.append("lambda1 %r is not within 2%% of %r" % (lam, closed))
    if mu is None or not mu > 1.0:
        problems.append("mu %r is not above 1" % mu)
    elif not abs(mu * lam - 1.0) <= DUALITY_TOL:
        problems.append("|mu * lambda1 - 1| = %.3g" % abs(mu * lam - 1.0))
    return problems


def validate_problems(text, exit_code):
    """validate: exit 0 with both FD checks passed."""
    problems = [] if exit_code == 0 else ["exit code %r" % exit_code]
    report, bad = _json(text)
    if report is None:
        return problems + bad
    for key in ("first_ok", "second_ok"):
        if report["checks"][key] is not True:
            problems.append("%s is not true" % key)
    return problems


def phase_problems(text, exit_code, header, lattice):
    """phase-diagram: exit 0, the fixed header bytes, one row per lattice
    point, and every verdict equal to the closed-form one."""
    problems = [] if exit_code == 0 else ["exit code %r" % exit_code]
    lines = text.split("\n")
    if lines[0] != header:
        problems.append("header %r differs from %r" % (lines[0], header))
    rows = [line.split(",") for line in lines[1:] if line]
    points = [(float(r[0]), float(r[1])) for r in rows]
    if sorted(points) != sorted(lattice):
        problems.append("rows cover %r, not the lattice" % points)
    for a, b, verdict in ((float(r[0]), float(r[1]), r[4]) for r in rows):
        expected = closed_form_verdict(a, b)
        if verdict != expected:
            problems.append("(a, b) = (%g, %g): verdict %r, closed form %r"
                            % (a, b, verdict, expected))
    return problems


def repeat_problems(reference, text):
    """Same input and seed must give the same report bytes."""
    return [] if text == reference else ["report bytes differ from the first run"]


# ----------------------------------------------------------- error metrics

def analyze_lambda1_error(text, a, b):
    lam = json.loads(text)["results"]["lambda1"]["value"]
    return abs(lam - lambda1_closed_form(a, b))


def phase_lambda1_error(text):
    """Largest |lambda1 - closed form| over the lattice rows."""
    rows = [line.split(",") for line in text.split("\n")[1:] if line]
    return max(abs(float(r[2]) - lambda1_closed_form(float(r[0]), float(r[1])))
               for r in rows)


def validate_lambda1_error(text, a, b, m, mode, amplitude):
    """|lambda1 - closed form| with lambda1 the Rayleigh quotient of the
    sine flow direction, read off the dual route d2F = ||psi||~^2 - (T psi, psi)~.

    On the flat strip with a uniform grid the discrete Fourier modes are
    eigenvectors of T, and mode 1 (sin 2 pi x / b) is the leading one, so
    this quotient is the discrete lambda1.  ||psi||~^2 of the flat curve
    is the periodic P1 stiffness form.
    """
    report = json.loads(text)
    x = b * np.arange(m) / m
    psi = amplitude * np.sin(2.0 * np.pi * mode * x / b)
    norm_sq = float(np.sum((np.roll(psi, -1) - psi) ** 2) / (b / m))
    lam = (norm_sq - report["results"]["assembled_dual"]["value"]) / norm_sq
    return abs(lam - lambda1_closed_form(a, b))


def validate_fd_mismatch(text):
    return json.loads(text)["results"]["fd_vs_assembled_mismatch"]["value"]
