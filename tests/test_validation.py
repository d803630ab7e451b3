import math

import numpy as np
import pytest

import ms_stability as ms
from ms_stability import elliptic
from ms_stability.errors import CurveEscapesStrip, InsufficientSamples

from conftest import drift_domain, flat_setup


# ------------------------------------------------- fd_derivatives alone

def test_fd_exact_on_quartic_polynomial():
    h = 0.01
    ts = np.array([-2 * h, -h, 0.0, h, 2 * h])
    gs = 3.0 - 2.0 * ts + 5.0 * ts ** 2 + ts ** 3 - 4.0 * ts ** 4
    fd = ms.fd_derivatives(ts, gs)
    # Richardson over two scales cancels the h^2 term; for a quartic the
    # remaining h^4 error term vanishes too.
    assert fd.first == pytest.approx(-2.0, abs=1e-10)
    assert fd.second == pytest.approx(10.0, abs=1e-7)


def test_fd_on_cosine_with_error_bars():
    h = 0.01
    ts = np.array([-2 * h, -h, 0.0, h, 2 * h])
    gs = np.cos(1.7 * ts)
    fd = ms.fd_derivatives(ts, gs)
    err_first = abs(fd.first - 0.0)
    err_second = abs(fd.second + 1.7 ** 2)
    assert err_first <= 1e-12
    assert err_second <= 1e-8
    assert err_second <= fd.second_error  # bar dominated by the h^2 term
    assert fd.steps == (h, 2 * h)


def test_fd_accepts_extra_scales_and_uses_smallest():
    h = 0.02
    ts = np.array([-4 * h, -2 * h, -h, 0.0, h, 2 * h, 4 * h])
    gs = np.sin(ts) + 0.5 * ts ** 2
    fd = ms.fd_derivatives(ts, gs)
    assert fd.steps == (h, 2 * h)
    assert fd.first == pytest.approx(1.0, abs=1e-7)  # h^4 term of sin at h=0.02
    assert fd.second == pytest.approx(1.0, abs=1e-6)


def test_fd_sample_validation():
    with pytest.raises(InsufficientSamples):
        ms.fd_derivatives([0.0, 0.01, -0.01], [1.0, 1.0, 1.0])
    with pytest.raises(InsufficientSamples):  # no zero sample
        ms.fd_derivatives([-0.02, -0.01, 0.005, 0.01, 0.02], np.ones(5))
    with pytest.raises(InsufficientSamples):  # asymmetric pairs
        ms.fd_derivatives([-0.03, -0.01, 0.0, 0.01, 0.02], np.ones(5))
    with pytest.raises(InsufficientSamples):  # length mismatch
        ms.fd_derivatives([0.0, 0.01], [1.0])


# ------------------------------------------------------ criticality

def test_flat_drift_pair_is_critical(unit_strip_state):
    _, curve, grid, state, _ = unit_strip_state
    report = ms.criticality_residuals(state)
    assert report.sup_residual < 1e-10
    assert report.min_jump == pytest.approx(1.0, abs=1e-10)
    assert report.argmin_jump == 0.0
    assert report.jump_ok


def test_zero_data_trips_jump_flag():
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    state, _ = ms.solve_state(domain, ms.flat_curve(1.0, 16), ms.Grid(16, 16))
    report = ms.criticality_residuals(state)
    assert report.min_jump == 0.0
    assert not report.jump_ok


def test_bent_curve_breaks_criticality():
    # Frozen reference: sup |f| = 3.2016 for the 0.05 sin bump on the
    # unit strip (computed at m = 256; the m = 128 value sits within 1%).
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 128, mode=1, amplitude=0.05)
    state, _ = ms.solve_state(domain, curve, ms.Grid(128, 128))
    report = ms.criticality_residuals(state)
    assert report.sup_residual == pytest.approx(3.2016, rel=1e-2)
    assert report.jump_ok


# ------------------------------------------------- energy along flows

def test_translation_flow_keeps_energy_constant():
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 32)
    flow = ms.FlowSpec(direction=np.ones(32), half_height=1.0,
                       steps=(-0.05, -0.025, 0.0, 0.025, 0.05))
    ts, gs = ms.energy_along_flow(domain, curve, flow, ms.Grid(32, 32))
    g0 = gs[ts == 0.0][0]
    assert g0 == pytest.approx(3.0, rel=1e-12)  # 2ab + b
    assert np.max(np.abs(gs - g0)) <= 1e-8 * abs(g0)
    fd = ms.fd_derivatives(ts, gs)
    assert abs(fd.first) <= 1e-7
    assert abs(fd.second) <= 1e-5


def test_energy_along_flow_is_deterministic():
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 24, mode=1, amplitude=0.05)
    flow = ms.FlowSpec(direction=np.cos(2 * np.pi * np.arange(24) / 24.0),
                       half_height=1.0, steps=(-0.01, 0.0, 0.01))
    first = ms.energy_along_flow(domain, curve, flow, ms.Grid(24, 24))
    second = ms.energy_along_flow(domain, curve, flow, ms.Grid(24, 24))
    np.testing.assert_array_equal(first[1], second[1])


def test_flow_escape_propagates():
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 16)
    flow = ms.FlowSpec(direction=np.ones(16), half_height=1.0, steps=(0.0, 1.2))
    with pytest.raises(CurveEscapesStrip):
        ms.energy_along_flow(domain, curve, flow, ms.Grid(16, 16))


# ------------------------------------------- assembled vs finite diffs

def test_validate_second_variation_flat_mode():
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 48)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, ms.Grid(48, 48), psi)
    assert report.first_ok
    assert report.second_ok
    assert not report.non_critical
    assert report.mismatch < 1e-5
    assert report.assembled.mismatch < 1e-10
    assert report.base_energy == pytest.approx(3.0, rel=1e-12)
    assert report.passed


def test_validate_solves_the_base_curve_once(monkeypatch):
    # One base solve plus four flowed curves, two components each; the
    # t = 0 sample is the base energy itself, not a re-solve of it.
    built = []
    init = elliptic._Component.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(elliptic._Component, "__init__", counting_init)
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.05)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, ms.Grid(32, 32), psi)
    assert len(built) == 10
    assert report.gs[report.ts == 0.0].tolist() == [report.base_energy]
    total, _ = ms.total_energy(domain, curve, ms.Grid(32, 32))
    assert total == report.base_energy


def test_validate_flags_non_critical_configuration():
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.08)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, ms.Grid(32, 32), psi)
    assert report.non_critical  # transmission residual is O(1) here
    # g'(0) is genuinely nonzero away from criticality
    assert abs(report.fd.first) > 1e-3


def test_total_energy_matches_components(unit_strip_state):
    domain, curve, grid, state, _ = unit_strip_state
    total, _ = ms.total_energy(domain, curve, grid)
    assert total == pytest.approx(
        ms.dirichlet_energy(state) + ms.curve_length(curve), rel=1e-12)
