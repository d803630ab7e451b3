import math

import mpmath
import numpy as np
import pytest

import ms_stability as ms

from conftest import drift_domain


def mp_mode_lambda(k, a, b):
    """Arbitrary-precision reference (2b / k pi) tanh(2 pi k a / b)."""
    with mpmath.workdps(40):
        k, a, b = mpmath.mpf(k), mpmath.mpf(a), mpmath.mpf(b)
        return float(2 * b / (k * mpmath.pi) * mpmath.tanh(2 * k * mpmath.pi * a / b))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 1.0), (0.25, 1.75)])
def test_mode_lambda_matches_high_precision(k, a, b):
    assert ms.mode_lambda(k, a, b) == pytest.approx(mp_mode_lambda(k, a, b), rel=1e-13)


@pytest.mark.parametrize("k", [1, 3, 40])
@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 2.0), (0.341, 2.0), (2.0, 1.5)])
def test_period_index_keeps_the_half_period_bits(k, a, b):
    # 2 * k * math.pi doubles k pi exactly, so mode k is bit for bit the
    # closed form written with the half-period count n = 2k
    n = 2 * k
    assert ms.mode_lambda(k, a, b) == \
        4.0 * b / (n * math.pi) * math.tanh(n * math.pi * a / b)
    wave = n * math.pi / b
    assert ms.mode_trace_slope(k, 0.7, a, b) == -0.7 * wave * math.cosh(wave * a)


def test_known_leading_values():
    # Frozen from the 40-digit evaluation of the closed forms.
    assert ms.lambda1_strip(1.0, 1.0) == pytest.approx(0.6366153321608719, rel=1e-13)
    assert ms.lambda1_strip(1.0, 2.0) == pytest.approx(1.2684930047596630, rel=1e-13)
    assert ms.mode_lambda(2, 1.0, 1.0) == pytest.approx(0.3183098861760484, rel=1e-13)


def test_mode_lambda_saturates_for_deep_strips():
    # For 2 pi k a / b > 20 the tanh factor is 1 to double rounding.
    assert ms.mode_lambda(1, 10.0, 1.0) == 4.0 * 1.0 / (2.0 * math.pi)
    deep = ms.mode_lambda(1, 3.19, 1.0)     # just above the threshold
    near = ms.mode_lambda(1, 3.17, 1.0)     # just below it
    assert abs(deep - near) < 1e-14


def test_mode_lambda_rejects_bad_indices():
    for bad in (0, -2, 2.5):
        with pytest.raises(ValueError):
            ms.mode_lambda(bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        ms.mode_lambda(1, -1.0, 1.0)
    # every integer k >= 1 is b-periodic, odd ones included
    assert ms.mode_lambda(3, 1.0, 1.0) > ms.mode_lambda(4, 1.0, 1.0)


def test_lambda1_monotone_in_both_parameters():
    values_a = [ms.lambda1_strip(a, 1.0) for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(values_a, values_a[1:]))
    values_b = [ms.lambda1_strip(1.0, b) for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(values_b, values_b[1:]))


def test_mode_lambda_decreases_in_mode_index():
    vals = [ms.mode_lambda(k, 1.0, 1.0) for k in (1, 2, 3, 4, 5)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_stability_threshold_location():
    # lambda_1 = 1 close to b = pi/2 at a = 1 (tanh factor ~ 0.9993).
    assert ms.lambda1_strip(1.0, math.pi / 2.0) == pytest.approx(1.0, abs=1e-3)
    assert ms.lambda1_strip(1.0, 1.4) < 1.0 < ms.lambda1_strip(1.0, 1.7)


def test_strip_mode_field_structure():
    domain = drift_domain(1.0, 1.0)
    grid = ms.Grid(64, 64)
    field = ms.strip_mode_field(1, 0.7, domain, grid)
    # wall rows vanish, the two sides mirror each other
    assert np.all(field.w_upper[-1] == 0.0)
    assert np.all(field.w_lower[-1] == 0.0)
    np.testing.assert_array_equal(field.w_upper, field.w_lower)
    # interior of the upper side is discretely harmonic: five-point test
    w = field.w_upper
    hx = 1.0 / 64
    hy = 1.0 / 64
    lap = (np.roll(w, 1, axis=1) + np.roll(w, -1, axis=1) - 2 * w) / hx ** 2
    lap += (np.vstack([w[1:], w[:1]]) + np.vstack([w[-1:], w[:-1]]) - 2 * w) / hy ** 2
    interior = lap[1:-1, :]
    scale = np.max(np.abs(w)) * (2 * math.pi) ** 2
    assert np.max(np.abs(interior)) < 5e-3 * scale


def test_strip_mode_field_trace_slope():
    a = b = 1.0
    domain = drift_domain(a, b)
    ny = 256
    field = ms.strip_mode_field(1, 1.0, domain, ms.Grid(32, ny))
    x = np.arange(32) / 32.0
    fd_slope = (field.w_upper[1] - field.w_upper[0]) / (a / ny)
    expected = ms.mode_trace_slope(1, 1.0, a, b) * np.sin(2 * math.pi * x)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(fd_slope - expected)) < 2e-2 * scale


def test_mode_trace_slope_checks_the_mode_index():
    # The index rule of mode_lambda: an integer k >= 1.
    for bad in (0, -2, 2.5):
        with pytest.raises(ValueError):
            ms.mode_trace_slope(bad, 1.0, 1.0, 1.0)
    assert ms.mode_trace_slope(2.0, 1.0, 1.0, 1.0) == \
        ms.mode_trace_slope(2, 1.0, 1.0, 1.0)


def test_strip_mode_field_rejects_bad_modes():
    domain = drift_domain()
    for bad in (0, 1.5):
        with pytest.raises(ValueError):
            ms.strip_mode_field(bad, 1.0, domain, ms.Grid(16, 16))


def test_segment_min_eig_signs():
    concave = ms.SegmentConfig(1.0, -1.0, -1.0)
    convex = ms.SegmentConfig(1.0, 1.0, 1.0)
    assert ms.segment_min_eig(concave) > 0.0
    assert ms.segment_min_eig(convex) < 0.0
    # mixed curvatures: d2F[1] = 0 but tilting the test function lowers it
    mixed = ms.SegmentConfig(1.0, -1.0, 1.0)
    assert ms.segment_min_eig(mixed) < 0.0


def test_segment_min_eig_rayleigh_bound():
    # The constant test function bounds the minimum from above:
    # form value -h1-h2, (M+K)-norm^2 = L.
    config = ms.SegmentConfig(2.0, 1.0, 1.0)
    assert ms.segment_min_eig(config) <= -2.0 / 2.0 + 1e-9


def test_segment_min_eig_mesh_stability():
    config = ms.SegmentConfig(1.0, -0.8, -1.3)
    coarse = ms.segment_min_eig(config, m=100)
    fine = ms.segment_min_eig(config, m=400)
    assert coarse == pytest.approx(fine, rel=1e-3)
    with pytest.raises(ValueError):
        ms.segment_min_eig(config, m=8)
