import math

import mpmath
import numpy as np
import pytest

import ms_stability as ms
from ms_stability.errors import OddMode

from conftest import drift_domain


def mp_mode_lambda(n, a, b):
    """Arbitrary-precision reference (4b / n pi) tanh(n pi a / b)."""
    with mpmath.workdps(40):
        n, a, b = mpmath.mpf(n), mpmath.mpf(a), mpmath.mpf(b)
        return float(4 * b / (n * mpmath.pi) * mpmath.tanh(n * mpmath.pi * a / b))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 1.0), (0.25, 1.75)])
def test_mode_lambda_matches_high_precision(n, a, b):
    assert ms.mode_lambda(n, a, b) == pytest.approx(mp_mode_lambda(n, a, b), rel=1e-13)


def test_known_leading_values():
    # Frozen from the 40-digit evaluation of the closed forms.
    assert ms.lambda1_strip(1.0, 1.0) == pytest.approx(0.6366153321608719, rel=1e-13)
    assert ms.lambda1_strip(1.0, 2.0) == pytest.approx(1.2684930047596630, rel=1e-13)
    assert ms.mode_lambda(4, 1.0, 1.0) == pytest.approx(0.3183098861760484, rel=1e-13)


def test_mode_lambda_saturates_for_deep_strips():
    # For n pi a / b > 20 the tanh factor is 1 to double rounding.
    assert ms.mode_lambda(2, 10.0, 1.0) == 4.0 * 1.0 / (2.0 * math.pi)
    deep = ms.mode_lambda(2, 3.19, 1.0)     # just above the threshold
    near = ms.mode_lambda(2, 3.17, 1.0)     # just below it
    assert abs(deep - near) < 1e-14


def test_mode_lambda_rejects_bad_indices():
    with pytest.raises(OddMode):
        ms.mode_lambda(3, 1.0, 1.0)
    with pytest.raises(OddMode):
        ms.mode_lambda(5, 1.0, 1.0)
    for bad in (0, -2, 2.5):
        with pytest.raises(ValueError):
            ms.mode_lambda(bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        ms.mode_lambda(2, -1.0, 1.0)


def test_lambda1_monotone_in_both_parameters():
    values_a = [ms.lambda1_strip(a, 1.0) for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(values_a, values_a[1:]))
    values_b = [ms.lambda1_strip(1.0, b) for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(values_b, values_b[1:]))


def test_mode_lambda_decreases_in_mode_index():
    vals = [ms.mode_lambda(n, 1.0, 1.0) for n in (2, 4, 6, 8, 10)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_stability_threshold_location():
    # lambda_1 = 1 close to b = pi/2 at a = 1 (tanh factor ~ 0.9993).
    assert ms.lambda1_strip(1.0, math.pi / 2.0) == pytest.approx(1.0, abs=1e-3)
    assert ms.lambda1_strip(1.0, 1.4) < 1.0 < ms.lambda1_strip(1.0, 1.7)


def test_strip_mode_field_structure():
    domain = drift_domain(1.0, 1.0)
    grid = ms.Grid(64, 64)
    field = ms.strip_mode_field(2, 0.7, domain, grid)
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
    field = ms.strip_mode_field(2, 1.0, domain, ms.Grid(32, ny))
    x = np.arange(32) / 32.0
    fd_slope = (field.w_upper[1] - field.w_upper[0]) / (a / ny)
    expected = ms.mode_trace_slope(2, 1.0, a, b) * np.sin(2 * math.pi * x)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(fd_slope - expected)) < 2e-2 * scale


def test_mode_trace_slope_checks_the_mode_index():
    # The index rules of mode_lambda: without them (3, 1, 1, 1) returned
    # a slope for a mode that is not b-periodic.
    for odd in (3, 5):
        with pytest.raises(OddMode):
            ms.mode_trace_slope(odd, 1.0, 1.0, 1.0)
    for bad in (0, 1, -2, 2.5):
        with pytest.raises(ValueError):
            ms.mode_trace_slope(bad, 1.0, 1.0, 1.0)
    assert ms.mode_trace_slope(4.0, 1.0, 1.0, 1.0) == \
        ms.mode_trace_slope(4, 1.0, 1.0, 1.0)


def test_strip_mode_field_rejects_odd_modes():
    domain = drift_domain()
    with pytest.raises(OddMode):
        ms.strip_mode_field(3, 1.0, domain, ms.Grid(16, 16))


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
