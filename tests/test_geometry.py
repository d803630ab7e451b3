import math

import numpy as np
import pytest
import scipy.integrate

import ms_stability as ms
from ms_stability import geometry
from ms_stability.errors import CurveEscapesStrip


def test_flat_curve_has_zero_curvature():
    curve = ms.flat_curve(1.0, 64)
    assert np.all(ms.curvature(curve) == 0.0)
    assert ms.curve_length(curve) == pytest.approx(1.0, abs=1e-15)


def test_curvature_matches_linearization_for_tiny_amplitude():
    # For psi = eps * sin(2 pi x), H = psi'' + O(eps^3) = -(2 pi)^2 psi.
    eps = 1e-6
    curve = ms.sinusoidal_curve(1.0, 128, mode=1, amplitude=eps)
    h = ms.curvature(curve)
    expected = -(2.0 * math.pi) ** 2 * curve.heights
    # remaining error is the fourth-order stencil truncation, ~2.5e-12 here
    assert np.max(np.abs(h - expected)) <= 1e-6 * (2.0 * math.pi) ** 2 * eps


def exact_sin_curvature(x, amp, b):
    k = 2.0 * math.pi / b
    d1 = amp * k * np.cos(k * x)
    d2 = -amp * k * k * np.sin(k * x)
    return d2 / (1.0 + d1 * d1) ** 1.5


def test_curvature_converges_at_fourth_order():
    amp, b = 0.3, 1.0
    errs = []
    for m in (32, 64, 128):
        curve = ms.sinusoidal_curve(b, m, mode=1, amplitude=amp)
        exact = exact_sin_curvature(curve.abscissae, amp, b)
        errs.append(np.max(np.abs(ms.curvature(curve) - exact)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


def test_curvature_sign_convention_concave_bump_negative():
    # A downward-opening bump (concave from above) has H < 0 at its apex.
    curve = ms.sinusoidal_curve(1.0, 64, mode=1, amplitude=0.2)
    h = ms.curvature(curve)
    apex = np.argmax(curve.heights)
    assert h[apex] < 0.0


def test_curve_length_against_adaptive_quadrature():
    amp, b = 0.2, 1.0

    def integrand(x):
        return math.hypot(1.0, amp * 2.0 * math.pi / b * math.cos(2.0 * math.pi * x / b))

    exact, quad_err = scipy.integrate.quad(integrand, 0.0, b, limit=200)
    assert quad_err < 1e-10
    errs = []
    for m in (64, 128, 256):
        curve = ms.sinusoidal_curve(b, m, mode=1, amplitude=amp)
        errs.append(abs(ms.curve_length(curve) - exact))
    assert errs[-1] < 1e-4 * exact
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.8


def test_curve_length_invariant_under_shift_and_roll():
    rng = np.random.default_rng(7)
    heights = 0.1 * rng.standard_normal(32)
    curve = ms.GraphCurve(2.0, heights)
    base = ms.curve_length(curve)
    shifted = ms.GraphCurve(2.0, heights + 0.37)
    assert ms.curve_length(shifted) == pytest.approx(base, rel=1e-14)
    for roll in (1, 5, 17):
        rolled = ms.GraphCurve(2.0, np.roll(heights, roll))
        assert ms.curve_length(rolled) == pytest.approx(base, rel=1e-13)


def test_flow_zero_time_is_identity():
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    flow = ms.FlowSpec(direction=np.ones(32), half_height=1.0)
    moved = ms.flow_curve(curve, flow, 0.0)
    assert np.array_equal(moved.heights, curve.heights)


def test_flow_semigroup_property():
    rng = np.random.default_rng(11)
    # dyadic heights, direction, and times compose bitwise exactly
    curve = ms.GraphCurve(1.0, rng.integers(-8, 9, 24) / 16.0)
    flow = ms.FlowSpec(direction=rng.integers(-8, 9, 24) / 8.0, half_height=4.0)
    once = ms.flow_curve(ms.flow_curve(curve, flow, 0.125), flow, 0.25)
    direct = ms.flow_curve(curve, flow, 0.375)
    assert np.array_equal(once.heights, direct.heights)
    # non-dyadic times compose to rounding
    twice = ms.flow_curve(ms.flow_curve(curve, flow, 0.1), flow, 0.1)
    direct = ms.flow_curve(curve, flow, 0.2)
    np.testing.assert_allclose(twice.heights, direct.heights, rtol=0, atol=1e-14)


def test_flow_escape_raises():
    curve = ms.flat_curve(1.0, 16)
    flow = ms.FlowSpec(direction=np.ones(16), half_height=1.0)  # margin a/8
    ms.flow_curve(curve, flow, 0.8)  # still below 1 - 1/8 = 0.875
    with pytest.raises(CurveEscapesStrip):
        ms.flow_curve(curve, flow, 0.9)


def test_flow_validation_errors():
    curve = ms.flat_curve(1.0, 16)
    flow = ms.FlowSpec(direction=np.ones(8), half_height=1.0)
    with pytest.raises(ValueError):
        ms.flow_curve(curve, flow, 0.1)
    with pytest.raises(ValueError):
        ms.flow_curve(curve, ms.FlowSpec(np.ones(16), 1.0), float("nan"))
    with pytest.raises(ValueError, match="half_height must be positive"):
        ms.FlowSpec(direction=np.ones(16), half_height=0.0)


def test_strip_domain_validation():
    zero = ms.BoundaryData(0.0)
    with pytest.raises(ValueError, match="half_height must be positive"):
        ms.StripDomain(0.0, 1.0, zero, zero)
    with pytest.raises(ValueError, match="period must be positive and finite"):
        ms.StripDomain(1.0, math.inf, zero, zero)
    with pytest.raises(ValueError, match="drift slope must be finite"):
        ms.StripDomain(1.0, 1.0, zero, ms.BoundaryData(math.nan))


def test_flow_spec_validation():
    with pytest.raises(ValueError, match="flow direction must be finite"):
        ms.FlowSpec(direction=np.full(16, math.nan), half_height=1.0)
    with pytest.raises(ValueError, match="flow steps must be finite"):
        ms.FlowSpec(direction=np.ones(16), half_height=1.0,
                    steps=(0.1, math.inf))


def test_scalar_periodic_datum_broadcasts_to_the_abscissae():
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    values = ms.BoundaryData(0.0, lambda x: 2.0).sample(x)
    assert values.dtype == float and values.shape == x.shape
    assert np.all(values == 2.0)


def test_graph_curve_validation():
    with pytest.raises(ValueError):
        ms.GraphCurve(1.0, np.zeros(4))  # too few samples
    with pytest.raises(ValueError):
        ms.GraphCurve(1.0, [0.0] * 7 + [float("inf")])
    with pytest.raises(ValueError):
        ms.GraphCurve(-1.0, np.zeros(16))
    curve = ms.flat_curve(1.0, 16)
    with pytest.raises(ValueError):
        curve.heights[0] = 1.0  # read-only samples
    # the cached derivative samples are shared, so they are read-only too
    assert curve.derivatives is curve.derivatives
    for samples in curve.derivatives:
        with pytest.raises(ValueError):
            samples[0] = 1.0


def test_require_inside_strictness():
    curve = ms.GraphCurve(1.0, np.full(16, 0.5))
    curve.require_inside(1.0)
    with pytest.raises(CurveEscapesStrip):
        curve.require_inside(0.5)  # strict inequality
    with pytest.raises(CurveEscapesStrip):
        curve.require_inside(0.55, margin=0.1)


def test_periodic_derivative_stencils_are_fourth_order():
    b = 2.0
    errs1, errs2 = [], []
    for m in (32, 64, 128):
        x = np.arange(m) * b / m
        f = np.sin(2.0 * np.pi * x / b)
        d1, d2 = geometry.periodic_derivatives(f, b / m)
        k = 2.0 * np.pi / b
        errs1.append(np.max(np.abs(d1 - k * np.cos(k * x))))
        errs2.append(np.max(np.abs(d2 + k * k * f)))
    for errs in (errs1, errs2):
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.5


def test_segment_config_validation():
    seg = ms.SegmentConfig(length=1.0, h1=-1.0, h2=-2.0)
    assert seg.length == 1.0
    with pytest.raises(ValueError):
        ms.SegmentConfig(length=0.0, h1=0.0, h2=0.0)
    with pytest.raises(ValueError):
        ms.SegmentConfig(length=1.0, h1=float("nan"), h2=0.0)
