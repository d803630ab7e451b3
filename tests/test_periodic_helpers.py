"""The periodic shifts and scatters are written as slices and indexed +=;
each must give, bit for bit, what the np.roll / np.add.at formula gives.
The coupling's element sums reorder the dense products, so they match
the add.at C to rounding."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

import ms_stability as ms
from ms_stability import elliptic, geometry

from conftest import dense_coupling, drift_domain


# ------------------------------------------------------ reference formulas

def roll_derivatives(f, h):
    fp1, fp2 = np.roll(f, -1), np.roll(f, -2)
    fm1, fm2 = np.roll(f, 1), np.roll(f, 2)
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * h ** 2)
    return d1, d2


def roll_element_lengths(curve):
    return np.hypot(curve.spacing, np.roll(curve.heights, -1) - curve.heights)


def roll_nodal_arclengths(curve):
    ell = roll_element_lengths(curve)
    return 0.5 * (ell + np.roll(ell, 1))


def add_at_gram(curve):
    ell = roll_element_lengths(curve)
    m = curve.m
    mat = np.zeros((m, m))
    i = np.arange(m)
    ip = (i + 1) % m
    np.add.at(mat, (i, i), 1.0 / ell)
    np.add.at(mat, (ip, ip), 1.0 / ell)
    np.add.at(mat, (i, ip), -1.0 / ell)
    np.add.at(mat, (ip, i), -1.0 / ell)
    d1, d2 = roll_derivatives(curve.heights, curve.spacing)
    h_curv = d2 / np.power(1.0 + d1 * d1, 1.5)
    mat[i, i] += h_curv * h_curv * roll_nodal_arclengths(curve)
    return mat


# ------------------------------------------------------------- strategies

@st.composite
def samples(draw, low=8, high=300):
    """(period, rng) and m random values of a random scale."""
    m = draw(st.integers(low, high))
    period = draw(st.floats(0.1, 10.0))
    scale = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return period, scale * rng.standard_normal(m), rng


# ------------------------------------------------------------------ tests

@settings(max_examples=25, deadline=None)
@given(samples())
def test_curve_helpers_equal_the_roll_formulas(data):
    period, heights, _ = data
    curve = ms.GraphCurve(period, heights)
    got = geometry.periodic_derivatives(heights, curve.spacing)
    for g, ref in zip(got, roll_derivatives(heights, curve.spacing)):
        assert np.array_equal(g, ref)
    assert np.array_equal(geometry.element_lengths(curve),
                          roll_element_lengths(curve))
    assert np.array_equal(geometry.nodal_arclengths(curve),
                          roll_nodal_arclengths(curve))
    assert np.array_equal(ms.assemble_tilde_gram(curve).matrix,
                          add_at_gram(curve))


@settings(max_examples=25, deadline=None)
@given(samples(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_coupling_matrices_equal_the_add_at_formula(data, s_upper, s_lower):
    # loads and dual_vector are element sums over the coefficients; the
    # reference is the product with each side's dense add.at C
    period, heights, rng = data
    curve = ms.GraphCurve(period, heights)
    m = curve.m
    w_upper, w_lower, v_upper, v_lower = rng.standard_normal((4, 2, m))
    # JumpCoupling reads only the curve, the column count and the traces
    system = SimpleNamespace(curve=curve, grid=SimpleNamespace(nx=m))
    state = elliptic.SlitField(system, s_upper, s_lower, w_upper, w_lower)
    field = elliptic.SlitField(system, 0.0, 0.0, v_upper, v_lower)
    coupling = elliptic.JumpCoupling(state)
    dense = dense_coupling(state)
    phi = rng.standard_normal(m)

    def close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    for got, side in zip(coupling.loads(phi), ("upper", "lower")):
        assert close(got, -dense[side] @ phi)
    ref = -2.0 * (dense["upper"].T @ v_upper[0] + dense["lower"].T @ v_lower[0])
    assert close(coupling.dual_vector(field), ref)


@settings(max_examples=10, deadline=None)
@given(samples(low=16, high=300))
def test_wall_coupling_equals_the_roll_formula(data):
    period, heights, rng = data
    curve = ms.GraphCurve(period, 0.5 * np.tanh(heights))  # inside |y| < 1
    comp = elliptic._Component(drift_domain(1.0, period), curve,
                               ms.Grid(curve.m, 16))
    wall = rng.standard_normal(curve.m)
    ref = np.zeros(comp.n_unknown)
    ref[-curve.m:] = sum(c * np.roll(wall, 1 - k)
                         for k, c in enumerate(comp._coupling(1, di)[-1]
                                               for di in (-1, 0, 1)))
    assert np.array_equal(comp.wall_coupling(wall), ref)
