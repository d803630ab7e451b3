"""Closed-form references for the flat interface in the periodic strip.

With the straight cut y = 0 and the separated drift data, the nonlocal
operator diagonalizes in the Fourier basis: the perturbation
cos(2 pi k x / b), k >= 1 periods across the strip, has eigenvalue

    lambda_k = (2 b / (k pi)) * tanh(2 pi k a / b),

so the leading eigenvalue is lambda_1 = (2 b / pi) * tanh(2 pi a / b)
and the flat pair is strictly stable exactly when that value is below
one.  The matching bulk fields are sin * sinh separated modes, also
provided here for solver cross-checks (state_probe_error and
jump_probe_error measure both solvers against them).  Every product
takes 2 k pi first (2 * k * math.pi), so each value is bit for bit the
one written with the half-period count n = 2 k, (4 b / (n pi)) *
tanh(n pi a / b): doubling is exact in binary floating point.
"""

import math

import numpy as np

from . import elliptic, geometry


def _check_strip(a, b):
    if not (np.isfinite(a) and a > 0 and np.isfinite(b) and b > 0):
        raise ValueError("strip parameters must be positive and finite")


def _check_mode(k):
    """k as an int; ValueError unless an integer >= 1."""
    if int(k) != k or k < 1:
        raise ValueError("mode index must be an integer >= 1")
    return int(k)


def mode_lambda(k, a, b):
    """Eigenvalue of the mode cos(2 pi k x / b) on the flat interface.

    k must be an integer >= 1.  For large 2 pi k a / b the tanh factor
    rounds to 1 (math.tanh(t) is exactly 1.0 from t ~ 19.07 on), so the
    asymptote 2 b / (k pi) is returned.
    """
    _check_strip(a, b)
    wave = 2 * _check_mode(k) * math.pi
    return 4.0 * b / wave * math.tanh(wave * a / b)


def lambda1_strip(a, b):
    """Leading eigenvalue (2 b / pi) tanh(2 pi a / b) of the flat pair."""
    return mode_lambda(1, a, b)


def strip_mode_field(k, amplitude, domain, grid):
    """Separated bulk mode paired with the perturbation cos(2 pi k x / b).

    Returns a SlitField on the flat-cut strip whose value on both sides
    is  amplitude * sin(2 pi k x / b) * sinh(2 pi k (a - |y|) / b); it is
    harmonic, vanishes on the walls, and is even in y.
    """
    _check_strip(domain.half_height, domain.period)
    a = domain.half_height
    wave = 2 * _check_mode(k) * math.pi / domain.period
    curve = geometry.flat_curve(domain.period, grid.nx)
    system = elliptic.StripSystem(domain, curve, grid)
    x = curve.abscissae
    y = a * (np.arange(grid.ny + 1) / grid.ny)
    values = amplitude * np.sin(wave * x)[None, :] * np.sinh(wave * (a - y))[:, None]
    return elliptic.SlitField(
        system=system,
        slope_upper=0.0,
        slope_lower=0.0,
        w_upper=values.copy(),
        w_lower=values.copy(),
    )


def mode_trace_slope(k, amplitude, a, b):
    """d/dy of the mode field at the cut, from the upper side.

    The trace derivative is -amplitude * (2 pi k / b) * cosh(2 pi k a / b)
    * sin(2 pi k x / b); returned as the coefficient of sin(2 pi k x / b).
    k must be an integer >= 1, as for mode_lambda.
    """
    _check_strip(a, b)
    wave = 2 * _check_mode(k) * math.pi / b
    return -amplitude * wave * math.cosh(wave * a)


def state_probe_error(domain, n):
    """Max nodal errors (upper, lower) of the state solve on an n x n grid.

    Keeps domain's a and b but sets the walls to cos(kx) above and 0
    below, k = 2 pi / b; with the flat cut the exact state is
    cos(kx) cosh(ky) / cosh(ka) above and 0 below.
    """
    a, b = domain.half_height, domain.period
    k = 2.0 * math.pi / b
    wall = geometry.BoundaryData(0.0, lambda x: np.cos(k * x))
    probe = geometry.StripDomain(a, b, wall, geometry.BoundaryData(0.0))
    curve = geometry.flat_curve(b, n)
    state, _ = elliptic.solve_state(probe, curve, elliptic.Grid(n, n))
    y = a * np.arange(n + 1) / n
    exact = np.cos(k * curve.abscissae)[None, :] * np.cosh(k * y)[:, None] \
        / math.cosh(k * a)
    return np.max(np.abs(state.w_upper - exact)), np.max(np.abs(state.w_lower))


def jump_probe_error(domain, n):
    """Max nodal errors (upper, lower) of the transport solve on an n x n grid.

    domain must carry the canonical walls (x + 1 above, -x below); with
    the flat cut, phi = cos(2 pi x / b) then drives strip_mode_field(1)
    of amplitude 1 / cosh(2 pi a / b).
    """
    a, b = domain.half_height, domain.period
    curve = geometry.flat_curve(b, n)
    grid = elliptic.Grid(n, n)
    state, _ = elliptic.solve_state(domain, curve, grid)
    phi = np.cos(2.0 * math.pi * curve.abscissae / b)
    field, _ = elliptic.solve_jump_source(state, phi)
    ref = strip_mode_field(1, 1.0 / math.cosh(2.0 * math.pi * a / b), domain, grid)
    return (np.max(np.abs(field.w_upper - ref.w_upper)),
            np.max(np.abs(field.w_lower - ref.w_lower)))
