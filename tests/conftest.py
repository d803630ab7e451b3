import numpy as np
import pytest

import ms_stability as ms


def drift_domain(a=1.0, b=1.0):
    """Strip with the canonical separated drift data: x+1 above, -x below."""
    return ms.StripDomain(
        half_height=a,
        period=b,
        top=ms.BoundaryData(1.0, lambda x: np.ones_like(x)),
        bottom=ms.BoundaryData(-1.0),
    )


def flat_setup(a=1.0, b=1.0, n=48, rtol=1e-10):
    """Solved flat-interface state plus its grid and curve."""
    domain = drift_domain(a, b)
    curve = ms.flat_curve(b, n)
    grid = ms.Grid(n, n)
    state, stats = ms.solve_state(domain, curve, grid, rtol=rtol)
    return domain, curve, grid, state, stats


def add_at_coupling(trace, slope, j_e, hx, orientation):
    """Dense C of one side by np.add.at, element by element: the reference
    for JumpCoupling, which keeps the element coefficients only."""
    u_xi = slope + (np.roll(trace, -1) - trace) / hx
    coef = orientation * u_xi / j_e
    m = trace.size
    i = np.arange(m)
    ip = (i + 1) % m
    c = np.zeros((m, m))
    np.add.at(c, (ip, i), coef / 2.0)
    np.add.at(c, (ip, ip), coef / 2.0)
    np.add.at(c, (i, i), -coef / 2.0)
    np.add.at(c, (i, ip), -coef / 2.0)
    return c


def dense_coupling(state):
    """{side: reference dense C} of a solved state."""
    curve = state.system.curve
    hx = curve.spacing
    j_e = np.hypot(hx, np.roll(curve.heights, -1) - curve.heights) / hx
    return {"upper": add_at_coupling(state.w_upper[0], state.slope_upper,
                                     j_e, hx, -1.0),
            "lower": add_at_coupling(state.w_lower[0], state.slope_lower,
                                     j_e, hx, +1.0)}


@pytest.fixture
def unit_strip_state():
    return flat_setup(1.0, 1.0, 48)
