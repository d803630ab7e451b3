"""Closed-form references for the flat interface in the periodic strip.

With the straight cut y = 0 and the separated drift data, the nonlocal
operator diagonalizes in the Fourier basis: the perturbation
cos(n pi x / b) (n even, by periodicity) has eigenvalue

    lambda_n = (4 b / (n pi)) * tanh(n pi a / b),

so the leading eigenvalue is lambda_1 = (2 b / pi) * tanh(2 pi a / b)
and the flat pair is strictly stable exactly when that value is below
one.  The matching bulk fields are sin * sinh separated modes, also
provided here for solver cross-checks (state_probe_error and
jump_probe_error measure both solvers against them), together with a
dense generalized eigensolve for the straight-segment quadratic form.
"""

import math

import numpy as np
import scipy.linalg

from . import elliptic, geometry, second_variation
from .errors import OddMode

# tanh(t) for t >= 20 equals 1 to well below double rounding.
_TANH_SATURATION = 20.0


def _check_strip(a, b):
    if not (np.isfinite(a) and a > 0 and np.isfinite(b) and b > 0):
        raise ValueError("strip parameters must be positive and finite")


def mode_lambda(n, a, b):
    """Eigenvalue of the mode cos(n pi x / b) on the flat interface.

    n must be an even integer >= 2: odd modes are not b-periodic and
    raise OddMode.  For large n pi a / b the tanh factor saturates and
    the asymptote 4 b / (n pi) is returned.
    """
    _check_strip(a, b)
    if int(n) != n or n < 2:
        raise ValueError("mode index must be an integer >= 2")
    n = int(n)
    if n % 2 != 0:
        raise OddMode("mode index %d is odd; periodicity forces even modes" % n)
    t = n * math.pi * a / b
    factor = 1.0 if t > _TANH_SATURATION else math.tanh(t)
    return 4.0 * b / (n * math.pi) * factor


def lambda1_strip(a, b):
    """Leading eigenvalue (2 b / pi) tanh(2 pi a / b) of the flat pair."""
    return mode_lambda(2, a, b)


def strip_mode_field(n, amplitude, domain, grid):
    """Separated bulk mode paired with the perturbation cos(n pi x / b).

    Returns a SlitField on the flat-cut strip whose value on both sides
    is  amplitude * sin(n pi x / b) * sinh(n pi (a - |y|) / b); it is
    harmonic, vanishes on the walls, and is even in y.
    """
    _check_strip(domain.half_height, domain.period)
    if int(n) != n or n < 2:
        raise ValueError("mode index must be an integer >= 2")
    if int(n) % 2 != 0:
        raise OddMode("mode index %d is odd; periodicity forces even modes" % int(n))
    a = domain.half_height
    k = int(n) * math.pi / domain.period
    curve = geometry.flat_curve(domain.period, grid.nx)
    system = elliptic.StripSystem(domain, curve, grid)
    x = system.abscissae
    y = a * (np.arange(grid.ny + 1) / grid.ny)
    values = amplitude * np.sin(k * x)[None, :] * np.sinh(k * (a - y))[:, None]
    return elliptic.SlitField(
        system=system,
        slope_upper=0.0,
        slope_lower=0.0,
        w_upper=values.copy(),
        w_lower=values.copy(),
    )


def mode_trace_slope(n, amplitude, a, b):
    """d/dy of the mode field at the cut, from the upper side.

    The trace derivative is -amplitude * (n pi / b) * cosh(n pi a / b)
    * sin(n pi x / b); returned as the coefficient of sin(n pi x / b).
    """
    _check_strip(a, b)
    k = n * math.pi / b
    return -amplitude * k * math.cosh(k * a)


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
    the flat cut, phi = cos(2 pi x / b) then drives strip_mode_field(2)
    of amplitude 1 / cosh(2 pi a / b).
    """
    a, b = domain.half_height, domain.period
    curve = geometry.flat_curve(b, n)
    grid = elliptic.Grid(n, n)
    state, _ = elliptic.solve_state(domain, curve, grid)
    phi = np.cos(2.0 * math.pi * curve.abscissae / b)
    field, _ = elliptic.solve_jump_source(state, phi)
    ref = strip_mode_field(2, 1.0 / math.cosh(2.0 * math.pi * a / b), domain, grid)
    return (np.max(np.abs(field.w_upper - ref.w_upper)),
            np.max(np.abs(field.w_lower - ref.w_lower)))


def segment_min_eig(config, m=200):
    """Smallest eigenvalue of the segment form, H1-normalized.

    Dense generalized eigensolve of the segment curve form
    K - h1 e_0 e_0' - h2 e_L e_L' (from assemble_tilde_gram) against
    M + K with P1 elements on m nodes; the sign decides stability of the
    straight-segment critical pair.
    """
    if m < 16:
        raise ValueError("need at least 16 nodes for the segment eigensolve")
    form = second_variation.assemble_tilde_gram(
        config, restriction="none", m=m).matrix
    # Zero row sums of the P1 stiffness: each end diagonal entry is minus
    # its off-diagonal neighbour, which the wall terms leave untouched.
    stiff = form.copy()
    stiff[0, 0] = -form[0, 1]
    stiff[-1, -1] = -form[-1, -2]
    h = config.length / (m - 1)
    mass_main = np.full(m, 4.0 * h / 6.0)
    mass_main[0] = mass_main[-1] = 2.0 * h / 6.0
    mass = np.diag(mass_main) + np.diag(np.full(m - 1, h / 6.0), 1) \
        + np.diag(np.full(m - 1, h / 6.0), -1)
    vals = scipy.linalg.eigh(form, mass + stiff, eigvals_only=True,
                             subset_by_index=(0, 0))
    return float(vals[0])
