"""Geometry of the periodic strip, discontinuity curves, and normal flows.

The ambient domain is the periodic strip [0, b) x (-a, a).  A
discontinuity curve is stored as a periodic graph y = psi(x) sampled at m
uniformly spaced abscissae; the curve must stay strictly inside the
strip.  Perturbations of the curve are vertical flows psi + t * phi that
keep the flowed curve a/8 away from the horizontal walls.

Sign convention: curvature is reported with respect to the upward unit
normal of the graph, so a bump whose apex is a maximum (a cap) has
H < 0 there, and a dip whose apex is a minimum (a cup) has H > 0.
"""

import functools
import numbers

import numpy as np

from ._record import Record
from .errors import CurveEscapesStrip


def _as_readonly_array(values):
    arr = np.asarray(values, dtype=float)
    arr = np.array(arr, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


class BoundaryData(Record, frozen=True):
    """Dirichlet datum on one horizontal wall: drift slope plus periodic part.

    The trace prescribed on the wall is  slope * x + periodic(x)  where
    ``periodic`` is a b-periodic callable (None means zero).  Only the
    x-derivative of the trace needs to be periodic, which is what lets a
    linear drift through.
    """

    slope: float
    periodic: object = None  # callable x-array -> array, or None

    def sample(self, x):
        """Periodic part of the datum at abscissae ``x`` (drift excluded)."""
        x = np.asarray(x, dtype=float)
        if self.periodic is None:
            return np.zeros_like(x)
        vals = np.asarray(self.periodic(x), dtype=float)
        if vals.shape != x.shape:
            vals = np.broadcast_to(vals, x.shape).astype(float)
        return vals


class StripDomain(Record, frozen=True):
    """Periodic strip [0, b) x (-a, a) with Dirichlet data on y = +-a."""

    half_height: float
    period: float
    top: BoundaryData
    bottom: BoundaryData

    def __post_init__(self):
        if not (np.isfinite(self.half_height) and self.half_height > 0):
            raise ValueError("half_height must be positive and finite")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError("period must be positive and finite")
        for side in (self.top, self.bottom):
            if not np.isfinite(side.slope):
                raise ValueError("boundary drift slope must be finite")


class SegmentConfig(Record, frozen=True):
    """Straight segment of length L meeting the box boundary at both ends.

    h1 and h2 are the signed curvatures of the box boundary at the two
    endpoints (negative where the box is concave as seen from inside).
    """

    length: float
    h1: float
    h2: float

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError("segment length must be positive and finite")
        if not (np.isfinite(self.h1) and np.isfinite(self.h2)):
            raise ValueError("endpoint curvatures must be finite")


class GraphCurve(Record, frozen=True):
    """Periodic graph curve y = psi(x) sampled at m uniform abscissae.

    heights[i] = psi(i * period / m), i = 0..m-1.  The sample count m
    must be at least 8 so the five-point periodic stencils make sense.
    """

    period: float
    heights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "heights", _as_readonly_array(self.heights))
        if self.heights.ndim != 1 or self.heights.size < 8:
            raise ValueError("need at least 8 height samples on the curve")
        if not np.all(np.isfinite(self.heights)):
            raise ValueError("curve heights must be finite")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError("period must be positive and finite")

    @property
    def m(self):
        return self.heights.size

    @property
    def spacing(self):
        return self.period / self.m

    @property
    def abscissae(self):
        return np.arange(self.m) * self.spacing

    @functools.cached_property
    def derivatives(self):
        """Read-only (psi', psi'') samples from periodic_derivatives,
        computed on first use and shared by every later reader."""
        d1, d2 = periodic_derivatives(self.heights, self.spacing)
        d1.setflags(write=False)
        d2.setflags(write=False)
        return d1, d2

    def max_height(self):
        return float(np.max(np.abs(self.heights)))

    def require_inside(self, half_height, margin=0.0):
        """Raise CurveEscapesStrip unless max |psi| < half_height - margin."""
        limit = half_height - margin
        worst = self.max_height()
        if not worst < limit:
            raise CurveEscapesStrip(
                "curve reaches |y| = %.6g, limit is %.6g" % (worst, limit)
            )


def flat_curve(period, m):
    """The straight interface y = 0 with m samples."""
    return GraphCurve(period, np.zeros(m))


def sinusoidal_curve(period, m, mode=1, amplitude=0.0, phase=0.0):
    """Curve psi(x) = amplitude * sin(2*pi*mode*x/period + phase)."""
    x = np.arange(m) * (period / m)
    return GraphCurve(period, amplitude * np.sin(2.0 * np.pi * mode * x / period + phase))


class FlowSpec(Record, frozen=True):
    """Vertical normal flow of a curve: direction samples and time steps.

    direction[i] multiplies the flow time on node i.  half_height is the
    strip parameter a; the flowed curve must keep the distance a/8 from
    the walls, otherwise flow_curve raises CurveEscapesStrip.
    """

    direction: np.ndarray
    half_height: float
    steps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_readonly_array(self.direction))
        if not np.all(np.isfinite(self.direction)):
            raise ValueError("flow direction must be finite")
        if not (np.isfinite(self.half_height) and self.half_height > 0):
            raise ValueError("half_height must be positive and finite")
        steps = tuple(float(t) for t in self.steps)
        if any(not np.isfinite(t) for t in steps):
            raise ValueError("flow steps must be finite")
        object.__setattr__(self, "steps", steps)


def flow_curve(curve, flow, t):
    """Flow the curve by time t: heights become psi + t * direction.

    Raises CurveEscapesStrip when the flowed curve comes within
    half_height / 8 of the walls y = +-half_height.
    """
    if not isinstance(t, numbers.Real) or not np.isfinite(t):
        raise ValueError("flow time must be a finite real number")
    if flow.direction.size != curve.m:
        raise ValueError("flow direction and curve sample counts differ")
    moved = GraphCurve(curve.period, curve.heights + float(t) * flow.direction)
    moved.require_inside(flow.half_height, flow.half_height / 8.0)
    return moved


def periodic_derivatives(values, spacing):
    """First and second derivative samples by fourth-order periodic stencils.

    Five-point central formulas on the periodic index lattice:
      f'  = (-f[i+2] + 8 f[i+1] - 8 f[i-1] + f[i-2]) / (12 h)
      f'' = (-f[i+2] + 16 f[i+1] - 30 f[i] + 16 f[i-1] - f[i-2]) / (12 h^2)
    """
    f = np.asarray(values, dtype=float)
    # two periodic ghosts at each end turn every shift into a slice
    g = np.concatenate([f[-2:], f, f[:2]])
    fm2, fm1, fp1, fp2 = g[:-4], g[1:-3], g[3:-1], g[4:]
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * spacing)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * spacing ** 2)
    return d1, d2


def curvature(curve):
    """Signed curvature samples H_i = psi'' / (1 + psi'^2)^(3/2).

    Uses the upward-normal sign convention of the module docstring: a
    bump whose apex is a maximum gives H < 0 there, a dip gives H > 0.
    """
    d1, d2 = curve.derivatives
    return d2 / np.power(1.0 + d1 * d1, 1.5)


def periodic_difference(values):
    """Forward differences values[i + 1] - values[i], index i + 1 mod m."""
    diff = np.empty_like(values)
    np.subtract(values[1:], values[:-1], out=diff[:-1])
    diff[-1] = values[0] - values[-1]
    return diff


def element_lengths(curve):
    """Arclengths of the m piecewise-linear elements (node i to i+1)."""
    return np.hypot(curve.spacing, periodic_difference(curve.heights))


def nodal_arclengths(curve):
    """Trapezoid arclength weight of each node (half of both elements)."""
    ell = element_lengths(curve)
    both = np.empty_like(ell)  # ell[i] + ell[i - 1]
    np.add(ell[1:], ell[:-1], out=both[1:])
    both[0] = ell[0] + ell[-1]
    return 0.5 * both


def curve_length(curve):
    """Length of one period of the curve by the composite trapezoid rule.

    Equals the sum of the piecewise-linear element lengths, which on the
    periodic lattice is the trapezoid rule for integral of
    sqrt(1 + psi'^2) with psi' taken element-wise.
    """
    return float(np.sum(element_lengths(curve)))
