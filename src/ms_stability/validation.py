"""Independent checks of criticality and of the assembled second variation.

Two kinds of evidence are produced without touching the closed-form
oracle: pointwise transmission residuals of the solved state along the
curve, and finite-difference derivatives of the true energy along a
normal flow of the curve, compared against the assembled quadratic
form.  Agreement of the second derivative is the strongest end-to-end
check the package has: it exercises geometry, both solvers, and the
Gram assembly in one number.
"""

import numpy as np

from . import elliptic, geometry, second_variation
from ._record import Record
from .errors import InsufficientSamples

DEFAULT_STEP = 5e-3
DEFAULT_FIRST_TOL = 1e-4
DEFAULT_SECOND_TOL = 0.05
DEFAULT_CRITICALITY_TOL = 0.05
JUMP_THRESHOLD = 1e-8


class CriticalityReport(Record, frozen=True):
    """Discrete transmission-condition residuals of a solved state:
    f = |grad_t u-|^2 - |grad_t u+|^2 - H at each curve node."""

    sup_residual: float
    residuals: np.ndarray
    min_jump: float
    argmin_jump: float
    jump_ok: bool


def criticality_residuals(state):
    """Transmission residual f = |grad_t u-|^2 - |grad_t u+|^2 - H per node.

    A genuine critical pair has H = |grad_t u-|^2 - |grad_t u+|^2, so f
    vanishes along the curve, and a jump bounded away from zero; the
    report records the worst node of each.  The jump flag trips when
    min |u+ - u-| falls to JUMP_THRESHOLD (e.g. for identical wall data
    on both sides).
    """
    grad_plus = state.tangential_gradient("upper")
    grad_minus = state.tangential_gradient("lower")
    curvature = geometry.curvature(state.system.curve)
    residuals = grad_minus ** 2 - grad_plus ** 2 - curvature
    jump = np.abs(state.jump())
    worst = int(np.argmin(jump))
    min_jump = float(jump[worst])
    return CriticalityReport(
        sup_residual=float(np.max(np.abs(residuals))),
        residuals=residuals,
        min_jump=min_jump,
        argmin_jump=float(state.system.abscissae[worst]),
        jump_ok=min_jump > JUMP_THRESHOLD,
    )


def total_energy(domain, curve, grid, rtol=elliptic.DEFAULT_RTOL):
    """Bulk Dirichlet energy plus curve length for the solved state."""
    state, _ = elliptic.solve_state(domain, curve, grid, rtol=rtol)
    return elliptic.dirichlet_energy(state) + geometry.curve_length(curve)


def energy_along_flow(domain, curve, flow, grid, rtol=elliptic.DEFAULT_RTOL,
                      base=None, rate=None):
    """Energy samples g(t) along the vertical flow, in the order of steps.

    g(t) = E+(psi_t) + E-(psi_t) + L(psi_t) for the flowed curve psi_t,
    with each side's energy from elliptic.side_energy: the two sides run
    as two separate sequences of half-strip solves, so one _Component is
    alive at a time.  Within a side the steps run in increasing |t|, and
    each CG starts from an extrapolation in t (_start) of the side's last
    (at most four) solutions at distinct times.  base, when given, is the
    (upper, lower) unknowns of the state solved on the unflowed curve (its
    w without the wall row), the t = 0 solution that starts both sequences.
    rate, when given with base, is each side's derivative of those
    unknowns along the flow at t = 0 (flow_rates), and turns the
    extrapolation into a Hermite one.  Each g(t) is the total_energy of
    the flowed curve to solver accuracy, and bit for bit where a solve
    starts cold; the reduction order is fixed, so repeated runs are
    bit-identical.
    """
    if rate is not None and base is None:
        raise ValueError("a flow rate needs the base unknowns")
    ts = np.array(flow.steps, dtype=float)
    moved = [geometry.flow_curve(curve, flow, t) for t in flow.steps]
    order = sorted(range(ts.size), key=lambda k: abs(ts[k]))
    energies = []
    for k, side in enumerate(("upper", "lower")):
        solved = [] if base is None else [(0.0, base[k])]
        hermite = None if rate is None else (base[k], rate[k])
        energy = np.empty_like(ts)
        for i in order:
            t = ts[i]
            energy[i], u = elliptic.side_energy(
                domain, moved[i], grid, side, rtol=rtol,
                start=_start(solved, t, hermite))
            solved = [(s, v) for s, v in solved if s != t][-3:] + [(t, u)]
        energies.append(energy)
    lengths = np.array([geometry.curve_length(c) for c in moved])
    return ts, energies[0] + energies[1] + lengths


def _start(solved, t, hermite=None):
    """A CG start at time t from the (time, solution) pairs of solved, at
    distinct times; None when there is nothing to start from.  The start
    is a new array, which the solve it is handed to overwrites.

    Without hermite, the Lagrange polynomial through solved, at t.  With
    hermite = (u0, rate), the solution and its t-derivative at t = 0, the
    Hermite extrapolation u0 + t rate + t^2 q(t), q the Lagrange
    polynomial through (w(s) - u0 - s rate) / s^2 over the pairs at s != 0
    (at s = 0 the quotient is undefined, and the pair is u0 itself).  That
    is a combination of u0, rate and the stored solutions, so no quotient
    is formed.
    """
    if hermite is None:
        terms = list(zip(_lagrange(solved, t), (u for _, u in solved)))
    else:
        u0, rate = hermite
        solved = [(s, u) for s, u in solved if s != 0.0]
        coefs = [c * (t / s) ** 2
                 for c, (s, _) in zip(_lagrange(solved, t), solved)]
        terms = [(1.0 - sum(coefs), u0),
                 (t - sum(c * s for c, (s, _) in zip(coefs, solved)), rate)]
        terms += zip(coefs, (u for _, u in solved))
    start = None
    for coef, u in terms:
        start = coef * u if start is None else start + coef * u
    return start


def _lagrange(solved, t):
    """The Lagrange basis polynomials of the distinct times of solved, at t."""
    weights = []
    for j, (tj, _) in enumerate(solved):
        weight = 1.0
        for k, (tk, _) in enumerate(solved):
            if k != j:
                weight *= (t - tk) / (tj - tk)
        weights.append(weight)
    return weights


def flow_rates(state, vfield, phi):
    """Each side's derivative of the state's unknowns along the vertical
    flow psi + t phi at t = 0, on a flat base curve: (upper, lower).

    The transport field v_phi (elliptic.solve_jump_source) is the
    derivative of the state at fixed points of the strip.  Node row j of
    a side's mesh moves with the curve at the vertical speed
    V = +-phi (1 - j/ny), so the nodal values change at the rate
    v_phi + V d_y u0.  The sign is - on the lower side, which is the half
    strip of -psi; d_y u0 is taken from the base state's rows, wall row
    included: central differences inside, the second-order one-sided one
    on the curve row.  Only the unknown rows are returned.  On the flat
    base this matches central differences of re-solved flowed states to
    the discretization error of d_y u0.  On a curved base it misses them
    (by 2.4e-2 on the sine curve of amplitude 0.05), for two reasons: the
    transport field there is the state's derivative under the normal
    component phi / sqrt(1 + psi'^2), not under phi, and column i's rows
    are (a -+ psi_i) / ny apart, not (a -+ psi_0) / ny.  Corrected for
    both, the rate meets the flowed states at second order; at 64^2 the
    normal component alone leaves 8.7e-3 and the spacing alone 2.41e-2.
    """
    system = state.system
    a, ny = system.domain.half_height, system.grid.ny
    height = system.curve.heights[0]
    speed = np.outer(1.0 - np.arange(ny) / ny, phi)
    rates = []
    for side, sign in (("upper", 1.0), ("lower", -1.0)):
        u0, v = state._pick(side)[1], vfield._pick(side)[1]
        d_y = np.gradient(u0, (a - sign * height) / ny, axis=0, edge_order=2)
        rates.append((v[:-1] + sign * speed * d_y[:-1]).ravel())
    return tuple(rates)


class FDEstimate(Record, frozen=True):
    first: float
    second: float
    first_error: float
    second_error: float
    steps: tuple


def fd_derivatives(ts, gs):
    """Richardson-extrapolated central derivatives of samples g(t) at 0.

    Needs the sample at t = 0 and symmetric pairs at two step sizes
    (five points at least); uses the two smallest scales.  The reported
    error bars are the differences between the extrapolated and the
    plain small-step central estimates.
    """
    ts = np.asarray(ts, dtype=float)
    gs = np.asarray(gs, dtype=float)
    if ts.size != gs.size:
        raise InsufficientSamples("sample times and values differ in length")
    if ts.size < 5:
        raise InsufficientSamples("need at least 5 samples (0 and 2 pairs)")
    order = np.argsort(ts)
    ts, gs = ts[order], gs[order]
    scale = np.max(np.abs(ts))
    at_zero = np.nonzero(np.abs(ts) <= 1e-14 * scale)[0]
    if at_zero.size != 1:
        raise InsufficientSamples("need exactly one sample at t = 0")
    g0 = gs[at_zero[0]]
    pos = {t: g for t, g in zip(ts, gs) if t > 0}
    neg = {-t: g for t, g in zip(ts, gs) if t < 0}
    steps = sorted(set(pos) & set(neg))
    if len(steps) < 2:
        raise InsufficientSamples("need symmetric samples at 2 step sizes")
    h1, h2 = steps[0], steps[1]
    if not h2 > h1 * (1.0 + 1e-12):
        raise InsufficientSamples("step sizes must be distinct")

    def central(h):
        d1 = (pos[h] - neg[h]) / (2.0 * h)
        d2 = (pos[h] - 2.0 * g0 + neg[h]) / (h * h)
        return d1, d2

    d1_small, d2_small = central(h1)
    d1_large, d2_large = central(h2)
    r2 = (h2 / h1) ** 2
    first = (r2 * d1_small - d1_large) / (r2 - 1.0)
    second = (r2 * d2_small - d2_large) / (r2 - 1.0)
    return FDEstimate(
        first=first,
        second=second,
        first_error=abs(first - d1_small),
        second_error=abs(second - d2_small),
        steps=(h1, h2),
    )


class ValidationReport(Record, frozen=True):
    """Finite-difference versus assembled second variation at one flow."""

    criticality: CriticalityReport
    base_energy: float
    ts: np.ndarray
    gs: np.ndarray
    fd: FDEstimate
    assembled: second_variation.SecondVariationResult
    first_ok: bool
    second_ok: bool
    mismatch: float
    non_critical: bool

    @property
    def passed(self):
        return self.first_ok and self.second_ok


def validate_second_variation(domain, curve, grid, psi, step=DEFAULT_STEP,
                              rtol=elliptic.DEFAULT_RTOL,
                              first_tol=DEFAULT_FIRST_TOL,
                              second_tol=DEFAULT_SECOND_TOL,
                              criticality_tol=DEFAULT_CRITICALITY_TOL):
    """Cross-validate the assembled d2F[psi] against energy differences.

    Solves the state on the base curve and takes from it the
    transmission residuals, the base energy, the assembled quadratic
    form (one transport solve) and its unknowns, and on a flat base
    curve their rate along the flow (flow_rates, from the form's
    transport field), then drops it.  Only then does it flow the curve by
    psi at times {+-step, +-2 step} with energy_along_flow, started from
    those unknowns and that rate (the base energy is the t = 0 sample).
    On a curved base flow_rates misses the flowed states (see there), so
    the flow gets no rate.  Even a rate corrected to second order would
    not pay: on the sine curve of amplitude 0.05, Hermite starts from it
    took 56, 50 and 44 flowed CG iterations at 32^2, 64^2 and 128^2,
    against 49, 48 and 45 for Lagrange ones.  The flow assembles one half
    strip at a time, so once the base system is gone at most one
    _Component is alive.  Finally it Richardson-extrapolates
    g'(0) and g''(0) and compares g''(0) with the assembled form.  The
    first derivative must vanish relative to the base energy for a
    critical pair; a large transmission residual is flagged
    (non_critical) but does not fail the report on its own.
    """
    psi = np.asarray(psi, dtype=float)
    state, _ = elliptic.solve_state(domain, curve, grid, rtol=rtol)
    crit = criticality_residuals(state)
    base = elliptic.dirichlet_energy(state) + geometry.curve_length(curve)
    gram = second_variation.assemble_tilde_gram(curve, restriction="none")
    assembled, vfield = second_variation.second_variation_value(
        state, gram, psi, rtol=rtol, with_field=True)
    base_unknowns = (state.w_upper[:-1].ravel(), state.w_lower[:-1].ravel())
    rate = None
    if np.all(curve.heights == curve.heights[0]):
        rate = flow_rates(state, vfield, psi)
    del state, vfield  # frees the base system before the flow builds its own
    flow = geometry.FlowSpec(
        direction=psi,
        half_height=domain.half_height,
        steps=(-2.0 * step, -step, step, 2.0 * step),
    )
    ts, gs = energy_along_flow(domain, curve, flow, grid, rtol=rtol,
                               base=base_unknowns, rate=rate)
    ts, gs = np.insert(ts, 2, 0.0), np.insert(gs, 2, base)
    fd = fd_derivatives(ts, gs)
    mismatch = abs(fd.second - assembled.value) / max(1.0, abs(assembled.value))
    return ValidationReport(
        criticality=crit,
        base_energy=base,
        ts=ts,
        gs=gs,
        fd=fd,
        assembled=assembled,
        first_ok=abs(fd.first) <= first_tol * max(1.0, abs(base)),
        second_ok=mismatch <= second_tol,
        mismatch=mismatch,
        non_critical=crit.sup_residual > criticality_tol,
    )
