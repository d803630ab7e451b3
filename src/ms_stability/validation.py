"""Independent checks of criticality and of the assembled second variation.

Two kinds of evidence are produced without touching the closed-form
oracle: pointwise transmission residuals of the solved state along the
curve, and finite-difference derivatives of the true energy along a
normal flow of the curve, compared against the assembled quadratic
form.  Agreement of the second derivative is the strongest end-to-end
check the package has: it exercises geometry, both solvers, and the
Gram assembly in one number.
"""

from dataclasses import dataclass

import numpy as np

from . import elliptic, geometry, second_variation
from .errors import InsufficientSamples

DEFAULT_STEP = 5e-3
DEFAULT_FIRST_TOL = 1e-4
DEFAULT_SECOND_TOL = 0.05
DEFAULT_CRITICALITY_TOL = 0.05
JUMP_THRESHOLD = 1e-8


@dataclass(frozen=True)
class CriticalityReport:
    """Discrete transmission-condition residuals of a solved state."""

    sup_residual: float
    residuals: np.ndarray
    min_jump: float
    argmin_jump: float
    jump_ok: bool


def criticality_residuals(state, jump_threshold=JUMP_THRESHOLD):
    """Transmission residual f = |grad_t u-|^2 - |grad_t u+|^2 + H per node.

    A genuine critical pair has f identically zero along the curve and a
    jump bounded away from zero; the report records the worst node of
    each.  The jump flag trips when min |u+ - u-| falls below the
    threshold (e.g. for identical wall data on both sides).
    """
    grad_plus = state.tangential_gradient("upper")
    grad_minus = state.tangential_gradient("lower")
    curvature = geometry.curvature(state.system.curve)
    residuals = grad_minus ** 2 - grad_plus ** 2 + curvature
    jump = np.abs(state.jump())
    worst = int(np.argmin(jump))
    min_jump = float(jump[worst])
    return CriticalityReport(
        sup_residual=float(np.max(np.abs(residuals))),
        residuals=residuals,
        min_jump=min_jump,
        argmin_jump=float(state.system.abscissae[worst]),
        jump_ok=min_jump > jump_threshold,
    )


def total_energy(domain, curve, grid, rtol=elliptic.DEFAULT_RTOL):
    """Bulk Dirichlet energy plus curve length for the solved state."""
    state, stats = elliptic.solve_state(domain, curve, grid, rtol=rtol)
    return elliptic.dirichlet_energy(state) + geometry.curve_length(curve), stats


def energy_along_flow(domain, curve, flow, grid, rtol=elliptic.DEFAULT_RTOL,
                      energy_at_zero=None):
    """Energy samples g(t) along the vertical flow, in the order of steps.

    Each step re-solves the state on the flowed geometry; the reduction
    order is fixed so repeated runs are bit-identical.  A caller that has
    already solved the unflowed curve passes its total energy as
    energy_at_zero, which then stands for the t = 0 sample (the flow at
    t = 0 returns the curve's heights unchanged, so a re-solve would give
    the same bits).
    """
    ts = np.array(flow.steps, dtype=float)
    gs = np.empty_like(ts)
    for k, t in enumerate(flow.steps):
        if t == 0.0 and energy_at_zero is not None:
            gs[k] = energy_at_zero
            continue
        moved = geometry.flow_curve(curve, flow, t)
        gs[k], _ = total_energy(domain, moved, grid, rtol=rtol)
    return ts, gs


@dataclass(frozen=True)
class FDEstimate:
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


@dataclass(frozen=True)
class ValidationReport:
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

    Flows the curve by psi at times {0, +-step, +-2 step}, re-solves the
    state at each nonzero time (t = 0 reuses the base solve),
    Richardson-extrapolates g'(0) and g''(0), and compares with the
    assembled quadratic form.  The first derivative must vanish relative
    to the base energy for a critical pair; a large transmission residual
    is flagged (non_critical) but does not fail the report on its own.
    """
    psi = np.asarray(psi, dtype=float)
    state, _ = elliptic.solve_state(domain, curve, grid, rtol=rtol)
    crit = criticality_residuals(state)
    base = elliptic.dirichlet_energy(state) + geometry.curve_length(curve)
    flow = geometry.FlowSpec(
        direction=psi,
        half_height=domain.half_height,
        steps=(-2.0 * step, -step, 0.0, step, 2.0 * step),
    )
    ts, gs = energy_along_flow(domain, curve, flow, grid, rtol=rtol,
                               energy_at_zero=base)
    fd = fd_derivatives(ts, gs)
    gram = second_variation.assemble_tilde_gram(curve, restriction="none")
    assembled = second_variation.second_variation_value(state, gram, psi,
                                                        rtol=rtol)
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
