import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import ms_stability as ms
from ms_stability import analytic_oracle, elliptic
from ms_stability.errors import CurveEscapesStrip

from conftest import drift_domain, flat_setup


def test_separated_drift_state_is_exact_at_nodes(unit_strip_state):
    # Data x+1 above / -x below with the flat cut: the solver must hit the
    # piecewise-linear equilibrium exactly (it lies in the discrete space).
    domain, curve, grid, state, stats = unit_strip_state
    x = curve.abscissae
    np.testing.assert_allclose(state.trace("upper"), x + 1.0, atol=1e-12)
    np.testing.assert_allclose(state.trace("lower"), -x, atol=1e-12)
    assert np.max(np.abs(state.w_upper - 1.0)) < 1e-12
    assert np.max(np.abs(state.w_lower)) < 1e-12
    assert stats.residual <= stats.rtol


def test_state_energy_is_exact_for_drift_data():
    for a, b in ((1.0, 1.0), (0.5, 2.0)):
        _, _, _, state, _ = flat_setup(a, b, 32)
        # |grad u| = 1 on both components, total area 2ab
        assert ms.dirichlet_energy(state) == pytest.approx(2.0 * a * b, rel=1e-13)
        system = state.system
        assert system.upper.energy(state.w_upper, state.slope_upper) \
            == pytest.approx(a * b, rel=1e-13)
        assert system.lower.energy(state.w_lower, state.slope_lower) \
            == pytest.approx(a * b, rel=1e-13)


def test_wall_data_reproduced_exactly_at_nodes():
    domain = ms.StripDomain(
        1.0, 1.0,
        ms.BoundaryData(0.3, lambda x: np.cos(2 * np.pi * x) + 0.5),
        ms.BoundaryData(-0.7, lambda x: np.sin(4 * np.pi * x)),
    )
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    state, _ = ms.solve_state(domain, curve, ms.Grid(32, 32))
    x = curve.abscissae
    np.testing.assert_array_equal(state.w_upper[-1], np.cos(2 * np.pi * x) + 0.5)
    np.testing.assert_array_equal(state.w_lower[-1], np.sin(4 * np.pi * x))


def test_zero_data_gives_zero_field():
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    state, stats = ms.solve_state(domain, ms.flat_curve(1.0, 16), ms.Grid(16, 16))
    assert np.all(state.w_upper == 0.0)
    assert np.all(state.w_lower == 0.0)
    assert ms.dirichlet_energy(state) == 0.0
    assert stats.iterations == 0


def test_components_decouple():
    # The upper solve must not see the lower wall datum at all.
    top = ms.BoundaryData(0.2, lambda x: np.cos(2 * np.pi * x))
    curve = ms.sinusoidal_curve(1.0, 24, mode=1, amplitude=0.15)
    grid = ms.Grid(24, 24)
    state_a, _ = ms.solve_state(
        ms.StripDomain(1.0, 1.0, top, ms.BoundaryData(0.0)), curve, grid)
    state_b, _ = ms.solve_state(
        ms.StripDomain(1.0, 1.0, top, ms.BoundaryData(-3.0, lambda x: np.sin(2 * np.pi * x))),
        curve, grid)
    np.testing.assert_array_equal(state_a.w_upper, state_b.w_upper)
    assert np.max(np.abs(state_a.w_lower - state_b.w_lower)) > 0.1


def test_state_solver_converges_at_second_order():
    errs = []
    for n in (32, 64, 128):
        err_up, err_low = analytic_oracle.state_probe_error(drift_domain(), n)
        errs.append(err_up)
        assert err_low < 1e-9
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8
    assert errs[-1] < 2e-4


def test_jump_solver_converges_at_second_order():
    errs = [max(analytic_oracle.jump_probe_error(drift_domain(), n))
            for n in (32, 64, 128)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8
    assert errs[-1] < 1e-3


def test_jump_solver_is_linear(unit_strip_state):
    _, curve, grid, state, _ = unit_strip_state
    rng = np.random.default_rng(3)
    phi1 = rng.standard_normal(curve.m)
    phi2 = rng.standard_normal(curve.m)
    f1, _ = ms.solve_jump_source(state, phi1)
    f2, _ = ms.solve_jump_source(state, phi2)
    f12, _ = ms.solve_jump_source(state, 2.0 * phi1 - 0.5 * phi2)
    combo = 2.0 * f1.w_upper - 0.5 * f2.w_upper
    scale = np.max(np.abs(combo)) + 1e-30
    assert np.max(np.abs(f12.w_upper - combo)) / scale < 1e-8


def test_constant_perturbation_gives_zero_transport_field(unit_strip_state):
    # The coupling load of a constant phi telescopes away; only the CG
    # noise of the state traces (~1e-14) survives in the load.
    _, curve, grid, state, _ = unit_strip_state
    field, _ = ms.solve_jump_source(state, np.ones(curve.m))
    assert np.max(np.abs(field.w_upper)) < 1e-9
    assert np.max(np.abs(field.w_lower)) < 1e-9


def test_energy_matches_stiffness_quadratic_form(unit_strip_state):
    # Quadrature energy of a zero-wall field equals v' A v by construction.
    _, curve, grid, state, _ = unit_strip_state
    phi = np.cos(2.0 * math.pi * curve.abscissae)
    field, _ = ms.solve_jump_source(state, phi)
    total = 0.0
    for side in ("upper", "lower"):
        comp = getattr(state.system, side)
        v = field.unknown_vector(side)
        form = float(v @ (comp.a_uu @ v))
        assert comp.energy(getattr(field, "w_" + side),
                           getattr(field, "slope_" + side)) \
            == pytest.approx(form, rel=1e-12)
        total += form
    assert ms.dirichlet_energy(field) == pytest.approx(total, rel=1e-12)


def test_energy_of_analytic_mode_matches_quadrature_oracle():
    # Compare the Gauss-rule energy of the interpolated sinh mode with an
    # adaptive-quadrature evaluation of the exact integral.
    import scipy.integrate

    a = b = 1.0
    k = 2.0 * math.pi / b
    domain = drift_domain(a, b)
    field = ms.strip_mode_field(2, 1.0, domain, ms.Grid(96, 96))

    def dens(y):
        # int over x of |grad v|^2 at height y, for v = sin(kx) sinh(k(a-y))
        return 0.5 * b * k * k * (math.cosh(2.0 * k * (a - y)))

    exact_half, err = scipy.integrate.quad(dens, 0.0, a, limit=200)
    assert err < 1e-9 * exact_half
    num = ms.dirichlet_energy(field)
    assert num == pytest.approx(2.0 * exact_half, rel=2e-3)


def test_solver_guards():
    domain = drift_domain()
    with pytest.raises(ValueError):
        ms.solve_state(domain, ms.flat_curve(1.0, 24), ms.Grid(32, 32))
    with pytest.raises(ValueError):
        ms.Grid(8, 32)
    tall = ms.GraphCurve(1.0, np.full(32, 1.5))
    with pytest.raises(CurveEscapesStrip):
        ms.solve_state(domain, tall, ms.Grid(32, 32))
    _, curve, grid, state, _ = flat_setup(n=16)
    with pytest.raises(ValueError):
        ms.solve_jump_source(state, np.ones(7))


# ------------------------------------------- flat-strip preconditioner

def wavy_wall_domain(a, b):
    """Drift plus a wall mode on both sides, so both sides have a load."""
    k = 2.0 * math.pi / b
    return ms.StripDomain(
        a, b,
        ms.BoundaryData(1.0, lambda x: np.cos(k * x) + 1.0),
        ms.BoundaryData(-1.0, lambda x: np.sin(2.0 * k * x)),
    )


def side_iterations(stats):
    return [part.iterations for part in stats.components]


@pytest.mark.parametrize("level", (0.0, 0.3))
@pytest.mark.parametrize("a, b, nx, ny",
                         ((1.0, 1.0, 32, 32), (0.25, 4.0, 32, 48),
                          (2.0, 0.5, 48, 32)))
def test_flat_curves_converge_in_one_preconditioned_step(a, b, nx, ny, level):
    # On a flat curve (at height level * a) the preconditioner is the
    # exact inverse, so a wrong hx, hy, curve-row weight or an nx/ny mix-up
    # shows as extra iterations.
    domain = wavy_wall_domain(a, b)
    curve = ms.GraphCurve(b, np.full(nx, level * a))
    state, stats = ms.solve_state(domain, curve, ms.Grid(nx, ny))
    assert all(1 <= n <= 2 for n in side_iterations(stats))
    assert stats.residual <= stats.rtol
    x = curve.abscissae
    phi = np.cos(2.0 * math.pi * x / b) + 0.3 * np.sin(6.0 * math.pi * x / b)
    _, jump_stats = ms.solve_jump_source(state, phi)
    assert all(1 <= n <= 2 for n in side_iterations(jump_stats))
    assert jump_stats.residual <= jump_stats.rtol


def test_iteration_count_does_not_grow_with_the_grid():
    counts = {}
    for n in (32, 128):
        curve = ms.sinusoidal_curve(1.0, n, mode=1, amplitude=0.05)
        _, stats = ms.solve_state(wavy_wall_domain(1.0, 1.0), curve,
                                  ms.Grid(n, n))
        counts[n] = side_iterations(stats)
    for coarse, fine in zip(counts[32], counts[128]):
        assert fine <= coarse + 5


@pytest.mark.parametrize("amplitude", (0.0, 0.05))
def test_preconditioner_runs_once_per_iteration(monkeypatch, amplitude):
    # Without a dtype, scipy's LinearOperator applies the preconditioner
    # to a zero vector to infer it: one wasted application per side.
    calls = [0]
    flat_inverse = elliptic._Component._flat_inverse

    def counted(self, r):
        calls[0] += 1
        return flat_inverse(self, r)

    monkeypatch.setattr(elliptic._Component, "_flat_inverse", counted)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=amplitude)
    _, stats = ms.solve_state(wavy_wall_domain(1.0, 1.0), curve, ms.Grid(32, 32))
    assert stats.iterations > 0
    assert calls[0] == sum(side_iterations(stats))


@st.composite
def curved_problems(draw):
    """Small strip, Fourier curve with |psi| <= 0.3 a and slope <= 2."""
    a = draw(st.floats(0.25, 2.0))
    b = draw(st.floats(0.5, 4.0))
    nx = draw(st.sampled_from((16, 24, 32)))
    ny = draw(st.sampled_from((16, 24, 32)))
    # Integer coefficients give the shape, size the fraction of the
    # largest amplitude that keeps both bounds.
    coef = draw(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    size = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x = np.arange(nx) * (b / nx)
    k = 2.0 * math.pi / b * np.arange(1, 4)
    psi = sum(coef[2 * i] * np.cos(k[i] * x) + coef[2 * i + 1] * np.sin(k[i] * x)
              for i in range(3))
    slope = sum(k[i] * math.hypot(coef[2 * i], coef[2 * i + 1]) for i in range(3))
    height = np.max(np.abs(psi))
    if height > 0.0:
        psi = psi * size * min(0.3 * a / height, 2.0 / slope)
    return a, b, ms.GraphCurve(b, psi), ms.Grid(nx, ny), seed


@settings(max_examples=25, deadline=None)
@given(curved_problems())
def test_preconditioned_cg_on_random_curves(problem):
    a, b, curve, grid, seed = problem
    domain = ms.StripDomain(a, b, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    system = elliptic.StripSystem(domain, curve, grid)
    rng = np.random.default_rng(seed)
    for comp in (system.upper, system.lower):
        # The preconditioner is symmetric positive definite; the symmetry
        # defect is measured against the Cauchy-Schwarz scale of q.Mr.
        r, q = rng.standard_normal((2, comp.n_unknown))
        mr, mq = comp._flat_inverse(r), comp._flat_inverse(q)
        assert r @ mr > 0.0 and q @ mq > 0.0
        assert abs(q @ mr - r @ mq) <= 1e-12 * math.sqrt((q @ mq) * (r @ mr))
        rhs = rng.standard_normal(comp.n_unknown)
        x, stats = comp.solve(rhs, rtol=1e-12)
        assert stats.residual <= 1e-12
        exact = scipy.sparse.linalg.spsolve(comp.a_uu.tocsc(), rhs)
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)


def test_cg_stop_is_confirmed_on_the_true_residual(monkeypatch):
    # scipy's CG stops on its recurrence residual, which can sit a rounding
    # error below b - A x; a stop the true residual does not confirm must be
    # resumed from x, not reported as converged.
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    comp = elliptic.StripSystem(domain, curve, ms.Grid(32, 32)).upper
    rhs = np.random.default_rng(5).standard_normal(comp.n_unknown)
    real_cg = scipy.sparse.linalg.cg
    starts = []

    def early_stop(A, b, **kwargs):
        starts.append(kwargs["x0"])
        if len(starts) == 1:
            x, _ = real_cg(A, b, **dict(kwargs, maxiter=1))
            return x, 0
        return real_cg(A, b, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "cg", early_stop)
    x, stats = comp.solve(rhs, rtol=1e-10)
    assert len(starts) == 2 and starts[0] is None and starts[1] is not None
    assert stats.iterations > 1
    true = np.linalg.norm(rhs - comp.a_uu @ x) / np.linalg.norm(rhs)
    assert stats.residual == true <= 1e-10
