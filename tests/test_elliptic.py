import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import ms_stability as ms
from ms_stability import analytic_oracle, elliptic
from ms_stability.errors import CurveEscapesStrip, SolverDiverged

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
    assert stats.residual <= 1e-10  # flat_setup's rtol


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


@pytest.mark.parametrize("exponent", [-700, 660])
def test_wall_data_of_extreme_scale_solve_at_unit_scale(exponent):
    # The state is linear in the wall data, and scaling by a power of two
    # is exact: at 2^-700 CG's inner products used to underflow to 0 (a
    # breakdown), at 2^660 the residual norm overflowed.
    def domain(scale):
        k = 2.0 * math.pi
        return ms.StripDomain(
            1.0, 1.0,
            ms.BoundaryData(0.0, lambda x: scale * (np.cos(k * x) + 1.0)),
            ms.BoundaryData(0.0, lambda x: np.full_like(x, -scale)))

    curve = ms.sinusoidal_curve(1.0, 24, mode=1, amplitude=0.1)
    unit, unit_stats = ms.solve_state(domain(1.0), curve, ms.Grid(24, 24))
    scaled, stats = ms.solve_state(domain(2.0 ** exponent), curve,
                                   ms.Grid(24, 24))
    for side in ("upper", "lower"):
        np.testing.assert_array_equal(
            scaled._pick(side)[1], np.ldexp(unit._pick(side)[1], exponent))
    assert stats.iterations == unit_stats.iterations > 2


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


def side_area(domain, curve, side):
    """Area of one side of the mesh: the trapezoid rule on the heights."""
    sign = 1.0 if side == "upper" else -1.0
    heights = domain.half_height - sign * curve.heights
    return curve.spacing * float(np.sum(heights))


def check_energy_form(state, slope):
    # For a zero-wall field v and drift slope s the energy is
    # v'Av + 2 s d'v + s^2 area on each side: the edge sum of the stored
    # couplings against the CSR product, an implementation check.
    curve = state.system.curve
    field, _ = ms.solve_jump_source(state, np.cos(2.0 * math.pi * curve.abscissae))
    total = 0.0
    for side in ("upper", "lower"):
        comp = getattr(state.system, side)
        v = getattr(field, "w_" + side)[:-1].ravel()
        form = float(v @ (comp.a_uu @ v))
        expect = (form + 2.0 * slope * float(comp._drift @ v[:comp.nx])
                  + slope ** 2 * side_area(state.system.domain, curve, side))
        assert comp.energy(getattr(field, "w_" + side), slope) \
            == pytest.approx(expect, rel=1e-12)
        total += form
    assert ms.dirichlet_energy(field) == pytest.approx(total, rel=1e-12)


def test_energy_matches_stiffness_quadratic_form(unit_strip_state):
    # The energy of a zero-wall field is v' A v by construction.
    check_energy_form(unit_strip_state[3], 0.0)


def test_energy_matches_stiffness_quadratic_form_on_curved_mesh():
    # Implementation consistency, not an independent check: the energy and
    # the stiffness come from the same column factors.  With a drift slope
    # on a curved mesh it pins the curved drift load as well.
    curve = ms.sinusoidal_curve(1.0, 48, mode=1, amplitude=0.2)
    state, _ = ms.solve_state(drift_domain(), curve, ms.Grid(48, 40))
    check_energy_form(state, 0.7)


@pytest.mark.parametrize("a, b, nx, ny, mode, amplitude", (
    (1.0, 1.0, 48, 32, 1, 0.3), (0.7, 1.3, 40, 56, 2, 0.35),
    (2.0, 0.5, 64, 24, 3, 0.5)))
def test_curved_patch_test(a, b, nx, ny, mode, amplitude):
    # Isoparametric bilinears reproduce u = s x + beta y + c exactly, and
    # grad N |det| is bilinear in (xi, eta), so the 2x2 Gauss rule is exact:
    # the Galerkin residual vanishes on every interior row and the energy
    # is (s^2 + beta^2) times the area, on a curved mesh as on a flat one.
    s, beta, c = 0.6, -1.3, 0.4
    domain = ms.StripDomain(a, b, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    curve = ms.sinusoidal_curve(b, nx, mode=mode, amplitude=amplitude)
    system = elliptic.StripSystem(domain, curve, ms.Grid(nx, ny))
    frac = (np.arange(ny + 1) / ny)[:, None]
    for side, sign in (("upper", 1.0), ("lower", -1.0)):
        comp = getattr(system, side)
        w = beta * (curve.heights * (1.0 - frac) + sign * a * frac) + c
        residual = comp.a_uu @ w[:-1].ravel() + comp.wall_coupling(w[-1])
        residual[:nx] += s * comp._drift
        scale = abs(comp.a_uu).max() * np.abs(w).max()
        assert np.max(np.abs(residual[nx:])) <= 1e-12 * scale
        assert comp.energy(w, s) == pytest.approx(
            (s * s + beta * beta) * side_area(domain, curve, side), rel=1e-13)


def reference_assembly(domain, curve, grid, side):
    """Textbook per-cell assembly: J^-T grad_ref N at each Gauss point.

    Returns the dense stiffness on all (ny + 1) * nx nodes, the drift load
    int dN/dx and the area, from a loop over cells and Gauss points.
    """
    nx, ny = grid.nx, grid.ny
    hx = domain.period / nx
    sign = 1.0 if side == "upper" else -1.0
    frac = (np.arange(ny + 1) / ny)[:, None]
    y = curve.heights * (1.0 - frac) + sign * domain.half_height * frac
    gauss = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
    a_full = np.zeros((nx * (ny + 1), nx * (ny + 1)))
    drift = np.zeros(nx * (ny + 1))
    area = 0.0
    for j in range(ny):
        for i in range(nx):
            ip = (i + 1) % nx
            nodes = [j * nx + i, j * nx + ip, (j + 1) * nx + i, (j + 1) * nx + ip]
            ys = np.array([y[j, i], y[j, ip], y[j + 1, i], y[j + 1, ip]])
            for xi in gauss:
                for eta in gauss:
                    ref = np.array([[eta - 1.0, 1.0 - eta, -eta, eta],
                                    [xi - 1.0, -xi, 1.0 - xi, xi]])
                    # row r: derivatives of (x, y) along reference axis r
                    jac = np.column_stack([[hx, 0.0], ref @ ys])
                    grad = np.linalg.solve(jac, ref)
                    wdet = 0.25 * abs(np.linalg.det(jac))
                    a_full[np.ix_(nodes, nodes)] += wdet * grad.T @ grad
                    drift[nodes] += wdet * grad[0]
                    area += wdet
    return a_full, drift, area


@pytest.mark.parametrize("nx, ny, amplitude", (
    (24, 16, 0.3), (16, 20, 0.0), (21, 17, 0.4), (16, 64, 0.6), (64, 16, 0.6)))
def test_assembly_matches_per_cell_reference(nx, ny, amplitude):
    # The column-factor assembly against the per-cell route it replaced,
    # to rounding: a_uu, the wall coupling, the drift load and the energy.
    # Odd sizes check the row shift by 1/ny and the periodic column roll.
    # Cells 6.5x wider than tall (16 x 64) make every horizontal coupling
    # positive, cells up to 2.5x taller than wide (64 x 16) many vertical
    # ones, so the energy's edge sum is checked with both signs.
    domain = ms.StripDomain(0.8, 1.3, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    curve = ms.sinusoidal_curve(1.3, nx, mode=2, amplitude=amplitude)
    system = elliptic.StripSystem(domain, curve, ms.Grid(nx, ny))
    rng = np.random.default_rng(nx)
    n_u = nx * ny
    for side in ("upper", "lower"):
        comp = getattr(system, side)
        a_full, drift, area = reference_assembly(domain, curve, system.grid, side)
        scale = np.max(np.abs(a_full))
        assert np.max(np.abs(comp.a_uu.toarray() - a_full[:n_u, :n_u])) <= 1e-13 * scale
        w = rng.standard_normal(nx * (ny + 1))
        np.testing.assert_allclose(comp.wall_coupling(w[n_u:]),
                                   a_full[:n_u, n_u:] @ w[n_u:], rtol=0, atol=1e-13 * scale)
        # The closed-form drift load is the reference's curve row; every
        # other row of the reference, the wall row included, is zero.
        drift_atol = 1e-13 * np.max(np.abs(drift)) + 1e-16
        np.testing.assert_allclose(comp._drift, drift[:nx], rtol=0,
                                   atol=drift_atol)
        np.testing.assert_allclose(drift[nx:], 0.0, rtol=0, atol=drift_atol)
        s = 0.7
        energy = w @ a_full @ w + 2.0 * s * drift @ w + s * s * area
        assert comp.energy(w.reshape(ny + 1, nx), s) == pytest.approx(energy, rel=1e-12)


def test_assembly_keeps_no_per_cell_arrays():
    # Memory of one 128^2 side, peak against kept: 18.7 MB when the
    # assembly held (cells, 4, 4) gradient arrays and a COO copy, 4.4 MB
    # against 1.5 MB when it still built a (row, entry, column) array of
    # all cells, 1.96 MB against 1.47 MB with all nine stencil slabs, and
    # 1.18 MB against 0.84 MB with the five stored slabs and the drift load.
    domain = drift_domain()
    curve = ms.sinusoidal_curve(1.0, 128, mode=1, amplitude=0.1)
    grid = ms.Grid(128, 128)
    elliptic._Component(domain, curve, grid)
    tracemalloc.start()
    try:
        side = elliptic._Component(domain, curve, grid)
        kept, peak = tracemalloc.get_traced_memory()
        del side
    finally:
        tracemalloc.stop()
    assert kept <= 1.0 * 2 ** 20
    assert peak <= 1.5 * 2 ** 20
    assert peak <= 2 * kept


@pytest.mark.parametrize("n, amplitude", ((64, 0.1), (256, 0.05)))
def test_stiffness_is_exactly_symmetric_on_curved_meshes(n, amplitude):
    # Each backward coupling is read from the forward slab of its
    # neighbour, so a_uu equals its transpose bit for bit.
    curve = ms.sinusoidal_curve(1.0, n, mode=1, amplitude=amplitude)
    system = elliptic.StripSystem(drift_domain(), curve, ms.Grid(n, n))
    for comp in (system.upper, system.lower):
        defect = comp.a_uu - comp.a_uu.T
        defect.eliminate_zeros()
        assert defect.nnz == 0


def test_solve_path_never_builds_the_nine_point_array(monkeypatch):
    # The solver, the wall coupling and the row sweep read the five slabs;
    # the nine-point CSR matrix is built only for a_uu.
    reads = []
    build = elliptic._stencil_csr

    def counted(comp):
        reads.append(comp)
        return build(comp)

    monkeypatch.setattr(elliptic, "_stencil_csr", counted)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    state, _ = ms.solve_state(wavy_wall_domain(1.0, 1.0), curve, ms.Grid(32, 32))
    ms.solve_jump_source(state, np.cos(2.0 * math.pi * curve.abscissae))
    for comp in (state.system.upper, state.system.lower):
        assert not comp._flat
        comp.curve_block_inverse()
    assert reads == []
    assert state.system.upper.a_uu.nnz > 0
    assert reads == [state.system.upper]


def test_energy_of_analytic_mode_matches_quadrature_oracle():
    # Compare the discrete energy of the interpolated sinh mode with an
    # adaptive-quadrature evaluation of the exact integral.
    import scipy.integrate

    a = b = 1.0
    k = 2.0 * math.pi / b
    domain = drift_domain(a, b)
    field = ms.strip_mode_field(1, 1.0, domain, ms.Grid(96, 96))

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
    # two neighbouring nodes on the wall flatten a column of cells
    touching = ms.GraphCurve(1.0, np.where(np.arange(32) // 2 == 2, 1.0, 0.0))
    with pytest.raises(ValueError, match="degenerate cell"):
        elliptic._Component(domain, touching, ms.Grid(32, 32))


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
    assert stats.residual <= elliptic.DEFAULT_RTOL
    x = curve.abscissae
    phi = np.cos(2.0 * math.pi * x / b) + 0.3 * np.sin(6.0 * math.pi * x / b)
    _, jump_stats = ms.solve_jump_source(state, phi)
    assert all(1 <= n <= 2 for n in side_iterations(jump_stats))
    assert jump_stats.residual <= elliptic.DEFAULT_RTOL


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
    # One preconditioner application per CG iteration, none for the
    # true-residual confirmation.
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
    # CG stops on its recurrence residual, which can sit a rounding error
    # below b - A x; a stop the true residual does not confirm must be
    # resumed from x, not reported as converged.  The first CG run is
    # stopped early, once its recurrence residual has merely shrunk by 10%.
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    comp = elliptic.StripSystem(domain, curve, ms.Grid(32, 32)).upper
    rhs = np.random.default_rng(5).standard_normal(comp.n_unknown)
    real_cg = elliptic._Component._cg
    runs = []

    def early_stop(self, x, r, tol, b_norm, count):
        if not runs:
            tol = 0.9 * np.max(np.abs(r)) / b_norm
        runs.append(x.copy())
        x, count = real_cg(self, x, r, tol, b_norm, count)
        runs.append(x.copy())
        return x, count

    monkeypatch.setattr(elliptic._Component, "_cg", early_stop)
    x, stats = comp.solve(rhs, rtol=1e-10)
    assert len(runs) == 4
    assert not np.any(runs[0]) and np.any(runs[1])
    np.testing.assert_array_equal(runs[2], runs[1])  # resumed from x
    assert stats.iterations > 1
    # the normwise backward error, with the solve's bound on |a_uu|
    true = np.max(np.abs(rhs - comp._apply(x))) / (
        comp._a_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    assert stats.residual == true <= 1e-10


def test_cg_from_its_exact_solution_takes_no_iteration():
    # rhs = a_uu x: the start is scaled by the rhs's power of two, which
    # commutes with the stencil product, so its residual is exactly zero
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    comp = elliptic.StripSystem(domain, curve, ms.Grid(32, 24)).upper
    x = np.random.default_rng(3).standard_normal(comp.n_unknown)
    got, stats = comp.solve(comp._apply(x), 1e-10, start=x.copy())
    assert stats == elliptic.SolveStats(0, 0.0)
    np.testing.assert_array_equal(got, x)


@pytest.mark.parametrize("amplitude", (0.0, 0.1))
def test_zero_start_is_the_cold_solve(amplitude):
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=amplitude)
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    comp = elliptic.StripSystem(domain, curve, ms.Grid(32, 24)).upper
    rhs = np.random.default_rng(4).standard_normal(comp.n_unknown)
    cold, cold_stats = comp.solve(rhs, 1e-10)
    zero, zero_stats = comp.solve(rhs, 1e-10, start=np.zeros(comp.n_unknown))
    np.testing.assert_array_equal(zero, cold)
    assert zero_stats == cold_stats and cold_stats.iterations > 0


@pytest.mark.parametrize("amplitude", (0.0, 0.3))
def test_stencil_product_matches_csr_matrix(amplitude):
    # Implementation check, not an independent one: the solver's stencil
    # product and a_uu are two readings of the same stencil.  The
    # independent checks are the patch test and the per-cell assembly.
    domain = ms.StripDomain(0.8, 1.3, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    curve = ms.sinusoidal_curve(1.3, 24, mode=2, amplitude=amplitude)
    system = elliptic.StripSystem(domain, curve, ms.Grid(24, 20))
    v = np.random.default_rng(2).standard_normal(24 * 20)
    for comp in (system.upper, system.lower):
        ref = comp.a_uu @ v
        np.testing.assert_allclose(comp._apply(v), ref, rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("amplitude", (0.0, 0.1))
def test_unattainable_rtol_raises_instead_of_spinning(amplitude):
    # Rounding puts a floor near 1e-15 under the true residual; an rtol
    # below it must end in SolverDiverged after a few confirmations, not
    # run to the iteration cap.
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=amplitude)
    with pytest.raises(SolverDiverged, match="stalled"):
        ms.solve_state(wavy_wall_domain(1.0, 1.0), curve, ms.Grid(32, 32),
                       rtol=1e-20)


def test_iteration_cap_names_the_side(monkeypatch):
    monkeypatch.setattr(elliptic, "MAXITER_FACTOR", 0)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    with pytest.raises(SolverDiverged, match="^CG on upper component did not "
                       "converge in 0 iterations$"):
        ms.solve_state(wavy_wall_domain(1.0, 1.0), curve, ms.Grid(32, 32))


def test_indefinite_preconditioner_breaks_down(monkeypatch):
    flat_inverse = elliptic._Component._flat_inverse
    monkeypatch.setattr(elliptic._Component, "_flat_inverse",
                        lambda self, r: -flat_inverse(self, r))
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.1)
    with pytest.raises(SolverDiverged, match=r"^CG on upper component broke "
                       r"down after 0 iterations \(r\.Mr = -"):
        ms.solve_state(wavy_wall_domain(1.0, 1.0), curve, ms.Grid(32, 32))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.sampled_from((16, 17, 24, 32)),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
def test_lower_side_of_psi_is_the_upper_side_of_minus_psi(a, b, n, weights):
    # y -> -y maps the lower mesh of psi onto the upper mesh of -psi, and
    # the assembly rounds both the same way, so the arrays agree bit for
    # bit.  psi = 0 is the fixed point StripSystem shares a side on.
    x = np.arange(n) * (b / n)
    psi = sum(w * np.sin(2.0 * np.pi * k * x / b)
              for k, w in enumerate(weights, start=1))
    psi *= 0.3 * a / max(np.max(np.abs(psi)), 1.0)
    grid = ms.Grid(n, 20)
    lower = elliptic.StripSystem(drift_domain(a, b), ms.GraphCurve(b, psi),
                                 grid).lower
    upper = elliptic.StripSystem(drift_domain(a, b), ms.GraphCurve(b, -psi),
                                 grid).upper
    for name in ("_slabs", "_drift", "_inv_eig"):
        assert np.array_equal(getattr(lower, name), getattr(upper, name)), name
    assert lower._area == upper._area


@settings(max_examples=50, deadline=None)
@given(st.floats(1.0 / 60.0, 60.0), st.floats(0.1, 10.0),
       st.sampled_from((16, 17, 24, 32)))
def test_flat_curve_gives_the_lower_side_no_load(ratio, b, n):
    # A flat curve's drift load is exactly zero, so under the canonical
    # walls (-x below) the lower side has no load and its CG never runs.
    # Rounding noise in that load would ask CG for rtol 1e-10 on a zero
    # solution, which tall cells cannot reach (SolverDiverged).
    domain = drift_domain(ratio * b, b)
    _, stats = ms.solve_state(domain, ms.flat_curve(b, n), ms.Grid(n, n))
    assert stats.components[1].iterations == 0


def _inverse_norm(matrix, block=512):
    """||matrix^-1||_inf of a symmetric CSR matrix: its largest column sum,
    from a sparse LU solve on a block of unit columns at a time."""
    lu = scipy.sparse.linalg.splu(matrix.tocsc())
    n, largest = matrix.shape[0], 0.0
    for start in range(0, n, block):
        cols = np.arange(start, min(start + block, n))
        unit = np.zeros((n, cols.size))
        unit[cols, cols - start] = 1.0
        largest = max(largest, np.max(np.abs(lu.solve(unit)).sum(axis=0)))
    return largest


def assert_canonical_flat_solve(a, b, n):
    """solve_state on a flat curve under the canonical walls returns, with
    a confirmed backward error eta <= rtol, and the upper side lies within
    a conditioning-scaled bound of its exact discrete solution w = 1.

    x - 1 = A^-1 r for the true residual r; the computed residual, the
    assembled rows (which sum to zero) and the load each round within a
    few ulps of |A| |x| + |rhs|, so
      |x - 1| <= |A^-1| (|r| + 16 eps (|A| |x| + |rhs|))
    in the infinity norm, with |A| the true norm of a_uu."""
    domain = drift_domain(a, b)
    curve = ms.flat_curve(b, n)
    state, stats = ms.solve_state(domain, curve, ms.Grid(n, n))
    assert stats.residual <= elliptic.DEFAULT_RTOL
    upper = state.system.upper
    rhs, _ = elliptic._state_problem(upper, domain.top, curve.abscissae)
    x = state.w_upper[:-1].ravel()
    a_norm = np.max(np.abs(upper.a_uu).sum(axis=1))
    scale = a_norm * np.max(np.abs(x)) + np.max(np.abs(rhs))
    residual = np.max(np.abs(rhs - upper.a_uu @ x))
    rounding = 16.0 * np.finfo(float).eps * scale
    bound = _inverse_norm(upper.a_uu) * (residual + rounding)
    assert np.max(np.abs(state.w_upper - 1.0)) <= bound
    assert stats.components[1].iterations == 0  # no load below


@pytest.mark.parametrize("a, b, n", ((1.0, 1e-3, 16), (100.0, 0.3, 64)))
def test_cells_of_extreme_aspect_solve(a, b, n):
    # Cells of aspect a/b 1000 and 333: the load is 3e-7 and 2e-6 of
    # |A| |x|, so a relative residual |r| / |rhs| of 1e-10 asks for more
    # than rounding allows and used to end in SolverDiverged.  The backward
    # error does not; one preconditioned step solves a flat curve.
    assert_canonical_flat_solve(a, b, n)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 10.0))
def test_every_aspect_solves(log_aspect, b):
    assert_canonical_flat_solve(b * 10.0 ** log_aspect, b, 16)


@settings(max_examples=25, deadline=None)
@given(curved_problems())
def test_stop_rule_norm_never_exceeds_the_true_norm(problem):
    # The stop test's |a_uu|, twice the largest diagonal entry of a full
    # row, is a lower bound up to rounding, so the backward error it
    # reports is never below the true one; on a flat strip it is within a
    # factor 2 (equal at unit aspect, where no coupling is positive).
    a, b, curve, grid, _ = problem
    domain = ms.StripDomain(a, b, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    system = elliptic.StripSystem(domain, curve, grid)
    for comp in (system.upper, system.lower):
        a_norm = np.max(np.abs(comp.a_uu).sum(axis=1))
        assert comp._a_norm <= a_norm * (1.0 + 8.0 * np.finfo(float).eps)
        if comp._flat:
            assert comp._a_norm >= 0.5 * a_norm


def test_only_the_midline_shares_a_side():
    grid = ms.Grid(32, 32)
    heights = np.zeros(32)
    flat = elliptic.StripSystem(drift_domain(), ms.GraphCurve(1.0, heights), grid)
    assert flat.lower is flat.upper
    heights[7] = 1e-3
    # One raised node, and a flat line off the midline: both build two sides.
    for psi in (heights, np.full(32, 0.1)):
        other = elliptic.StripSystem(drift_domain(), ms.GraphCurve(1.0, psi), grid)
        for name in ("_slabs", "_drift", "_inv_eig"):
            assert not np.shares_memory(getattr(other.upper, name),
                                        getattr(other.lower, name)), name
        assert not np.shares_memory(other.upper.curve_block_inverse(),
                                    other.lower.curve_block_inverse())


def test_shared_arrays_are_read_only():
    system = elliptic.StripSystem(drift_domain(), ms.flat_curve(1.0, 16),
                                  ms.Grid(16, 16))
    for comp in (system.upper, system.lower):
        arrays = [comp._slabs, comp._drift, comp._inv_eig,
                  comp.curve_block_inverse()] + [coef for _, coef in comp._terms]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def overtone_domain(a, b):
    """Drift data with cos and sin overtones on both walls."""
    k = 2.0 * math.pi / b
    return ms.StripDomain(
        a, b,
        ms.BoundaryData(1.0, lambda x: 1.0 + 0.5 * np.cos(k * x)
                        + 0.25 * np.sin(3.0 * k * x)),
        ms.BoundaryData(-1.0, lambda x: 0.3 * np.cos(2.0 * k * x)
                        - 0.5 * np.sin(k * x)),
    )


def test_shared_lower_side_solves_as_a_separately_built_one():
    # Under the canonical data the lower load is zero and its CG never
    # runs; overtones on the bottom wall give the shared side a real solve.
    a, b, n = 0.8, 1.3, 32
    domain, curve, grid = overtone_domain(a, b), ms.flat_curve(b, n), ms.Grid(n, n)
    field, stats = ms.solve_state(domain, curve, grid)
    assert len(stats.components) == 2
    assert stats.components[1].iterations > 0
    alone = elliptic._Component(domain, ms.GraphCurve(b, -curve.heights), grid)
    wall = domain.bottom.sample(curve.abscissae)
    rhs = -alone.wall_coupling(wall)
    rhs[:n] -= domain.bottom.slope * alone._drift
    w, _ = alone.solve(rhs, elliptic.DEFAULT_RTOL)
    assert np.array_equal(field.w_lower[:-1].ravel(), w)
    assert np.array_equal(field.system.lower.curve_block_inverse(),
                          alone.curve_block_inverse())
