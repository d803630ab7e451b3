import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import ms_stability as ms
from ms_stability import elliptic, second_variation
from ms_stability.errors import GramSingular, InvalidRestriction, SolverDiverged

from conftest import dense_coupling, drift_domain, flat_setup


# ---------------------------------------------------------------- Gram

def test_gram_stiffness_matches_fourier_value():
    # ||cos(2 pi x / b)||~^2 = 2 pi^2 / b on the flat curve, up to the
    # P1 dispersion factor (sin(kh/2)/(kh/2))^2.
    b = 1.0
    curve = ms.flat_curve(b, 128)
    gram = ms.assemble_tilde_gram(curve)
    phi = np.cos(2.0 * math.pi * curve.abscissae / b)
    exact = 2.0 * math.pi ** 2 / b
    assert gram.form(phi) == pytest.approx(exact, rel=1e-3)
    # discrete value known in closed form
    h = b / 128
    k = 2.0 * math.pi / b
    discrete = exact * (math.sin(k * h / 2.0) / (k * h / 2.0)) ** 2
    assert gram.form(phi) == pytest.approx(discrete, rel=1e-12)


def test_gram_flat_curve_annihilates_constants():
    curve = ms.flat_curve(1.0, 64)
    gram = ms.assemble_tilde_gram(curve)
    assert gram.form(np.ones(64)) == pytest.approx(0.0, abs=1e-14)


def test_gram_curvature_mass_positive_on_bent_curve():
    curve = ms.sinusoidal_curve(1.0, 64, mode=1, amplitude=0.1)
    gram = ms.assemble_tilde_gram(curve)
    ones = np.ones(64)
    mass = gram.form(ones)  # pure H^2 mass: stiffness of a constant is 0
    h = ms.curvature(curve)
    from ms_stability.geometry import nodal_arclengths
    assert mass == pytest.approx(float(np.sum(h * h * nodal_arclengths(curve))),
                                 rel=1e-12)
    assert mass > 0.0


def test_segment_gram_constant_value_exact():
    seg = ms.SegmentConfig(1.0, -0.3, -0.7)
    gram = ms.assemble_tilde_gram(seg)
    ones = np.ones(gram.size)
    assert gram.form(ones) == pytest.approx(1.0, abs=1e-12)  # -h1 - h2


def test_restriction_bases():
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.05)
    for restriction in ("mean_zero", "endpoint_zero", "none"):
        gram = ms.assemble_tilde_gram(curve, restriction=restriction)
        p = gram.basis
        np.testing.assert_allclose(p.T @ p, np.eye(p.shape[1]), atol=1e-12)
    mean_zero = ms.assemble_tilde_gram(curve, restriction="mean_zero")
    assert np.max(np.abs(mean_zero.basis.T @ mean_zero.weights)) < 1e-12
    endpoint = ms.assemble_tilde_gram(curve, restriction="endpoint_zero")
    assert np.all(endpoint.basis[0] == 0.0)
    assert endpoint.basis.shape == (32, 31)
    with pytest.raises(InvalidRestriction):
        ms.assemble_tilde_gram(curve, restriction="weird")


def test_gram_refuses_what_is_neither_a_curve_nor_a_segment():
    with pytest.raises(TypeError, match="GraphCurve or a SegmentConfig"):
        ms.assemble_tilde_gram("curve")


def test_unrestricted_flat_gram_is_singular():
    curve = ms.flat_curve(1.0, 32)
    gram = ms.assemble_tilde_gram(curve, restriction="none")
    with pytest.raises(GramSingular):
        gram.apply_inverse(np.ones(32))


@st.composite
def spd_pencils(draw):
    """Symmetric a and positive definite b of size 8-64, cond(b) <= ~1e3."""
    m = draw(st.integers(8, 64))
    shift = draw(st.floats(0.01, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, y = rng.standard_normal((2, m, m))
    return x + x.T, y @ y.T + shift * m * np.eye(m)


@settings(max_examples=40, deadline=None)
@given(spd_pencils())
def test_pencil_eigenvalues_match_scipy_eigh(pencil):
    # SciPy's LAPACK sygvd is the independent reference for the NumPy
    # Cholesky reduction.
    a, b = pencil
    ref = scipy.linalg.eigh(a, b, eigvals_only=True)
    got = second_variation.pencil_eigenvalues(a, b)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_spectrum_rejects_a_singular_restricted_gram():
    # Constants span the kernel of the unrestricted flat-curve Gram, and
    # large endpoint curvatures make the segment form indefinite: the
    # pencil route and the inverse must raise GramSingular, not numbers.
    _, curve, _, state, _ = flat_setup(n=32)
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve, restriction="none"))
    with pytest.raises(GramSingular, match="numerically singular"):
        op.spectrum()
    segment = ms.assemble_tilde_gram(ms.SegmentConfig(1.0, 50.0, 50.0))
    with pytest.raises(GramSingular, match="not positive definite"):
        segment.apply_inverse(np.ones(segment.size))
    with pytest.raises(GramSingular, match="not positive definite"):
        second_variation.pencil_eigenvalues(segment.matrix, segment.matrix)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.sampled_from([16, 17, 64, 200]))
def test_segment_form_and_min_eig_match_the_element_assembly(length, h1, h2, m):
    # K and M assembled element by element, the form K - h1 e_0 e_0' -
    # h2 e_L e_L', and SciPy's sygvd as the reference eigensolve.  Both
    # eigensolves whiten by M + K, so their rounding grows with its
    # condition number: with h1 = h2 = 0 the least eigenvalue is 0, and
    # the two return noise up to ~1.2e-12 apart at L = 0.3, m = 64.
    seg = ms.SegmentConfig(length, h1, h2)
    h = length / (m - 1)
    stiff, mass = np.zeros((2, m, m))
    for e in range(m - 1):
        stiff[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        mass[e:e + 2, e:e + 2] += np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    form = stiff.copy()
    form[0, 0] -= h1
    form[-1, -1] -= h2
    assert np.array_equal(second_variation._segment_p1(seg, m)[0], form)
    ref = scipy.linalg.eigh(form, mass + stiff, eigvals_only=True)
    rounding = max(1e-12, np.finfo(float).eps * np.linalg.cond(mass + stiff))
    assert abs(ms.segment_min_eig(seg, m) - ref[0]) <= rounding * np.max(np.abs(ref))


def test_segment_endpoint_restriction_drops_both_ends():
    seg = ms.SegmentConfig(1.0, -1.0, -1.0)
    gram = ms.assemble_tilde_gram(seg, restriction="endpoint_zero")
    assert gram.basis.shape == (128, 126)
    assert np.all(gram.basis[0] == 0.0) and np.all(gram.basis[-1] == 0.0)


# ---------------------------------------------------- operator structure

def make_operator(a=1.0, b=1.0, n=32, amplitude=0.0):
    domain = drift_domain(a, b)
    if amplitude:
        curve = ms.sinusoidal_curve(b, n, mode=1, amplitude=amplitude)
    else:
        curve = ms.flat_curve(b, n)
    grid = ms.Grid(n, n)
    state, _ = ms.solve_state(domain, curve, grid)
    gram = ms.assemble_tilde_gram(curve)
    return ms.TOperator(state, gram)


@pytest.mark.parametrize("a,b,amplitude", [
    (1.0, 1.0, 0.0), (0.5, 1.0, 0.0), (1.0, 1.0, 0.08),
])
def test_operator_symmetric_and_positive(a, b, amplitude):
    op = make_operator(a, b, 32, amplitude)
    gram = op.gram
    rng = np.random.default_rng(42)
    for _ in range(6):
        phi = gram.project(rng.standard_normal(32))
        chi = gram.project(rng.standard_normal(32))
        _, dual_phi = op.apply(phi)
        _, dual_chi = op.apply(chi)
        left = float(chi @ dual_phi)    # (T phi, chi)~
        right = float(phi @ dual_chi)   # (T chi, phi)~
        scale = gram.norm(phi) * gram.norm(chi)
        assert abs(left - right) <= 1e-8 * scale
        assert float(phi @ dual_phi) >= -1e-10 * gram.form(phi)


def test_operator_preserves_fourier_modes():
    # On the flat configuration T is translation invariant, so a cosine
    # mode maps to the same mode (plus solver-level leakage).
    op = make_operator(1.0, 1.0, 64)
    x = np.arange(64) / 64.0
    phi = np.cos(2.0 * math.pi * x)
    t_phi, _ = op.apply(phi)
    lam = op.rayleigh(phi)
    leak = op.gram.norm(t_phi - lam * phi) / op.gram.norm(t_phi)
    assert leak < 1e-6


def test_mode_rayleigh_quotients_match_closed_form():
    op = make_operator(1.0, 1.0, 96)
    x = np.arange(96) / 96.0
    for k in (1, 2):
        phi = np.cos(2 * k * math.pi * x)
        assert op.rayleigh(phi) == pytest.approx(
            ms.mode_lambda(k, 1.0, 1.0), rel=7e-3)


def test_operator_rejects_mismatched_gram():
    _, curve, grid, state, _ = flat_setup(n=16)
    gram = ms.assemble_tilde_gram(ms.flat_curve(1.0, 32))
    with pytest.raises(ValueError):
        ms.TOperator(state, gram)
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
    with pytest.raises(ValueError):
        op.rayleigh(np.zeros(16))


# ----------------------------------------------------------- eigenvalues

def test_lambda1_against_closed_form_and_repeatable():
    op = make_operator(1.0, 1.0, 64)
    lam_a, stats = ms.lambda1(op)
    lam_b, _ = ms.lambda1(make_operator(1.0, 1.0, 64))
    assert stats.method == "circulant_symbol"
    assert lam_a == pytest.approx(ms.lambda1_strip(1.0, 1.0), rel=5e-3)
    assert lam_a == lam_b


def test_leading_pair_is_degenerate_then_drops_to_next_mode():
    # cos and sin of the leading mode share the eigenvalue; the third
    # eigenvalue is the mode cos(2 pi 2 x / b).
    op = make_operator(1.0, 1.0, 48)
    values = ms.leading_eigenvalues(op, count=3)
    assert len(values) == 3
    assert values[0] == pytest.approx(values[1], rel=1e-5)
    assert values[2] == pytest.approx(ms.mode_lambda(2, 1.0, 1.0), rel=2e-2)
    assert values[0] > values[2]


def test_one_operator_factors_its_restricted_gram_once(monkeypatch):
    # lambda1, mu and the leading eigenvalues share one eigensolve, whose
    # pencil is whitened by the map the Gram already holds.
    op = make_operator(1.0, 1.0, 32)
    factored = []
    cholesky = np.linalg.cholesky

    def counting(mat):
        factored.append(mat.shape)
        return cholesky(mat)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    solved = []
    solve = np.linalg.solve

    def counting_solve(mat, rhs):
        solved.append((mat.shape, rhs.shape))
        return solve(mat, rhs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    ms.lambda1(op)
    ms.mu(op)
    ms.leading_eigenvalues(op, 3)
    op.gram.apply_inverse(np.ones(32))
    assert factored == [(31, 31)]
    # one whitening solve, W = L^-1 P^T, serves the spectrum and the inverse
    assert solved == [((31, 31), (31, 32))]


@settings(max_examples=6, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.floats(0.01, 0.1), st.integers(1, 23))
def test_curved_lambda1_is_invariant_under_a_cell_shift(weights, amplitude, shift):
    # A periodic shift of the curve samples by whole cells moves the
    # problem along the period; the drift walls change by constants only,
    # which T does not see.  The curved route (row sweep, sliced shifts,
    # coupling) must give the same lambda_1 to rounding.
    a, b, n = 0.7, 1.3, 24
    x = np.arange(n) * (b / n)
    heights = sum(w * np.sin(2.0 * np.pi * k * x / b)
                  for k, w in enumerate(weights, start=1))
    heights *= amplitude / max(np.max(np.abs(heights)), 1e-3)
    values = []
    for samples in (heights, np.roll(heights, shift)):
        curve = ms.GraphCurve(b, samples)
        state, _ = ms.solve_state(drift_domain(a, b), curve, ms.Grid(n, n))
        values.append(ms.lambda1(ms.TOperator(state, ms.assemble_tilde_gram(curve)))[0])
    assert values[1] == pytest.approx(values[0], rel=1e-12, abs=0)


def random_wall(draw, b):
    """Wall datum s x + c + A cos(2 pi k x / b + phase), |s| in [0.5, 2]."""
    slope = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    const, amp, phase = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    k = draw(st.integers(1, 3))
    return ms.BoundaryData(
        slope, lambda x: const + amp * np.cos(2.0 * np.pi * k * x / b + phase))


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_leading_eigenvalues_are_invariant_under_the_y_mirror(data):
    # y -> -y maps the pair (top, bottom, psi) to (bottom, top, -psi): the
    # upper mesh of one is the lower mesh of the other, mirrored.  The
    # lower side is built as that mirror, and no step rounds a side
    # differently, so the fields swap sides bit for bit and T, its leading
    # eigenvalues and the criticality residual are the same, exactly.
    draw = data.draw
    a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    n = draw(st.sampled_from((16, 24, 32)))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    top, bottom = random_wall(draw, b), random_wall(draw, b)
    x = np.arange(n) * (b / n)
    psi = sum(w * np.sin(2.0 * np.pi * k * x / b)
              for k, w in enumerate(weights, start=1))
    psi *= 0.3 * a / max(np.max(np.abs(psi)), 1.0)
    if draw(st.booleans()):
        psi = np.zeros(n)  # the midline, where both sides are one object
    states, values, residuals = [], [], []
    for upper, lower, heights in ((top, bottom, psi), (bottom, top, -psi)):
        curve = ms.GraphCurve(b, heights)
        state, _ = ms.solve_state(ms.StripDomain(a, b, upper, lower), curve,
                                  ms.Grid(n, n))
        op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
        states.append(state)
        values.append(ms.leading_eigenvalues(op, count=3))
        residuals.append(ms.criticality_residuals(state).sup_residual)
    s0, s1 = states
    assert values[1] == values[0]
    assert np.array_equal(s0.w_lower, s1.w_upper)
    assert np.array_equal(s0.w_upper, s1.w_lower)
    assert residuals[1] == residuals[0]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_whitened_pencil_is_symmetric_psd_and_matches_sygvd(data):
    # W = L^-1 P^T must whiten the restricted Gram, and W A W^T must be a
    # symmetric PSD matrix with the eigenvalues of the pencil
    # (P^T A P, P^T G P), for which SciPy's LAPACK sygvd is the independent
    # reference.  d2F[1] = 0 is not asserted: it holds at critical pairs
    # only, and random walls and curves are not critical.
    draw = data.draw
    a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    n = draw(st.sampled_from((16, 24, 32)))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    top, bottom = random_wall(draw, b), random_wall(draw, b)
    x = np.arange(n) * (b / n)
    psi = sum(w * np.sin(2.0 * np.pi * k * x / b)
              for k, w in enumerate(weights, start=1))
    psi *= 0.3 * a / max(np.max(np.abs(psi)), 1.0)
    curve = ms.GraphCurve(b, psi)
    state, _ = ms.solve_state(ms.StripDomain(a, b, top, bottom), curve,
                              ms.Grid(n, n))
    for restriction in ("mean_zero", "endpoint_zero"):
        gram = ms.assemble_tilde_gram(curve, restriction=restriction)
        op = ms.TOperator(state, gram)
        w = gram.whitening
        p, mat = gram.basis, op.dual_matrix
        np.testing.assert_allclose(w @ gram.matrix @ w.T, np.eye(p.shape[1]),
                                   rtol=0, atol=1e-10)
        whitened = w @ mat @ w.T
        scale = np.max(np.abs(whitened))
        assert np.max(np.abs(whitened - whitened.T)) <= 1e-13 * scale
        values = op.spectrum()[0][::-1]
        assert values[0] >= -1e-12 * values[-1]
        ref = scipy.linalg.eigh(p.T @ mat @ p, p.T @ gram.matrix @ p,
                                eigvals_only=True)
        np.testing.assert_allclose(values, ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("m", [16, 17, 64])
@pytest.mark.parametrize("amplitude", [0.0, 0.08])
def test_coupling_dual_matrix_matches_the_dense_product(m, amplitude):
    # 2 C^T X C from the coupling's element coefficients in O(m^2)
    # against the dense product with the reference add.at C.  On the
    # curved state the coefficients vary along the curve.
    curve = ms.sinusoidal_curve(1.0, m, mode=1, amplitude=amplitude)
    state, _ = ms.solve_state(drift_domain(), curve, ms.Grid(m, m))
    coupling = elliptic.JumpCoupling(state)
    assert (np.ptp(coupling.coefficients["upper"]) > 1e-6) == (amplitude > 0.0)
    y = np.random.default_rng(m).standard_normal((m, m))
    x = y + y.T
    for side, c in dense_coupling(state).items():
        dense = 2.0 * c.T @ x @ c
        got = coupling.dual_matrix({side: x})
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_dense_eigensolves_confirm_iterative_values():
    # Assemble the full discrete operators on a small grid and compare
    # lambda1 and mu, both taken from the curve-space reduction, against
    # dense generalized eigensolves with the whole stiffness matrix.
    n = 16
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, n)
    state, _ = ms.solve_state(domain, curve, ms.Grid(n, n))
    gram = ms.assemble_tilde_gram(curve)
    op = ms.TOperator(state, gram)
    lam_iter, _ = ms.lambda1(op)
    mu_iter, _ = ms.mu(op)

    nu = n * n
    a_glob = scipy.linalg.block_diag(
        state.system.upper.a_uu.toarray(), state.system.lower.a_uu.toarray())
    dense = dense_coupling(state)
    c_glob = np.zeros((2 * nu, n))
    c_glob[:n, :] = dense["upper"]
    c_glob[nu:nu + n, :] = dense["lower"]

    x_mat = 2.0 * c_glob.T @ np.linalg.solve(a_glob, c_glob)
    p = gram.basis
    lam_dense = scipy.linalg.eigh(
        p.T @ x_mat @ p, p.T @ gram.matrix @ p, eigvals_only=True)[-1]
    assert lam_iter == pytest.approx(lam_dense, rel=1e-6)

    g_hat = p @ np.linalg.inv(p.T @ gram.matrix @ p) @ p.T
    rho_dense = scipy.linalg.eigh(
        4.0 * c_glob @ g_hat @ c_glob.T, 2.0 * a_glob, eigvals_only=True)[-1]
    assert mu_iter == pytest.approx(1.0 / rho_dense, rel=1e-6)


@pytest.mark.parametrize("restriction", ["mean_zero", "endpoint_zero"])
@pytest.mark.parametrize("a,b,amplitude,n", [
    (1.0, 1.0, 0.05, 32), (1.0, 2.0, 0.08, 48), (0.5, 1.0, 0.03, 64),
    (0.7, 1.3, 0.0, 48),
])
def test_dual_matrix_matches_transport_solves_on_curved_mesh(
        a, b, amplitude, n, restriction):
    # Implementation check, not an independent one: the dense A against
    # the CG transport solve, where A P phi must be the dual vector.  A is
    # 2 C^T (a_uu^-1)_00 C of the same assembled a_uu that CG solves with,
    # so this checks how A is built, by another algorithm.  A curved
    # (mapped, non-uniform) mesh builds A by the row sweep; amplitude 0 is
    # the flat mesh, which builds it from the Fourier symbol.
    domain = drift_domain(a, b)
    curve = ms.sinusoidal_curve(b, n, mode=1, amplitude=amplitude)
    state, _ = ms.solve_state(domain, curve, ms.Grid(n, n))
    gram = ms.assemble_tilde_gram(curve, restriction=restriction)
    op = ms.TOperator(state, gram)
    mat = op.dual_matrix
    rng = np.random.default_rng(n)
    for _ in range(5):
        phi = rng.standard_normal(n)
        _, dual = op.apply(phi)
        dense = mat @ gram.project(phi)
        assert np.linalg.norm(dense - dual) <= 1e-8 * np.linalg.norm(dual)
    scale = np.max(np.abs(mat))
    assert np.max(np.abs(mat - mat.T)) <= 1e-12 * scale
    assert np.linalg.eigvalsh(mat).min() >= -1e-12 * scale


@pytest.mark.parametrize("a,b,nx,ny,height", [
    (1.0, 1.0, 64, 64, 0.0), (0.7, 1.3, 48, 48, 0.0), (0.5, 2.0, 64, 40, 0.0),
    (1.0, 1.0, 48, 64, 0.2),
])
def test_flat_curve_block_matches_row_sweep(a, b, nx, ny, height):
    # Checks the code, not the discretization: on a flat mesh both routes
    # compute the same (a_uu^-1)_00 of the same stiffness, one from the
    # flat-strip symbol, one by block elimination.
    curve = ms.GraphCurve(b, np.full(nx, height))
    system = elliptic.StripSystem(drift_domain(a, b), curve, ms.Grid(nx, ny))
    for comp in (system.upper, system.lower):
        sweep = comp._row_sweep()
        fourier = comp.curve_block_inverse()
        assert np.max(np.abs(fourier - sweep)) <= 1e-12 * np.max(np.abs(sweep))


@pytest.mark.parametrize("a,b,nx,ny,mode,amplitude", [
    (1.0, 1.0, 16, 20, 1, 0.05), (0.7, 1.3, 17, 16, 2, 0.2),
    (1.0, 2.0, 24, 16, 1, 0.1),
])
def test_curved_row_sweep_matches_dense_inverse(a, b, nx, ny, mode, amplitude):
    # Checks the code, not the discretization: both routes invert the same
    # stiffness, the sweep row by row and the reference as one dense
    # matrix.  The sweep's block is exactly symmetric.
    curve = ms.sinusoidal_curve(b, nx, mode=mode, amplitude=amplitude)
    system = elliptic.StripSystem(drift_domain(a, b), curve, ms.Grid(nx, ny))
    for comp in (system.upper, system.lower):
        sweep = comp._row_sweep()
        dense = np.linalg.inv(comp.a_uu.toarray())[:nx, :nx]
        assert np.max(np.abs(sweep - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert np.array_equal(sweep, sweep.T)


def test_singular_schur_complement_ends_the_row_sweep(monkeypatch):
    def singular(mat):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    curve = ms.sinusoidal_curve(1.0, 16, mode=1, amplitude=0.1)
    system = elliptic.StripSystem(drift_domain(), curve, ms.Grid(16, 16))
    with pytest.raises(SolverDiverged, match="row sweep"):
        system.upper.curve_block_inverse()


def test_curve_block_route_follows_the_heights(monkeypatch):
    # Only a curve whose heights are all equal skips the sweep; a single
    # node raised by 1e-9 already takes it.
    swept = []
    sweep = elliptic._Component._row_sweep

    def spy(comp):
        swept.append(comp)
        return sweep(comp)

    monkeypatch.setattr(elliptic._Component, "_row_sweep", spy)
    heights = np.full(32, 0.1)
    grid = ms.Grid(32, 32)
    flat = elliptic.StripSystem(drift_domain(), ms.GraphCurve(1.0, heights), grid)
    flat.upper.curve_block_inverse()
    flat.lower.curve_block_inverse()
    assert len(swept) == 0
    heights[5] += 1e-9
    bumped = elliptic.StripSystem(drift_domain(), ms.GraphCurve(1.0, heights), grid)
    bumped.upper.curve_block_inverse()
    bumped.lower.curve_block_inverse()
    assert len(swept) == 2


@settings(max_examples=30, deadline=None)
@given(st.floats(0.25, 2.0), st.floats(0.5, 4.0))
def test_flat_mode_law(a, b):
    # On a flat pair the top two eigenvalues are the cos/sin pair of the
    # leading mode cos(2 pi x / b), and lambda_1 follows the closed form.
    # Over a 12 x 12 scan of this box at 48^2 the pair split at most by
    # 1.3e-14 and the closed form was missed by at most 1.34%, at
    # a = 2, b = 0.5.
    _, curve, _, state, _ = flat_setup(a, b, 48)
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
    values = ms.leading_eigenvalues(op, count=2)
    assert values[1] == pytest.approx(values[0], rel=1e-12)
    arg = 2.0 * math.pi * curve.abscissae / b
    for phi in (np.cos(arg), np.sin(arg)):
        quotient = (phi @ op.dual_matrix @ phi) / op.gram.form(phi)
        assert quotient == pytest.approx(values[0], rel=1e-12)
    assert values[0] == pytest.approx(ms.lambda1_strip(a, b), rel=0.02)


def test_lambda1_converges_at_second_order():
    # Observed order of |lambda1 - (2b/pi) tanh(2 pi a/b)| over the grids
    # 32 -> 64 -> 128 (the README states second order).
    for a, b in ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 1.0),
                 (0.25, 4.0), (2.0, 0.5)):
        errors = []
        for n in (32, 64, 128):
            _, curve, _, state, _ = flat_setup(a, b, n)
            lam, _ = ms.lambda1(ms.TOperator(state, ms.assemble_tilde_gram(curve)))
            errors.append(abs(lam - ms.lambda1_strip(a, b)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (a, b, errors, orders)


def test_curved_lambda1_converges_at_second_order():
    # The sine curve of mode 1, amplitude 0.05, on the unit strip: lambda1
    # rises toward its limit, and the observed order over 32 -> 64 -> 128
    # is about 2 (1.998 measured), as on the flat curves above.
    values = []
    for n in (32, 64, 128):
        curve = ms.sinusoidal_curve(1.0, n, mode=1, amplitude=0.05)
        state, _ = ms.solve_state(drift_domain(), curve, ms.Grid(n, n))
        lam, _ = ms.lambda1(ms.TOperator(state, ms.assemble_tilde_gram(curve)))
        values.append(lam)
    steps = np.diff(values)
    assert np.all(steps > 0.0), values
    assert math.log2(steps[0] / steps[1]) >= 1.8, values


def test_mu_reciprocal_duality_and_sign():
    for a, b in ((1.0, 1.0), (1.0, 2.0)):
        op = make_operator(a, b, 32)
        lam, _ = ms.lambda1(op)
        mu_val, stats = ms.mu(op)
        assert stats.method == "circulant_symbol"
        assert mu_val == pytest.approx(1.0 / lam, rel=1e-6)
        assert (lam - 1.0) * (mu_val - 1.0) < 0.0


def test_mu_infinite_when_no_coupling():
    # Identical zero wall data: the state has no jump, the constraint
    # set is empty, mu degenerates to +inf.
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    curve = ms.flat_curve(1.0, 16)
    state, _ = ms.solve_state(domain, curve, ms.Grid(16, 16))
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
    mu_val, stats = ms.mu(op)
    assert mu_val == math.inf
    assert stats.note == "empty constraint"
    lam, _ = ms.lambda1(op)
    assert lam == 0.0


def test_restriction_choice_does_not_move_leading_eigenvalue():
    # Both admissible restrictions keep the cosine eigenfunctions.
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 48)
    state, _ = ms.solve_state(domain, curve, ms.Grid(48, 48))
    values = []
    for restriction in ("mean_zero", "endpoint_zero"):
        gram = ms.assemble_tilde_gram(curve, restriction=restriction)
        lam, _ = ms.lambda1(ms.TOperator(state, gram))
        values.append(lam)
    assert values[0] == pytest.approx(values[1], rel=1e-4)


# ------------------------------------------------------ form evaluation

def test_second_variation_of_constant_vanishes(unit_strip_state):
    _, curve, grid, state, _ = unit_strip_state
    gram = ms.assemble_tilde_gram(curve, restriction="none")
    result = ms.second_variation_value(state, gram, np.ones(curve.m))
    assert abs(result.value) < 1e-9
    assert result.mismatch < 1e-10


def test_second_variation_of_leading_mode(unit_strip_state):
    _, curve, grid, state, _ = unit_strip_state
    gram = ms.assemble_tilde_gram(curve, restriction="none")
    phi = np.sin(2.0 * math.pi * curve.abscissae)
    result = ms.second_variation_value(state, gram, phi)
    lam = ms.lambda1_strip(1.0, 1.0)
    expected = (1.0 - lam) * 2.0 * math.pi ** 2
    assert result.value == pytest.approx(expected, rel=1.5e-2)
    # the two evaluation routes agree at solver tolerance
    assert result.mismatch <= 1e-6


def test_two_route_agreement_for_random_perturbations(unit_strip_state):
    _, curve, grid, state, _ = unit_strip_state
    gram = ms.assemble_tilde_gram(curve, restriction="none")
    rng = np.random.default_rng(2024)
    for _ in range(5):
        phi = rng.standard_normal(curve.m)
        result = ms.second_variation_value(state, gram, phi)
        assert result.mismatch <= 1e-6


def test_apply_rayleigh_and_form_share_one_transport_solve(monkeypatch):
    # apply, rayleigh and second_variation_value each make one transport
    # solve, and the form's dual is the Gram form minus the pairing that
    # apply returns, bit for bit.
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.05)
    state, _ = ms.solve_state(drift_domain(), curve, ms.Grid(32, 32))
    gram = ms.assemble_tilde_gram(curve, restriction="none")
    op = ms.TOperator(state, gram)
    phi = np.random.default_rng(7).standard_normal(32)
    calls = []
    solve = elliptic.solve_jump_source

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(elliptic, "solve_jump_source", counting)
    for evaluate in (op.apply, op.rayleigh,
                     lambda p: ms.second_variation_value(state, gram, p)):
        calls.clear()
        evaluate(phi)
        assert len(calls) == 1
    dual = ms.second_variation_value(state, gram, phi).dual
    assert dual == gram.form(phi) - float(phi @ op.apply(phi)[1])


def test_verdict_bands():
    assert ms.verdict_from_eigenvalue(0.9) == "strictly_stable"
    assert ms.verdict_from_eigenvalue(1.5) == "unstable"
    assert ms.verdict_from_eigenvalue(1.01) == "marginal"
    assert ms.verdict_from_eigenvalue(0.99, band=0.001) == "strictly_stable"
    assert ms.verdict_from_min_eig(0.4) == "strictly_stable"
    assert ms.verdict_from_min_eig(-0.4) == "unstable"
    assert ms.verdict_from_min_eig(0.0) == "marginal"


def overtone_domain(a=1.0, b=1.0):
    """The canonical walls with a cos overtone on the top one: a flat
    curve then has a pair that is not translation-invariant."""
    return ms.StripDomain(
        a, b, ms.BoundaryData(1.0, lambda x: 1.0 + 0.1 * np.cos(
            2.0 * np.pi * x / b)), ms.BoundaryData(-1.0))


def test_flat_spectrum_inverts_one_curve_block(monkeypatch):
    # On the midline both sides are one assembly, so the flat curve block
    # (one irfft) is formed once for the two of them.  The overtone keeps
    # the pair on the dense route, which forms that block.
    curve = ms.flat_curve(1.0, 32)
    state, _ = ms.solve_state(overtone_domain(), curve, ms.Grid(32, 32))
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
    assert all(np.any(c) for c in op.coupling.coefficients.values())
    calls = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    assert op.spectrum()[1].method == "dense_eigh"
    assert calls == [(17,)]  # the symbol of one 32-column circulant


def linear_wall(slope, constant):
    """Wall datum slope * x + constant: a constant periodic part."""
    return ms.BoundaryData(slope, lambda x: np.full_like(x, constant))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_circulant_route_matches_the_whitened_pencil(data):
    # Implementation check: on a flat curve with linear walls under
    # mean_zero, the spectrum comes from the Fourier symbols with no
    # Cholesky and no eigvalsh, and equals the dense route's eigenvalues
    # of W A W^T, which the test forms from dual_matrix and the whitening.
    draw = data.draw
    a, b = draw(st.floats(0.25, 2.0)), draw(st.floats(0.5, 4.0))
    n = draw(st.sampled_from((16, 17, 24, 32, 64)))
    walls = [linear_wall(draw(st.floats(0.5, 2.0))
                         * draw(st.sampled_from((-1.0, 1.0))),
                         draw(st.floats(-1.0, 1.0))) for _ in range(2)]
    curve = ms.flat_curve(b, n)
    state, _ = ms.solve_state(ms.StripDomain(a, b, *walls), curve,
                              ms.Grid(n, n))
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("eigvalsh", "cholesky"):
            patch.setattr(np.linalg, name, lambda *args, name=name:
                          calls.append(name))
        values, stats = op.spectrum()
    assert calls == []
    assert stats.method == "circulant_symbol" and stats.note == ""
    assert values.shape == (n - 1,)
    assert np.all(np.diff(values) <= 0.0)
    assert values[0] == values[1]  # the cos/sin pair of the leading mode
    w = op.gram.whitening
    ref = np.linalg.eigvalsh(w @ op.dual_matrix @ w.T)[::-1]
    np.testing.assert_allclose(values, ref, rtol=0, atol=1e-12 * ref[0])


@pytest.mark.parametrize("pair", ["curved", "overtone", "endpoint_zero"])
def test_pairs_off_the_circulant_route_call_eigvalsh_once(pair, monkeypatch):
    # A curved curve, a wall with an overtone or the endpoint_zero
    # restriction breaks translation invariance: one dense eigensolve
    # serves lambda_1, mu and the leading eigenvalues.
    n = 24
    curve = (ms.sinusoidal_curve(1.0, n, mode=1, amplitude=0.05)
             if pair == "curved" else ms.flat_curve(1.0, n))
    domain = overtone_domain() if pair == "overtone" else drift_domain()
    state, _ = ms.solve_state(domain, curve, ms.Grid(n, n))
    restriction = "endpoint_zero" if pair == "endpoint_zero" else "mean_zero"
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve, restriction))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(mat):
        calls.append(mat.shape)
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    lam, stats = ms.lambda1(op)
    ms.mu(op)
    ms.leading_eigenvalues(op, count=3)
    assert calls == [(n - 1, n - 1)]
    assert stats.method == "dense_eigh"


def test_circulant_lambda1_matches_the_high_precision_symbol():
    # lambda_1 at 128^2 against the same discrete symbol summed in 40
    # digits: x^_1 = sum_j (2/ny) / lam_j1 over the cosine modes j of the
    # curve block, lam = (hy/6)(4 + 2 cos ty)(2 - 2 cos tx)/hx
    # + (2 - 2 cos ty)/hy (hx/6)(4 + 2 cos tx), and with h+- = -+1/2
    # lambda_1 = l (2 + 2 cos tx) x^_1, l = hx.
    n = 128
    _, curve, _, state, _ = flat_setup(1.0, 1.0, n)
    lam, stats = ms.lambda1(ms.TOperator(state, ms.assemble_tilde_gram(curve)))
    assert stats.method == "circulant_symbol"
    with mpmath.workdps(40):
        h = mpmath.mpf(1) / n
        cx = mpmath.cos(2 * mpmath.pi / n)
        symbol = mpmath.fsum(
            (mpmath.mpf(2) / n)
            / (h / 6 * (4 + 2 * cy) * (2 - 2 * cx) / h
               + (2 - 2 * cy) / h * h / 6 * (4 + 2 * cx))
            for cy in (mpmath.cos((j + mpmath.mpf(1) / 2) * mpmath.pi / n)
                       for j in range(n)))
        exact = h * (2 + 2 * cx) * symbol
        assert abs(exact - mpmath.mpf("0.63635968937232887594")) < 1e-19
        assert abs(lam - exact) <= 1e-15 * exact


def test_flat_mode_pairs_converge_at_second_order():
    # The pairs (2k - 1, 2k), k = 1, 2, 3, are the cos/sin pairs of the
    # modes cos(2 k pi x / b) and tend to mode_lambda(k) over
    # 32 -> 64 -> 128.
    for a, b in ((1.0, 1.0), (0.5, 2.0)):
        errors = []
        for n in (32, 64, 128):
            _, curve, _, state, _ = flat_setup(a, b, n)
            op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
            values = ms.leading_eigenvalues(op, count=6)
            assert values[0::2] == values[1::2]
            errors.append([abs(values[2 * k - 2] - ms.mode_lambda(k, a, b))
                           for k in (1, 2, 3)])
        errors = np.array(errors)
        orders = np.log2(errors[:-1] / errors[1:])
        assert orders.min() >= 1.8, (a, b, errors, orders)
