import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import ms_stability as ms
from ms_stability import elliptic
from ms_stability.errors import GramSingular, InvalidRestriction

from conftest import drift_domain, flat_setup


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
    gram = ms.assemble_tilde_gram(seg, m=64)
    ones = np.ones(64)
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


def test_unrestricted_flat_gram_is_singular():
    curve = ms.flat_curve(1.0, 32)
    gram = ms.assemble_tilde_gram(curve, restriction="none")
    with pytest.raises(GramSingular):
        gram.apply_inverse(np.ones(32))


def test_segment_endpoint_restriction_drops_both_ends():
    seg = ms.SegmentConfig(1.0, -1.0, -1.0)
    gram = ms.assemble_tilde_gram(seg, m=32, restriction="endpoint_zero")
    assert gram.basis.shape == (32, 30)
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
    for n in (2, 4):
        phi = np.cos(n * math.pi * x)
        assert op.rayleigh(phi) == pytest.approx(
            ms.mode_lambda(n, 1.0, 1.0), rel=7e-3)


def test_operator_rejects_mismatched_gram():
    _, curve, grid, state, _ = flat_setup(n=16)
    gram = ms.assemble_tilde_gram(ms.flat_curve(1.0, 32))
    with pytest.raises(ValueError):
        ms.TOperator(state, gram)
    op = ms.TOperator(state, ms.assemble_tilde_gram(curve))
    with pytest.raises(ValueError):
        op.rayleigh(np.zeros(16))


# ----------------------------------------------------------- eigenvalues

def test_lambda1_against_closed_form_and_seed_stability():
    op = make_operator(1.0, 1.0, 64)
    lam_a, stats = ms.lambda1(op, seed=7)
    lam_b, _ = ms.lambda1(op, seed=12345)
    assert stats.converged
    assert lam_a == pytest.approx(ms.lambda1_strip(1.0, 1.0), rel=5e-3)
    assert lam_a == pytest.approx(lam_b, rel=1e-7)


def test_leading_pair_is_degenerate_then_drops_to_next_mode():
    # cos and sin of the leading mode share the eigenvalue; the third
    # eigenvalue is the n = 4 mode.
    op = make_operator(1.0, 1.0, 48)
    values = ms.leading_eigenvalues(op, count=3)
    assert len(values) == 3
    assert values[0] == pytest.approx(values[1], rel=1e-5)
    assert values[2] == pytest.approx(ms.mode_lambda(4, 1.0, 1.0), rel=2e-2)
    assert values[0] > values[2]


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
    c_glob = np.zeros((2 * nu, n))
    c_glob[:n, :] = op.coupling.c_upper
    c_glob[nu:nu + n, :] = op.coupling.c_lower

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
    # The dense A against the CG transport solve: A P phi must be the dual
    # vector.  A curved (mapped, non-uniform) mesh builds A by the row
    # sweep; amplitude 0 is the flat mesh, which builds it from the Fourier
    # symbol.  CG stops on its residual against the assembled a_uu, so it
    # checks either route independently.
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


def test_curve_block_route_follows_the_heights(monkeypatch):
    # Only a curve whose heights are all equal skips the sweep; a single
    # node raised by 1e-9 already takes it.
    swept = []
    sweep = elliptic._Component._row_sweep

    def spy(comp):
        swept.append(comp.side)
        return sweep(comp)

    monkeypatch.setattr(elliptic._Component, "_row_sweep", spy)
    heights = np.full(32, 0.1)
    grid = ms.Grid(32, 32)
    flat = elliptic.StripSystem(drift_domain(), ms.GraphCurve(1.0, heights), grid)
    flat.upper.curve_block_inverse()
    flat.lower.curve_block_inverse()
    assert swept == []
    heights[5] += 1e-9
    bumped = elliptic.StripSystem(drift_domain(), ms.GraphCurve(1.0, heights), grid)
    bumped.upper.curve_block_inverse()
    bumped.lower.curve_block_inverse()
    assert swept == ["upper", "lower"]


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


def test_mu_reciprocal_duality_and_sign():
    for a, b in ((1.0, 1.0), (1.0, 2.0)):
        op = make_operator(a, b, 32)
        lam, _ = ms.lambda1(op)
        mu_val, stats = ms.mu(op)
        assert stats.converged
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


def test_verdict_bands():
    assert ms.verdict_from_eigenvalue(0.9) == "strictly_stable"
    assert ms.verdict_from_eigenvalue(1.5) == "unstable"
    assert ms.verdict_from_eigenvalue(1.01) == "marginal"
    assert ms.verdict_from_eigenvalue(0.99, band=0.001) == "strictly_stable"
    assert ms.verdict_from_min_eig(0.4) == "strictly_stable"
    assert ms.verdict_from_min_eig(-0.4) == "unstable"
    assert ms.verdict_from_min_eig(0.0) == "marginal"
