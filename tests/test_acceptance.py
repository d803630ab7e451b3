"""Acceptance gate: one test per primary requirement.

Each test pins one quantitative guarantee of the package at its stated
tolerance against an independent reference (closed forms, finite
differences of the energy, or structural identities), so the -v report
gives a single pass/fail line per requirement.
"""

import math

import numpy as np
import pytest

import ms_stability as ms

from conftest import drift_domain, flat_setup


def analytic_lambda1(a, b):
    return (2.0 * b / math.pi) * math.tanh(2.0 * math.pi * a / b)


def numeric_lambda1(a, b, n):
    _, curve, _, state, _ = flat_setup(a, b, n)
    gram = ms.assemble_tilde_gram(curve)
    op = ms.TOperator(state, gram)
    lam, stats = ms.lambda1(op)
    assert stats.method != "none"
    return lam


def test_criterion_1_strip_eigenvalue_reproduction():
    # |lambda1_numeric - (2b/pi) tanh(2 pi a/b)| / analytic <= 2% on a
    # 128x128 grid with 128 curve nodes, at four aspect ratios
    for a, b in ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 1.0)):
        lam = numeric_lambda1(a, b, 128)
        ref = analytic_lambda1(a, b)
        rel = abs(lam - ref) / ref
        assert rel <= 0.02, (a, b, lam, ref, rel)
        print("[criterion 1] (a=%g, b=%g): lambda1 = %.6f vs %.6f "
              "(rel %.2e)" % (a, b, lam, ref, rel))


def test_criterion_2_lattice_classification():
    # on an 8x8 lattice over [0.25, 2]^2, every point whose closed-form
    # eigenvalue is at least 0.05 away from 1 gets the verdict that the
    # closed-form threshold (2b/pi) tanh(2 pi a/b) < 1 dictates
    values = np.linspace(0.25, 2.0, 8)
    checked = 0
    for a in values:
        for b in values:
            ref = analytic_lambda1(a, b)
            if abs(ref - 1.0) <= 0.05:
                continue
            lam = numeric_lambda1(a, b, 64)
            verdict = ms.verdict_from_eigenvalue(lam)
            expected = "strictly_stable" if ref < 1.0 else "unstable"
            assert verdict == expected, (a, b, lam, ref, verdict)
            checked += 1
    assert checked >= 40
    print("[criterion 2] %d decisive lattice points classified "
          "consistently" % checked)


def test_criterion_3_mode_law():
    # Rayleigh quotients of the cosine modes cos(2 pi k x/b) reproduce the
    # closed form (2b/(k pi)) tanh(2 pi k a/b) within 2% each on a 128^2 grid
    a = b = 1.0
    _, curve, _, state, _ = flat_setup(a, b, 128)
    gram = ms.assemble_tilde_gram(curve)
    op = ms.TOperator(state, gram)
    x = curve.abscissae
    for k in (1, 2, 3):
        phi = np.cos(2 * k * math.pi * x / b)
        num = op.rayleigh(phi)
        ref = ms.mode_lambda(k, a, b)
        rel = abs(num - ref) / ref
        assert rel <= 0.02, (k, num, ref, rel)
        print("[criterion 3] mode %d: %.6f vs %.6f (rel %.2e)"
              % (k, num, ref, rel))


def test_criterion_4_variation_consistency():
    # at the unit critical pair: finite differences of the energy along
    # the sin(2 pi x) flow vanish at first order (<= 1e-4 F), match the
    # assembled second variation within 5%, and the assembled value
    # matches (1 - lambda1) * 2 pi^2 within 3%
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 48)
    grid = ms.Grid(48, 48)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, grid, psi)

    assert abs(report.fd.first) <= 1e-4 * report.base_energy
    assert report.mismatch <= 0.05
    closed = (1.0 - analytic_lambda1(1.0, 1.0)) * 2.0 * math.pi ** 2
    rel = abs(report.assembled.value - closed) / closed
    assert rel <= 0.03, (report.assembled.value, closed, rel)
    print("[criterion 4] g'(0) = %.2e, g''(0) = %.6f, assembled = %.6f, "
          "closed form = %.6f" % (report.fd.first, report.fd.second,
                                  report.assembled.value, closed))


def test_criterion_5_translation_invariance():
    # vertical translations leave the energy invariant: the sampled
    # energies agree to 1e-8 relative and the assembled form vanishes
    # on constants to assembly tolerance
    domain, curve, grid, state, _ = flat_setup(1.0, 1.0, 48)
    ones = np.ones(curve.m)
    flow = ms.FlowSpec(direction=ones, half_height=domain.half_height,
                       steps=(-0.01, -0.005, 0.0, 0.005, 0.01))
    _, gs = ms.energy_along_flow(domain, curve, flow, grid)
    assert np.max(np.abs(gs - gs[2])) <= 1e-8 * gs[2]

    gram = ms.assemble_tilde_gram(curve, restriction="none")
    result = ms.second_variation_value(state, gram, ones)
    assert abs(result.value) <= 1e-8
    print("[criterion 5] energy spread %.2e, d2F[1] = %.2e"
          % (np.max(np.abs(gs - gs[2])), result.value))


def test_criterion_6_segment_example():
    # straight segment between walls of curvature H1, H2: the assembled
    # form on the constant direction is -H1 - H2 exactly (pure assembly,
    # no field solve), and the verdicts follow the concave/convex split
    for h1, h2 in ((-1.0, -1.0), (1.0, 1.0), (0.5, -2.0)):
        seg = ms.SegmentConfig(1.0, h1, h2)
        gram = ms.assemble_tilde_gram(seg, restriction="none")
        ones = np.ones(gram.size)
        assert gram.form(ones) == pytest.approx(-h1 - h2, abs=1e-12)

    concave = ms.segment_min_eig(ms.SegmentConfig(1.0, -1.0, -1.0))
    convex = ms.segment_min_eig(ms.SegmentConfig(1.0, 1.0, 1.0))
    assert concave > 0.0
    assert convex < 0.0
    assert ms.verdict_from_min_eig(concave) == "strictly_stable"
    assert ms.verdict_from_min_eig(convex) == "unstable"
    print("[criterion 6] d2F[1] exact; min eig %.4f (concave) / %.4f "
          "(convex)" % (concave, convex))


def test_criterion_7_operator_properties():
    # T is symmetric and positive semidefinite in the scalar product of
    # the curve form, and the direct and dual routes to d2F agree to
    # 1e-6 relative, across 20 random directions on 3 configurations
    rng = np.random.default_rng(20250826)
    configs = []
    for a, b, amp in ((1.0, 1.0, 0.0), (1.0, 2.0, 0.0), (1.0, 1.0, 0.05)):
        domain = drift_domain(a, b)
        if amp == 0.0:
            curve = ms.flat_curve(b, 32)
        else:
            curve = ms.sinusoidal_curve(b, 32, mode=1, amplitude=amp)
        grid = ms.Grid(32, 32)
        state, _ = ms.solve_state(domain, curve, grid)
        gram = ms.assemble_tilde_gram(curve)
        configs.append((state, gram, ms.TOperator(state, gram)))

    for state, gram, op in configs:
        phis = []
        t_phis = []
        for _ in range(20):
            phi = gram.project(rng.standard_normal(gram.size))
            phi = phi / gram.norm(phi)
            t_phi, _ = op.apply(phi)
            value = gram.inner(t_phi, phi)
            assert value >= -1e-10
            phis.append(phi)
            t_phis.append(t_phi)
            result = ms.second_variation_value(state, gram, phi)
            assert result.mismatch <= 1e-6
        for i in range(0, 20, 2):
            lhs = gram.inner(t_phis[i], phis[i + 1])
            rhs = gram.inner(t_phis[i + 1], phis[i])
            assert abs(lhs - rhs) <= 1e-8
    print("[criterion 7] symmetry, positivity and two-route agreement "
          "hold on 3 configurations x 20 directions")


def test_criterion_8_duality_sign():
    # the primal eigenvalue and the dual minimum sit on opposite sides
    # of 1: sign(lambda1 - 1) = -sign(mu - 1) across the threshold
    for a, b in ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.5, 2.0)):
        _, curve, _, state, _ = flat_setup(a, b, 48)
        gram = ms.assemble_tilde_gram(curve)
        op = ms.TOperator(state, gram)
        lam, _ = ms.lambda1(op)
        mu_val, mu_stats = ms.mu(op)
        assert mu_stats.method != "none"
        assert math.copysign(1.0, lam - 1.0) == -math.copysign(1.0, mu_val - 1.0), \
            (a, b, lam, mu_val)
        print("[criterion 8] (a=%g, b=%g): lambda1 = %.4f, mu = %.4f"
              % (a, b, lam, mu_val))


def l2_error(numeric, exact):
    diff = np.asarray(numeric) - np.asarray(exact)
    return math.sqrt(float(np.mean(diff ** 2)))


def state_l2_error(n, a=1.0, b=1.0):
    # wall datum cos(2 pi x/b) above, zero below: the field is the
    # separated profile cos(kx) cosh(ky)/cosh(ka) on the upper side
    k = 2.0 * math.pi / b
    domain = ms.StripDomain(a, b, ms.BoundaryData(0.0, lambda x: np.cos(k * x)),
                            ms.BoundaryData(0.0))
    curve = ms.flat_curve(b, n)
    grid = ms.Grid(n, n)
    state, _ = ms.solve_state(domain, curve, grid)
    x = curve.abscissae
    y = a * np.arange(grid.ny + 1) / grid.ny
    exact = np.cos(k * x)[None, :] * np.cosh(k * y)[:, None] / math.cosh(k * a)
    return l2_error(np.vstack([state.w_upper, state.w_lower]),
                    np.vstack([exact, np.zeros_like(exact)]))


def jump_l2_error(n, a=1.0, b=1.0):
    domain = drift_domain(a, b)
    curve = ms.flat_curve(b, n)
    grid = ms.Grid(n, n)
    state, _ = ms.solve_state(domain, curve, grid)
    phi = np.cos(2.0 * math.pi * curve.abscissae / b)
    field, _ = ms.solve_jump_source(state, phi)
    ref = ms.strip_mode_field(1, 1.0 / math.cosh(2.0 * math.pi * a / b),
                              domain, grid)
    return l2_error(np.vstack([field.w_upper, field.w_lower]),
                    np.vstack([ref.w_upper, ref.w_lower]))


def test_criterion_9_solver_convergence():
    # L2 errors against separated-variable reference fields decay with
    # observed order >= 1.8 over grids 32 -> 64 -> 128, for both the
    # state solve and the jump-source transport solve
    for label, probe in (("state", state_l2_error), ("jump", jump_l2_error)):
        errs = [probe(n) for n in (32, 64, 128)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (label, errs, orders)
        print("[criterion 9] %s solve: errors %s, orders %s"
              % (label, ["%.3e" % e for e in errs],
                 ["%.3f" % o for o in orders]))
