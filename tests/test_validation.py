import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ms_stability as ms
from ms_stability import elliptic, validation
from ms_stability.errors import CurveEscapesStrip, InsufficientSamples

from conftest import drift_domain, flat_setup


# ------------------------------------------------- fd_derivatives alone

def test_fd_exact_on_quartic_polynomial():
    h = 0.01
    ts = np.array([-2 * h, -h, 0.0, h, 2 * h])
    gs = 3.0 - 2.0 * ts + 5.0 * ts ** 2 + ts ** 3 - 4.0 * ts ** 4
    fd = ms.fd_derivatives(ts, gs)
    # Richardson over two scales cancels the h^2 term; for a quartic the
    # remaining h^4 error term vanishes too.
    assert fd.first == pytest.approx(-2.0, abs=1e-10)
    assert fd.second == pytest.approx(10.0, abs=1e-7)


def test_fd_on_cosine_with_error_bars():
    h = 0.01
    ts = np.array([-2 * h, -h, 0.0, h, 2 * h])
    gs = np.cos(1.7 * ts)
    fd = ms.fd_derivatives(ts, gs)
    err_first = abs(fd.first - 0.0)
    err_second = abs(fd.second + 1.7 ** 2)
    assert err_first <= 1e-12
    assert err_second <= 1e-8
    assert err_second <= fd.second_error  # bar dominated by the h^2 term
    assert fd.steps == (h, 2 * h)


def test_fd_accepts_extra_scales_and_uses_smallest():
    h = 0.02
    ts = np.array([-4 * h, -2 * h, -h, 0.0, h, 2 * h, 4 * h])
    gs = np.sin(ts) + 0.5 * ts ** 2
    fd = ms.fd_derivatives(ts, gs)
    assert fd.steps == (h, 2 * h)
    assert fd.first == pytest.approx(1.0, abs=1e-7)  # h^4 term of sin at h=0.02
    assert fd.second == pytest.approx(1.0, abs=1e-6)


def test_fd_sample_validation():
    with pytest.raises(InsufficientSamples):
        ms.fd_derivatives([0.0, 0.01, -0.01], [1.0, 1.0, 1.0])
    with pytest.raises(InsufficientSamples):  # no zero sample
        ms.fd_derivatives([-0.02, -0.01, 0.005, 0.01, 0.02], np.ones(5))
    with pytest.raises(InsufficientSamples):  # asymmetric pairs
        ms.fd_derivatives([-0.03, -0.01, 0.0, 0.01, 0.02], np.ones(5))
    with pytest.raises(InsufficientSamples):  # length mismatch
        ms.fd_derivatives([0.0, 0.01], [1.0])


def test_fd_refuses_step_sizes_within_rounding():
    h1, h2 = 0.01, 0.01 * (1.0 + 1e-13)
    with pytest.raises(InsufficientSamples, match="step sizes must be distinct"):
        ms.fd_derivatives([-h2, -h1, 0.0, h1, h2], np.ones(5))


# ------------------------------------------------------ criticality

def test_flat_drift_pair_is_critical(unit_strip_state):
    _, curve, grid, state, _ = unit_strip_state
    report = ms.criticality_residuals(state)
    assert report.sup_residual < 1e-10
    assert report.min_jump == pytest.approx(1.0, abs=1e-10)
    assert report.argmin_jump == 0.0
    assert report.jump_ok


def test_zero_data_trips_jump_flag():
    domain = ms.StripDomain(1.0, 1.0, ms.BoundaryData(0.0), ms.BoundaryData(0.0))
    state, _ = ms.solve_state(domain, ms.flat_curve(1.0, 16), ms.Grid(16, 16))
    report = ms.criticality_residuals(state)
    assert report.min_jump == 0.0
    assert not report.jump_ok


def test_bent_curve_breaks_criticality():
    # Frozen reference: sup |f| = 0.7465 for the 0.05 sin bump on the
    # unit strip at m = 128 (0.7472 at 64, 0.7463 at 256); central
    # differences of the energy give f on this curve to 1.2e-3 at 32.
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 128, mode=1, amplitude=0.05)
    state, _ = ms.solve_state(domain, curve, ms.Grid(128, 128))
    report = ms.criticality_residuals(state)
    assert report.sup_residual == pytest.approx(0.7465, rel=1e-2)
    assert report.jump_ok


def overtone_domain(cos_top, sin_top, cos_bottom, sin_bottom):
    """Unit strip with the canonical drifts plus one cos/sin overtone on
    each wall: mode 1 above and mode 2 below."""
    def top(x):
        k = 2.0 * np.pi * x
        return 1.0 + cos_top * np.cos(k) + sin_top * np.sin(k)

    def bottom(x):
        k = 4.0 * np.pi * x
        return cos_bottom * np.cos(k) + sin_bottom * np.sin(k)

    return ms.StripDomain(1.0, 1.0, ms.BoundaryData(1.0, top),
                          ms.BoundaryData(-1.0, bottom))


@settings(max_examples=6, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.floats(0.02, 0.1),
       st.none() | st.tuples(*[st.floats(-0.3, 0.3)] * 4),
       st.sampled_from([24, 32]))
def test_residual_is_the_energy_gradient(coefs, amplitude, overtones, n):
    # The first variation of the total energy in the height of node i is
    # hx * f_i: central differences of total_energy (step 1e-6) against
    # the residual's trace gradients and curvature.  Over random draws of
    # this family the two differ by at most 0.15 max |g| at 24^2 and 0.1
    # max |g| at 32^2, falling at about second order; the opposite sign
    # on H misses by more than 2 max |g|.
    assume(max(abs(c) for c in coefs) >= 0.1)
    domain = drift_domain(1.0, 1.0) if overtones is None else overtone_domain(*overtones)
    x = np.arange(n) / n
    psi = sum(c * np.cos(2.0 * np.pi * k * x) + s * np.sin(2.0 * np.pi * k * x)
              for k, c, s in zip((1, 2, 3), coefs[0::2], coefs[1::2]))
    psi *= amplitude / np.max(np.abs(psi))
    grid, delta = ms.Grid(n, n), 1e-6
    state, _ = ms.solve_state(domain, ms.GraphCurve(1.0, psi), grid)
    f = ms.criticality_residuals(state).residuals
    g = np.empty(n)
    for i in range(n):
        bump = np.zeros(n)
        bump[i] = delta
        up = ms.total_energy(domain, ms.GraphCurve(1.0, psi + bump), grid)
        down = ms.total_energy(domain, ms.GraphCurve(1.0, psi - bump), grid)
        g[i] = (up - down) / (2.0 * delta) * n  # divided by hx = 1 / n
    assert np.max(np.abs(g - f)) <= 0.25 * np.max(np.abs(g))


# ------------------------------------------------- energy along flows

def test_translation_flow_keeps_energy_constant():
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 32)
    flow = ms.FlowSpec(direction=np.ones(32), half_height=1.0,
                       steps=(-0.05, -0.025, 0.0, 0.025, 0.05))
    ts, gs = ms.energy_along_flow(domain, curve, flow, ms.Grid(32, 32))
    g0 = gs[ts == 0.0][0]
    assert g0 == pytest.approx(3.0, rel=1e-12)  # 2ab + b
    assert np.max(np.abs(gs - g0)) <= 1e-8 * abs(g0)
    fd = ms.fd_derivatives(ts, gs)
    assert abs(fd.first) <= 1e-7
    assert abs(fd.second) <= 1e-5


def test_energy_along_flow_is_deterministic():
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 24, mode=1, amplitude=0.05)
    flow = ms.FlowSpec(direction=np.cos(2 * np.pi * np.arange(24) / 24.0),
                       half_height=1.0, steps=(-0.01, 0.0, 0.01))
    first = ms.energy_along_flow(domain, curve, flow, ms.Grid(24, 24))
    second = ms.energy_along_flow(domain, curve, flow, ms.Grid(24, 24))
    np.testing.assert_array_equal(first[1], second[1])


def flow_cases():
    """(domain, curve, flow, grid) with a curved base, asymmetric steps
    that include 0, overtone walls, nx != ny and a repeated step; the last
    two have flat bases (FLAT_FLOW_CASES), the last at a nonzero height
    with 0 and a repeated step among its steps."""
    x24 = np.arange(24) / 24.0
    yield (drift_domain(1.0, 1.0),
           ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.05),
           ms.FlowSpec(direction=np.cos(2.0 * np.pi * np.arange(32) / 32.0),
                       half_height=1.0, steps=(0.02, -0.004, 0.0, 0.01)),
           ms.Grid(32, 32))
    yield (overtone_domain(0.2, -0.1, 0.15, 0.05),
           ms.GraphCurve(1.0, 0.04 * np.sin(4.0 * np.pi * x24)),
           ms.FlowSpec(direction=np.cos(2.0 * np.pi * x24) + 0.5,
                       half_height=1.0,
                       steps=(-0.01, 0.01, 0.01, -0.02, 0.03)),
           ms.Grid(24, 40))
    yield (overtone_domain(0.0, 0.3, -0.2, 0.0), ms.flat_curve(1.0, 16),
           ms.FlowSpec(direction=np.sin(2.0 * np.pi * np.arange(16) / 16.0),
                       half_height=1.0, steps=(0.01, 0.01)),
           ms.Grid(16, 20))
    yield (overtone_domain(0.2, -0.1, 0.15, 0.05),
           ms.GraphCurve(1.0, np.full(24, 0.1)),
           ms.FlowSpec(direction=np.cos(2.0 * np.pi * x24) + 0.5,
                       half_height=1.0,
                       steps=(0.0, -0.01, 0.02, 0.0, -0.01, 0.03)),
           ms.Grid(24, 40))


FLAT_FLOW_CASES = (2, 3)


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("with_base", [False, True])
def test_energy_along_flow_is_the_total_energy_of_each_flowed_curve(case,
                                                                    with_base):
    # Each side runs its own sequence of half-strip solves, each started
    # from an extrapolation of the earlier ones (and of the base state's
    # unknowns when given): a start moves the energy only within solver
    # accuracy, and the first solve of a side without a base starts cold.
    domain, curve, flow, grid = list(flow_cases())[case]
    base = None
    if with_base:
        state, _ = ms.solve_state(domain, curve, grid)
        base = (state.w_upper[:-1].ravel(), state.w_lower[:-1].ravel())
    ts, gs = ms.energy_along_flow(domain, curve, flow, grid, base=base)
    assert ts.tolist() == list(flow.steps)
    refs = [ms.total_energy(domain, ms.flow_curve(curve, flow, t), grid)
            for t in ts]
    for g, ref in zip(gs, refs):
        assert abs(g - ref) <= 1e-12 * abs(ref)
    if not with_base:
        first = int(np.argmin(np.abs(ts)))
        assert gs[first] == refs[first]


@pytest.mark.parametrize("case", FLAT_FLOW_CASES)
def test_energy_along_flow_with_a_rate_is_the_total_energy(case):
    # The Hermite start skips the t = 0 pairs (the base itself, or its
    # re-solve) and keeps one pair per time, where (w - u0 - t rate) / t^2
    # would divide by zero; a start moves each energy only within solver
    # accuracy.
    domain, curve, flow, grid = list(flow_cases())[case]
    state, _ = ms.solve_state(domain, curve, grid)
    gram = ms.assemble_tilde_gram(curve, "none")
    _, vfield = ms.second_variation_value(state, gram, flow.direction,
                                          with_field=True)
    rate = ms.flow_rates(state, vfield, flow.direction)
    base = (state.w_upper[:-1].ravel(), state.w_lower[:-1].ravel())
    ts, gs = ms.energy_along_flow(domain, curve, flow, grid, base=base,
                                  rate=rate)
    assert ts.tolist() == list(flow.steps)
    for t, g in zip(ts, gs):
        ref = ms.total_energy(domain, ms.flow_curve(curve, flow, t), grid)
        assert abs(g - ref) <= 1e-12 * abs(ref)


def test_a_rate_needs_the_base():
    domain, curve, flow, grid = list(flow_cases())[2]
    rate = (np.zeros(grid.nx * grid.ny),) * 2
    with pytest.raises(ValueError, match="needs the base"):
        ms.energy_along_flow(domain, curve, flow, grid, rate=rate)


def test_starts_are_exact_on_polynomials():
    # Lagrange through four times reproduces a cubic; the Hermite start
    # u0 + t rate + t^2 q(t), q through the pairs at s != 0, reproduces a
    # quartic from three of them, whatever the t = 0 pair holds.
    coef = np.random.default_rng(5).standard_normal((5, 3))

    def w(t):
        return coef.T @ t ** np.arange(5)

    times = (-0.01, 0.01, -0.02)
    t = 0.02
    quartic = [(0.0, np.full(3, 7.0))] + [(s, w(s)) for s in times]
    start = validation._start(quartic, t, hermite=(w(0.0), coef[1]))
    np.testing.assert_allclose(start, w(t), rtol=1e-12)
    coef[4] = 0.0
    cubic = [(0.0, w(0.0))] + [(s, w(s)) for s in times]
    np.testing.assert_allclose(validation._start(cubic, t), w(t), rtol=1e-12)
    # at a solved time the start is that solution; with nothing solved it
    # is the tangent, or None without a rate
    assert validation._start([(0.01, w(0.01))], 0.01,
                             hermite=(w(0.0), coef[1])) == \
        pytest.approx(w(0.01), rel=1e-14)
    assert validation._start([], 0.01, hermite=(w(0.0), coef[1])) == \
        pytest.approx(w(0.0) + 0.01 * coef[1], rel=1e-15)
    assert validation._start([], 0.01) is None


def flow_derivative(domain, curve, grid, phi):
    """(transport field, flow_rates, central difference of the flowed
    unknowns) on each side, upper first, at rtol 1e-13 and step 1e-4: the
    transport solve on the base mesh against re-solves on flowed meshes."""
    rtol, h = 1e-13, 1e-4
    state, _ = ms.solve_state(domain, curve, grid, rtol=rtol)
    _, vfield = ms.second_variation_value(
        state, ms.assemble_tilde_gram(curve, "none"), phi, rtol=rtol,
        with_field=True)
    rates = ms.flow_rates(state, vfield, phi)
    flow = ms.FlowSpec(direction=phi, half_height=domain.half_height)
    out = []
    for k, side in enumerate(("upper", "lower")):
        up, down = (elliptic.side_energy(domain, ms.flow_curve(curve, flow, t),
                                         grid, side, rtol=rtol)[1]
                    for t in (h, -h))
        out.append((vfield._pick(side)[1][:-1].ravel(), rates[k],
                    (up - down) / (2.0 * h)))
    return out


def relative_gap(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_transport_field_is_the_derivative_of_the_flowed_state():
    # On the canonical flat pair u0 does not vary across the rows (up to
    # rounding), so the rows' motion adds nothing and each side's transport
    # field is the derivative of its unknowns along the flow (measured gap
    # 9.9e-8, the finite difference's own error).
    x = np.arange(64) / 64.0
    for v, rate, fd in flow_derivative(drift_domain(1.0, 1.0),
                                       ms.flat_curve(1.0, 64), ms.Grid(64, 64),
                                       np.sin(2.0 * np.pi * x)):
        assert relative_gap(rate, v) <= 1e-12
        assert relative_gap(v, fd) <= 1e-6


def raised_overtone_pair():
    return (overtone_domain(0.2, -0.1, 0.15, 0.05),
            ms.GraphCurve(1.0, np.full(64, 0.1)))


@pytest.mark.parametrize("pair", ["top", "both"])
def test_flow_rate_carries_the_rows_motion(pair):
    # Under an overtone wall u0 varies across the rows, and the rate
    # v_phi + V d_y u0 matches the flowed re-solves to discretization
    # accuracy where v_phi alone does not.  Measured at 64^2, upper then
    # lower: cos overtone 0.2 on the top wall of a = 0.7, b = 2, rate gaps
    # 1.1e-4 and 2.6e-8 against 4.9e-2 and 2.6e-8 for v_phi (the lower
    # datum has no overtone); overtones on both walls around the flat
    # curve at height 0.1, 8.7e-5 and 2.5e-4 against 6.6e-2 and 5.2e-2.
    if pair == "top":
        domain = ms.StripDomain(
            0.7, 2.0, ms.BoundaryData(1.0, lambda x: 1.0 + 0.2 * np.cos(np.pi * x)),
            ms.BoundaryData(-1.0))
        curve = ms.flat_curve(2.0, 64)
    else:
        domain, curve = raised_overtone_pair()
    phi = np.sin(2.0 * np.pi * curve.abscissae / curve.period)
    sides = flow_derivative(domain, curve, ms.Grid(64, 64), phi)
    for k, (v, rate, fd) in enumerate(sides):
        assert relative_gap(rate, fd) <= 1e-3
        if pair == "both" or k == 0:
            assert relative_gap(v, fd) >= 1e-2


def curved_rate_gaps(n):
    """Relative gaps to the central difference of the flowed unknowns on
    the sine curve of mode 1 and amplitude 0.05 under the canonical walls,
    upper then lower, of four rates v + V d_y u0: v the transport field at
    the vertical phi or at its normal component phi_n = phi / sqrt(1 +
    psi'^2), and d_y u0 on the row spacing of column 0 or on each column's
    own, (a -+ psi_i) / ny.  Keyed (field, spacing); ("vertical",
    "shared") is flow_rates itself."""
    rtol, h = 1e-13, 1e-4
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, n, mode=1, amplitude=0.05)
    grid = ms.Grid(n, n)
    phi = np.sin(2.0 * np.pi * curve.abscissae)
    state, _ = ms.solve_state(domain, curve, grid, rtol=rtol)
    gram = ms.assemble_tilde_gram(curve, "none")
    fields = {
        name: ms.second_variation_value(state, gram, p, rtol=rtol,
                                        with_field=True)[1]
        for name, p in (("vertical", phi),
                        ("normal", phi / np.sqrt(1.0 + curve.derivatives[0] ** 2)))}
    flow = ms.FlowSpec(direction=phi, half_height=domain.half_height)
    speed = np.outer(1.0 - np.arange(n + 1) / n, phi)   # 0 on the wall row
    library = ms.flow_rates(state, fields["vertical"], phi)
    gaps = {}
    for k, (side, sign) in enumerate((("upper", 1.0), ("lower", -1.0))):
        up, down = (elliptic.side_energy(domain, ms.flow_curve(curve, flow, t),
                                         grid, side, rtol=rtol)[1]
                    for t in (h, -h))
        fd = (up - down) / (2.0 * h)
        rows = np.gradient(state._pick(side)[1], axis=0, edge_order=2) * n
        rates = {("vertical", "shared"): library[k]}
        for name, spacing in (("vertical", "own"), ("normal", "shared"),
                              ("normal", "own")):
            height = 1.0 - sign * (curve.heights if spacing == "own"
                                   else curve.heights[0])
            rate = fields[name]._pick(side)[1] + sign * speed * rows / height
            rates[name, spacing] = rate[:-1].ravel()
        for key, rate in rates.items():
            gaps.setdefault(key, []).append(relative_gap(rate, fd))
    return gaps


def test_curved_flow_rate_needs_the_normal_component_and_own_spacing():
    # On a curved base the mesh rows of column i are (a -+ psi_i) / ny
    # apart, and the transport field is the state's derivative under the
    # normal displacement phi_n, not under the vertical phi.  With both,
    # the rate meets the flowed states at about second order (measured
    # 3.3e-3 at 32^2, 9.6e-4 at 64^2 and 2.7e-4 at 128^2, both sides).
    # flow_rates, at the vertical phi on column 0's spacing, misses them
    # by 2.4e-2 on every grid; at 64^2 the own spacing alone leaves 2.41e-2
    # and phi_n alone 8.7e-3, so the normal component is most of the gap.
    coarse, fine = curved_rate_gaps(32), curved_rate_gaps(64)
    for gaps in (coarse, fine):
        assert min(gaps["vertical", "shared"]) >= 2e-2
        assert min(gaps["vertical", "own"]) >= 2e-2
        assert min(gaps["normal", "shared"]) >= 5e-3
    assert max(coarse["normal", "own"]) <= 4e-3
    assert max(fine["normal", "own"]) <= 1.2e-3
    for c, f in zip(coarse["normal", "own"], fine["normal", "own"]):
        assert math.log2(c / f) >= 1.6


def test_flow_escape_propagates():
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 16)
    flow = ms.FlowSpec(direction=np.ones(16), half_height=1.0, steps=(0.0, 1.2))
    with pytest.raises(CurveEscapesStrip):
        ms.energy_along_flow(domain, curve, flow, ms.Grid(16, 16))


# ------------------------------------------- assembled vs finite diffs

def test_validate_second_variation_flat_mode():
    domain = drift_domain(1.0, 1.0)
    curve = ms.flat_curve(1.0, 48)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, ms.Grid(48, 48), psi)
    assert report.first_ok
    assert report.second_ok
    assert not report.non_critical
    assert report.mismatch < 1e-5
    assert report.assembled.mismatch < 1e-10
    assert report.base_energy == pytest.approx(3.0, rel=1e-12)
    assert report.passed


def test_validate_solves_the_base_curve_once(monkeypatch):
    # One base solve plus four flowed curves, two components each; the
    # t = 0 sample is the base energy itself, not a re-solve of it.
    built = []
    init = elliptic._Component.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(elliptic._Component, "__init__", counting_init)
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.05)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, ms.Grid(32, 32), psi)
    assert len(built) == 10
    assert report.gs[report.ts == 0.0].tolist() == [report.base_energy]
    total = ms.total_energy(domain, curve, ms.Grid(32, 32))
    assert total == report.base_energy


@pytest.mark.parametrize("amplitude", [0.0, 0.05])
def test_validate_t0_sample_is_a_fresh_solve(amplitude):
    # validate inserts its base energy as the t = 0 sample; that is the
    # same float a fresh solve of the unflowed curve gives
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=amplitude)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, ms.Grid(32, 32), psi)
    assert report.ts[2] == 0.0
    assert report.gs[2] == ms.total_energy(domain, curve, ms.Grid(32, 32))


def test_validate_keeps_one_component_alive(monkeypatch):
    # The base state is used up before the flow starts, and the flow
    # builds, solves and drops one half strip at a time: whenever a flowed
    # _Component is built, every earlier one, the base system's included,
    # has already been collected.
    built, alive_at = [], []
    init = elliptic._Component.__init__

    def recording_init(self, *args, **kwargs):
        alive_at.append([k for k, ref in enumerate(built) if ref() is not None])
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(elliptic._Component, "__init__", recording_init)
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.05)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    ms.validate_second_variation(domain, curve, ms.Grid(32, 32), psi)
    assert len(built) == 10  # two base sides, then four steps a side
    assert alive_at[:2] == [[], [0]]
    assert alive_at[2:] == [[]] * 8


def flowed_iterations(monkeypatch, domain, curve, grid, psi):
    """(report, CG iterations of each flowed half-strip solve) of
    validate_second_variation with the flow psi."""
    iterations, in_flow = [], []
    solve, flow = elliptic._Component.solve, validation.energy_along_flow

    def counting_solve(self, *args, **kwargs):
        x, stats = solve(self, *args, **kwargs)
        if in_flow:
            iterations.append(stats.iterations)
        return x, stats

    def marked_flow(*args, **kwargs):
        in_flow.append(True)
        try:
            return flow(*args, **kwargs)
        finally:
            in_flow.clear()

    monkeypatch.setattr(elliptic._Component, "solve", counting_solve)
    monkeypatch.setattr(validation, "energy_along_flow", marked_flow)
    report = ms.validate_second_variation(domain, curve, grid, psi)
    return report, iterations


def test_validate_flow_starts_its_solves_from_extrapolations(monkeypatch):
    # validate at 256^2 on the flat unit strip with the default sine flow:
    # started from the base state and from Hermite extrapolations along
    # the flow's rate, the eight flowed half-strip solves take 18 CG
    # iterations in all (2, 1, 1, 2 upper; 4, 3, 3, 2 lower), where
    # Lagrange extrapolations of the solutions alone take 27.
    curve = ms.flat_curve(1.0, 256)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report, iterations = flowed_iterations(
        monkeypatch, drift_domain(1.0, 1.0), curve, ms.Grid(256, 256), psi)
    assert report.passed
    assert len(iterations) == 8
    assert sum(iterations) <= 20


def test_curved_flow_starts_are_no_slower(monkeypatch):
    # A curved base gets no rate (there flow_rates misses the flowed
    # states by 2e-2 and more), and Lagrange starts through up to four
    # solved times take 49 iterations here, 52 through three.
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.05)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    _, iterations = flowed_iterations(
        monkeypatch, drift_domain(1.0, 1.0), curve, ms.Grid(32, 32), psi)
    assert len(iterations) == 8
    assert sum(iterations) <= 52


@pytest.mark.parametrize("flat", [True, False])
def test_validate_makes_one_transport_solve(monkeypatch, flat):
    # The flow's rate comes from the transport field of the assembled
    # value, not from a second solve.
    calls = []
    solve = elliptic.solve_jump_source

    def counting_solve(*args, **kwargs):
        calls.append(True)
        return solve(*args, **kwargs)

    monkeypatch.setattr(elliptic, "solve_jump_source", counting_solve)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.0 if flat else 0.05)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    ms.validate_second_variation(drift_domain(1.0, 1.0), curve,
                                 ms.Grid(32, 32), psi)
    assert len(calls) == 1


def test_validate_with_a_rate_keeps_one_component_alive(monkeypatch):
    # As test_validate_keeps_one_component_alive, on a flat base, whose
    # flow carries the rate: the rate is two vectors, not the transport
    # field, which would keep the base system alive through the flow.
    built, alive_at = [], []
    init = elliptic._Component.__init__

    def recording_init(self, *args, **kwargs):
        alive_at.append([k for k, ref in enumerate(built) if ref() is not None])
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(elliptic._Component, "__init__", recording_init)
    domain, curve = raised_overtone_pair()
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    ms.validate_second_variation(domain, curve, ms.Grid(64, 32), psi)
    assert len(built) == 10
    assert alive_at[:2] == [[], [0]]
    assert alive_at[2:] == [[]] * 8


def test_validate_flags_non_critical_configuration():
    domain = drift_domain(1.0, 1.0)
    curve = ms.sinusoidal_curve(1.0, 32, mode=1, amplitude=0.08)
    psi = np.sin(2.0 * math.pi * curve.abscissae)
    report = ms.validate_second_variation(domain, curve, ms.Grid(32, 32), psi)
    assert report.non_critical  # transmission residual is O(1) here
    # g'(0) is genuinely nonzero away from criticality
    assert abs(report.fd.first) > 1e-3


def test_total_energy_matches_components(unit_strip_state):
    domain, curve, grid, state, _ = unit_strip_state
    total = ms.total_energy(domain, curve, grid)
    assert total == pytest.approx(
        ms.dirichlet_energy(state) + ms.curve_length(curve), rel=1e-12)


# ------------------------------------- lambda_1 read back from the energy

# Flat critical pairs with lambda_1 below and above 1.
ENERGY_PAIRS = ((1.0, 1.0), (1.0, 2.0), (0.5, 2.2), (0.7, 1.3), (0.25, 4.0))


def energy_ratio(a, b, phi, n=32):
    """(g''(0) / ||phi||~^2, the pencil's lambda_1) on the flat pair (a, b).

    g(t) is the total energy along the flow t phi, re-solved at each t on
    the flowed, curved mesh, and g''(0) its Richardson-extrapolated
    central difference: finite differences of the Dirichlet energy, a
    different algebra from the pencil.  At a critical pair
    g''(0) = ||phi||~^2 - (T phi, phi)~, so the ratio is 1 minus a
    Rayleigh quotient of T.
    """
    domain, curve, grid = drift_domain(a, b), ms.flat_curve(b, n), ms.Grid(n, n)
    step = 5e-3
    flow = ms.FlowSpec(direction=phi, half_height=a,
                       steps=(-2.0 * step, -step, 0.0, step, 2.0 * step))
    ts, gs = ms.energy_along_flow(domain, curve, flow, grid)
    norm_sq = ms.assemble_tilde_gram(curve, "none").form(phi)
    state, _ = ms.solve_state(domain, curve, grid)
    lam, _ = ms.lambda1(ms.TOperator(state, ms.assemble_tilde_gram(curve)))
    return ms.fd_derivatives(ts, gs).second / norm_sq, lam


@pytest.mark.parametrize("a, b", ENERGY_PAIRS)
def test_lambda1_reads_back_from_the_energy(a, b):
    # Along the leading direction the Rayleigh quotient is lambda_1 itself
    # (measured differences 2.4e-10 to 1.1e-7).
    x = np.arange(32) * (b / 32)
    ratio, lam = energy_ratio(a, b, 0.05 * a * np.cos(2.0 * math.pi * x / b))
    assert 1.0 - ratio == pytest.approx(lam, abs=1e-6)


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(ENERGY_PAIRS),
       st.lists(st.integers(-4, 4), min_size=8, max_size=8))
def test_energy_curvature_is_bounded_by_lambda1(pair, coef):
    # T is positive semidefinite and lambda_1 is its largest Rayleigh
    # quotient, so every smooth mean-zero phi (Fourier modes 1-4, scaled to
    # amplitude 0.05 a) gives 1 - lambda_1 <= g''(0) / ||phi||~^2 <= 1.
    assume(any(coef))
    a, b = pair
    x = np.arange(32) * (b / 32)
    phi = sum(coef[2 * k] * np.cos(2.0 * math.pi * (k + 1) * x / b)
              + coef[2 * k + 1] * np.sin(2.0 * math.pi * (k + 1) * x / b)
              for k in range(4))
    ratio, lam = energy_ratio(a, b, 0.05 * a * phi / np.max(np.abs(phi)))
    assert 1.0 - lam - 1e-6 <= ratio <= 1.0 + 1e-6
