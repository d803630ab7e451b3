"""Second-variation quadratic form and its spectral stability test.

For a curve perturbation phi the quadratic form splits as

    d2F[phi] = ||phi||~^2 - (T phi, phi)~

where ||.||~ is the curve scalar product (tangential stiffness plus a
squared-curvature mass term) and T is the compact nonlocal operator
obtained by solving the jump-transport problem for phi and pairing the
resulting bulk field back against the curve.  Strict stability of the
critical pair is equivalent to lambda_1(T) < 1, and dually to mu > 1
where mu minimizes twice the bulk energy over fields whose induced
perturbation has unit curve norm.

Loads of the jump-transport problem act on the curve row only, so
(T phi, psi)~ = psi . A phi with the dense m x m matrix

    A = 2 sum_+- C+-^T (a_uu+-^-1)_00 C+-,

where C+- are the coupling matrices and (a_uu^-1)_00 is the curve-row
block of each side's inverse stiffness.  TOperator builds A once (the
block from the flat-strip Fourier symbol on a flat curve, by a sweep over
the grid rows on a curved one; C+- enter by their element coefficients
in O(m^2)).  A translation-invariant pair (a flat curve, walls with
constant periodic parts, the mean_zero restriction) has circulant A and
G, and its spectrum is the ratio of their Fourier symbols, in O(m) with
no A formed.  Every other pencil, the segment's P1 pencil (P = I)
included, goes through one whitening W = L^-1 P^T (L L^T = P^T G P):
W G W^T = I, so (P^T A P, P^T G P) has the spectrum of W A W^T, one
eigvalsh.  Either route gives both eigenvalues: lambda_1 is the top one
and mu = 1 / lambda_1, algebraically tied rather than independent
evidence.  TOperator.apply, rayleigh and second_variation_value share
one matrix-free step (a CG transport solve and its pairing) with the
same assembled stiffness that A is built from: an implementation check
of A, not independent evidence.
"""

import functools
import math

import numpy as np

from . import elliptic, geometry
from ._record import Record
from .errors import DegeneratePencil, GramSingular, InvalidRestriction

RESTRICTIONS = ("mean_zero", "endpoint_zero", "none")
# One home for the library's and the config's defaults and floors.
SEGMENT_NODES = 128  # nodes of the segment's P1 mesh
MIN_SEGMENT_NODES = 16
DEFAULT_BAND = 0.02  # half width of the marginal verdict band around 1


def _whitening(reduced, basis_t, restriction):
    """W = L^-1 P^T, (k, m), from reduced = P^T G P = L L^T and basis_t =
    P^T, by one solve with the factor; raises GramSingular unless reduced
    is positive definite."""
    try:
        low = np.linalg.cholesky(reduced)
    except np.linalg.LinAlgError as exc:
        raise GramSingular(
            "scalar product is not positive definite under "
            "restriction %r" % restriction
        ) from exc
    # Cholesky can numerically succeed on a singular form (the zero pivot
    # lands on rounding noise); reject those too.
    pivots = np.abs(np.diag(low))
    if pivots.size and (pivots.min() / pivots.max()) ** 2 < 1e-12:
        raise GramSingular(
            "scalar product is numerically singular under "
            "restriction %r" % restriction
        )
    return np.linalg.solve(low, basis_t)


def pencil_eigenvalues(a, b):
    """Eigenvalues, ascending, of the symmetric-definite pencil (a, b).

    The whitening of TildeGram with P = I: W = L^-1 with b = L L^T, then
    the eigenvalues of W a W^T.  Raises GramSingular when b is not
    positive definite.
    """
    whiten = _whitening(b, np.eye(b.shape[0]), "none")
    return np.linalg.eigvalsh(whiten @ a @ whiten.T)


class TildeGram(Record):
    """Curve scalar product matrix with an optional subspace restriction.

    matrix is the full m x m form.  The basis P, orthonormal columns
    spanning the restricted subspace, and the whitening are built on
    first use, as the Fourier symbol route reads neither.  The whitening
    factors P^T G P = L L^T (raising GramSingular unless positive definite
    there) and forms W = L^-1 P^T once: W G W^T = I, (G y, .) = r solves
    as y = W^T W r, and a pencil (P^T A P, P^T G P) reduces to W A W^T.
    """

    kind: str
    matrix: np.ndarray
    weights: np.ndarray
    restriction: str

    def __post_init__(self):
        if self.restriction not in RESTRICTIONS:
            raise InvalidRestriction(
                "unknown restriction %r; expected one of %s"
                % (self.restriction, (RESTRICTIONS,)))

    @functools.cached_property
    def basis(self):
        m = self.weights.size
        if self.restriction == "none":
            return np.eye(m)
        if self.restriction == "mean_zero":
            # Orthogonal complement of the quadrature weight vector: full
            # QR of the single column gives a deterministic completion.
            q, _ = np.linalg.qr(self.weights.reshape(-1, 1), mode="complete")
            return q[:, 1:]
        # endpoint_zero; on the strip the period seam x = 0 is the endpoint
        return np.eye(m)[:, 1:m if self.kind == "strip" else m - 1]

    @property
    def size(self):
        return self.matrix.shape[0]

    def form(self, phi):
        """Quadratic form ||phi||~^2 of an arbitrary perturbation."""
        phi = np.asarray(phi, dtype=float)
        return float(phi @ self.matrix @ phi)

    def inner(self, phi, psi):
        return float(np.asarray(phi) @ self.matrix @ np.asarray(psi))

    def norm(self, phi):
        val = self.form(phi)
        return math.sqrt(max(val, 0.0))

    def project(self, vec):
        """Euclidean projection onto the restriction subspace."""
        return self.basis @ (self.basis.T @ np.asarray(vec, dtype=float))

    @functools.cached_property
    def whitening(self):
        """W = L^-1 P^T, (k, m), with L L^T = P^T G P; computed once, and
        raises GramSingular."""
        return _whitening(self.basis.T @ self.matrix @ self.basis,
                          self.basis.T, self.restriction)

    def apply_inverse(self, rhs):
        """Solve (G y, .) = rhs on the subspace; returns y as a full vector."""
        whiten = self.whitening
        return whiten.T @ (whiten @ np.asarray(rhs, float))


def _segment_p1(config, m):
    """(form, stiffness, mass) of P1 elements on m >= MIN_SEGMENT_NODES
    nodes of [0, L]: sums of the element matrices [[1, -1], [-1, 1]] / h
    and [[2, 1], [1, 2]] h / 6; the form is the stiffness minus the
    endpoint curvature terms."""
    if m < MIN_SEGMENT_NODES:
        raise ValueError("segment needs at least %d nodes" % MIN_SEGMENT_NODES)
    h = config.length / (m - 1)
    count = np.full(m, 2.0)  # elements meeting at each node
    count[0] = count[-1] = 1.0
    adjacent = np.eye(m, k=1) + np.eye(m, k=-1)
    stiff = (np.diag(count) - adjacent) / h
    mass = (np.diag(2.0 * count) + adjacent) * h / 6.0
    form = stiff.copy()
    form[0, 0] -= config.h1
    form[-1, -1] -= config.h2
    return form, stiff, mass


def assemble_tilde_gram(config, restriction=None):
    """Build the curve scalar product for a strip curve or a segment.

    config is a GraphCurve (periodic strip case: tangential P1 stiffness
    on arclength plus the squared-curvature mass by trapezoid weights)
    or a SegmentConfig (P1 stiffness on [0, L] minus the endpoint
    curvature terms on SEGMENT_NODES nodes; a strip curve brings its
    own).  Default restriction is mean_zero for the strip and none for
    the segment.
    """
    if isinstance(config, geometry.GraphCurve):
        if restriction is None:
            restriction = "mean_zero"
        curve = config
        ell = geometry.element_lengths(curve)
        weights = geometry.nodal_arclengths(curve)
        mm = curve.m
        mat = np.zeros((mm, mm))
        i = np.arange(mm)
        ip = (i + 1) % mm
        inv_ell = 1.0 / ell
        # each line's (row, column) pairs are distinct, as += requires
        mat[i, i] += inv_ell
        mat[ip, ip] += inv_ell
        mat[i, ip] -= inv_ell
        mat[ip, i] -= inv_ell
        h_curv = geometry.curvature(curve)
        mat[i, i] += h_curv * h_curv * weights
        return TildeGram("strip", mat, weights, restriction)

    if isinstance(config, geometry.SegmentConfig):
        if restriction is None:
            restriction = "none"
        m = SEGMENT_NODES
        mat = _segment_p1(config, m)[0]
        h = config.length / (m - 1)
        weights = np.full(m, h)
        weights[0] = weights[-1] = h / 2.0
        return TildeGram("segment", mat, weights, restriction)

    raise TypeError("config must be a GraphCurve or a SegmentConfig")


class TOperator:
    """Nonlocal operator T of the second variation.

    Applying T to a perturbation phi solves the jump-transport problem
    for phi on both components by CG, pairs the solution back against
    the curve (giving the dual vector r), and lifts r through the
    restricted Gram inverse.  The spectrum instead comes from the Fourier
    symbols of a translation-invariant pair, or else from the dense
    curve-space matrix A (see dual_matrix), built once on first use.
    """

    def __init__(self, state, gram, rtol=elliptic.DEFAULT_RTOL):
        system = state.system
        if gram.size != system.grid.nx:
            raise ValueError("Gram size and curve sample count differ")
        self.state = state
        self.system = system
        self.gram = gram
        self.rtol = rtol
        self.coupling = elliptic.JumpCoupling(state)
        self._spectrum = None

    def apply(self, phi):
        """Return (T phi, r) with r the dual vector, (T phi, psi)~ = r . psi.

        phi is projected into the subspace first.
        """
        phi = self.gram.project(np.asarray(phi, dtype=float))
        dual = self._transport(phi)[1]
        return self.gram.apply_inverse(dual), dual

    def _transport(self, phi):
        """(v_phi, r): the jump-transport field of phi by CG and its
        pairing r = -2 C^T v_phi back against the curve."""
        vfield, _ = elliptic.solve_jump_source(
            self.state, phi, rtol=self.rtol, coupling=self.coupling)
        return vfield, self.coupling.dual_vector(vfield)

    @functools.cached_property
    def dual_matrix(self):
        """Dense A with A @ phi the dual vector r of apply(phi).

        A = 2 sum C^T (a_uu^-1)_00 C over both sides, formed in O(m^2)
        from the coupling's element coefficients, once; a side with zero
        coupling contributes nothing and skips its curve block.
        """
        return self.coupling.dual_matrix(
            {side: comp.curve_block_inverse()
             for side, comp in self.system.sides
             if np.any(self.coupling.coefficients[side])})

    def spectrum(self):
        """(eigenvalues of T on the restriction subspace, descending;
        EigenStats naming the route), cached.

        A translation-invariant pair takes its Fourier symbols
        (_circulant_spectrum); any other takes one eigvalsh of W A W^T
        with the Gram's whitening map W, and raises GramSingular if the
        restricted Gram is not definite.
        """
        if self._spectrum is None:
            values = self._circulant_spectrum()
            method = "circulant_symbol"
            if values is None:
                whiten = self.gram.whitening
                values = np.linalg.eigvalsh(
                    whiten @ self.dual_matrix @ whiten.T)[::-1]
                method = "dense_eigh"
            self._spectrum = (values, EigenStats(method=method)
                              if np.any(values) else
                              EigenStats(note="operator is zero", method="none"))
        return self._spectrum

    def _circulant_spectrum(self):
        """Eigenvalues of T, descending, from the Fourier symbols; None
        unless the pair is translation-invariant.

        That is a flat curve, walls whose periodic parts sample to
        constants, and the mean_zero restriction.  The state is then
        linear on each side, so both C+- are h+- times one circulant, and
        A and G are circulants with symbols 2 (2 + 2 cos t)(2 - 2 cos t)
        sum h^2 x^ and (2 - 2 cos t) / l at t = 2 pi k / m, l the element
        length and x^ the curve block's symbol.  mean_zero removes k = 0,
        so T has the m - 1 eigenvalues

            lambda_k = 2 l (2 + 2 cos t_k) sum_+- h+-^2 x^_k,+-.

        h+- is the mean of each side's coefficients, which can differ from
        one another by an ulp.  Modes k and m - k share one value, exactly.
        """
        system = self.system
        if self.gram.restriction != "mean_zero":
            return None
        for data in (system.domain.top, system.domain.bottom):
            wall = data.sample(system.abscissae)
            if np.any(wall != wall[0]):
                return None
        weight = 0.0  # sum_+- h+-^2 x^+-
        for side, comp in system.sides:
            symbol = comp.curve_block_symbol()
            if symbol is None:
                return None
            h = np.mean(self.coupling.coefficients[side])
            weight = weight + h * h * symbol
        m = system.grid.nx
        k = np.arange(1, m // 2 + 1)
        # 2 l (2 + 2 cos t) = 8 l cos(t / 2)^2, without the cancellation
        # near t = pi; l is the spacing, since the curve is flat
        half = (8.0 * system.curve.spacing * np.cos(np.pi * k / m) ** 2
                * weight[k])
        return np.sort(np.concatenate([half, half[:(m - 1) // 2]]))[::-1]

    def rayleigh(self, phi):
        """Rayleigh quotient (T phi, phi)~ / ||phi||~^2 of a raw phi."""
        phi = np.asarray(phi, dtype=float)
        denom = self.gram.form(phi)
        if denom <= 0.0:
            raise ValueError("phi has vanishing curve norm")
        return float(phi @ self._transport(phi)[1]) / denom


class EigenStats(Record, frozen=True):
    """What one eigen call did.  method names the route, "circulant_symbol"
    or "dense_eigh", or is "none" exactly when note is set, naming why no
    eigenvalue was computed (a zero operator or an empty constraint).
    Neither route iterates, so iterations is a constant of the class, 0."""

    iterations = 0
    note: str = ""
    method: str = "dense_eigh"


class SecondVariationResult(Record, frozen=True):
    """d2F[phi] evaluated by the direct route, with the dual value.

    value = -2 * bulk energy of v_phi + ||phi||~^2   (direct route)
    dual  = ||phi||~^2 - (T phi, phi)~
    The two agree up to linear-solver tolerance.  The energy of v_phi is
    its stiffness form, so dual is the same algebra as value: an
    implementation check, not an independent one.
    """

    value: float
    dual: float
    mismatch: float


def second_variation_value(state, gram, phi, rtol=elliptic.DEFAULT_RTOL,
                           with_field=False):
    """Evaluate the second variation at a raw perturbation phi.

    Returns the SecondVariationResult, or with with_field the pair
    (result, v_phi) with v_phi the transport field the value is read from.
    """
    phi = np.asarray(phi, dtype=float)
    vfield, dual_vec = TOperator(state, gram, rtol)._transport(phi)
    norm_sq = gram.form(phi)
    t_form = float(phi @ dual_vec)
    direct = -2.0 * elliptic.dirichlet_energy(vfield) + norm_sq
    dual = norm_sq - t_form
    mismatch = abs(direct - dual) / max(1.0, abs(direct))
    result = SecondVariationResult(value=direct, dual=dual, mismatch=mismatch)
    return (result, vfield) if with_field else result


def lambda1(op):
    """Leading eigenvalue of T on the restriction subspace, with its
    EigenStats."""
    values, stats = op.spectrum()
    return float(values[0]), stats


def leading_eigenvalues(op, count=2):
    """First count eigenvalues of T, descending."""
    values, _ = op.spectrum()
    return [float(v) for v in values[:count]]


def mu(op):
    """Dual stability value: minimum of twice the bulk energy over fields
    whose induced curve perturbation has unit scalar-product norm.

    The pencil of this problem has the same nonzero spectrum as T, so
    mu = 1 / lambda_1.  Returns (value, EigenStats); the value is +inf
    when the constraint set is empty: T is zero (no coupling between
    curve and bulk), which op.spectrum reports as method "none".
    """
    values, stats = op.spectrum()
    if stats.method == "none":
        return math.inf, EigenStats(note="empty constraint", method="none")
    if values[0] <= 0.0:
        raise DegeneratePencil(
            "dual pencil is degenerate: lambda_1 = %.3g" % values[0])
    return 1.0 / float(values[0]), stats


def segment_min_eig(config, m=SEGMENT_NODES):
    """Smallest eigenvalue of the segment form, H1-normalized.

    Dense generalized eigensolve of the segment curve form
    K - h1 e_0 e_0' - h2 e_L e_L' (at m = SEGMENT_NODES, the matrix of
    assemble_tilde_gram) against M + K with P1 elements on
    m >= MIN_SEGMENT_NODES nodes; the sign decides stability of the
    straight-segment critical pair.
    """
    form, stiff, mass = _segment_p1(config, m)
    return float(pencil_eigenvalues(form, mass + stiff)[0])


def verdict_from_eigenvalue(lam, band=DEFAULT_BAND):
    """Stability verdict from lambda_1 with a marginal band around 1."""
    if lam < 1.0 - band:
        return "strictly_stable"
    if lam > 1.0 + band:
        return "unstable"
    return "marginal"


def verdict_from_min_eig(min_eig, band=DEFAULT_BAND):
    """Segment verdict from the smallest normalized form eigenvalue."""
    if min_eig > band:
        return "strictly_stable"
    if min_eig < -band:
        return "unstable"
    return "marginal"
