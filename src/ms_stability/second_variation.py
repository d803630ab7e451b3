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
block of each side's inverse stiffness.  TOperator builds A once (from
the flat-strip Fourier symbol on a flat curve, by a block sweep over the
grid rows on a curved one), and both eigenvalues come from one
dense generalized eigensolve of the restricted pencil (P^T A P, P^T G P):
lambda_1 is its top eigenvalue and mu = 1 / lambda_1, so the two are
algebraically tied rather than independent evidence.  TOperator.apply
and the form evaluations keep the matrix-free CG route and serve as the
independent reference for A.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import elliptic, geometry
from .errors import DegeneratePencil, GramSingular, InvalidRestriction

RESTRICTIONS = ("mean_zero", "endpoint_zero", "none")


def _restriction_basis(kind, restriction, weights):
    """Orthonormal basis (columns) of the admissible perturbation subspace."""
    m = weights.size
    if restriction == "none":
        return np.eye(m)
    if restriction == "mean_zero":
        # Orthogonal complement of the quadrature weight vector: full QR of
        # the single column gives a deterministic orthonormal completion.
        q, _ = np.linalg.qr(weights.reshape(-1, 1), mode="complete")
        return q[:, 1:]
    if restriction == "endpoint_zero":
        if kind == "strip":
            keep = np.arange(1, m)  # the period seam x = 0 is the endpoint
        else:
            keep = np.arange(1, m - 1)
        basis = np.zeros((m, keep.size))
        basis[keep, np.arange(keep.size)] = 1.0
        return basis
    raise InvalidRestriction(
        "unknown restriction %r; expected one of %s" % (restriction, (RESTRICTIONS,))
    )


@dataclass
class TildeGram:
    """Curve scalar product matrix with an optional subspace restriction.

    matrix is the full m x m form; basis holds orthonormal columns
    spanning the restricted subspace, and the reduced matrix is factored
    lazily on first inverse application (raising GramSingular if the
    form fails to be positive definite there).
    """

    kind: str
    matrix: np.ndarray
    weights: np.ndarray
    restriction: str
    basis: np.ndarray
    _reduced: np.ndarray = field(default=None, repr=False)
    _chol: tuple = field(default=None, repr=False)

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

    def _factorize(self):
        if self._chol is None:
            self._reduced = self.basis.T @ self.matrix @ self.basis
            try:
                chol = scipy.linalg.cho_factor(self._reduced)
            except scipy.linalg.LinAlgError as exc:
                raise GramSingular(
                    "scalar product is not positive definite under "
                    "restriction %r" % self.restriction
                ) from exc
            # Cholesky can numerically succeed on a singular form (the
            # zero pivot lands on rounding noise); reject those too.
            pivots = np.abs(np.diag(chol[0]))
            if pivots.size and (pivots.min() / pivots.max()) ** 2 < 1e-12:
                raise GramSingular(
                    "scalar product is numerically singular under "
                    "restriction %r" % self.restriction
                )
            self._chol = chol
        return self._chol

    def reduced_matrix(self):
        """P^T G P on the restriction basis; raises GramSingular."""
        self._factorize()
        return self._reduced

    def apply_inverse(self, rhs):
        """Solve (G y, .) = rhs on the subspace; returns y as a full vector."""
        chol = self._factorize()
        reduced = scipy.linalg.cho_solve(chol, self.basis.T @ np.asarray(rhs, float))
        return self.basis @ reduced


def assemble_tilde_gram(config, restriction=None, m=None):
    """Build the curve scalar product for a strip curve or a segment.

    config is a GraphCurve (periodic strip case: tangential P1 stiffness
    on arclength plus the squared-curvature mass by trapezoid weights)
    or a SegmentConfig (P1 stiffness on [0, L] minus the endpoint
    curvature terms; m is the node count, default 128).  Default
    restriction is mean_zero for the strip and none for the segment.
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
        np.add.at(mat, (i, i), 1.0 / ell)
        np.add.at(mat, (ip, ip), 1.0 / ell)
        np.add.at(mat, (i, ip), -1.0 / ell)
        np.add.at(mat, (ip, i), -1.0 / ell)
        h_curv = geometry.curvature(curve)
        mat[i, i] += h_curv * h_curv * weights
        basis = _restriction_basis("strip", restriction, weights)
        return TildeGram("strip", mat, weights, restriction, basis)

    if isinstance(config, geometry.SegmentConfig):
        if restriction is None:
            restriction = "none"
        if m is None:
            m = 128
        if m < 8:
            raise ValueError("segment needs at least 8 nodes")
        h = config.length / (m - 1)
        main = np.full(m, 2.0 / h)
        main[0] = main[-1] = 1.0 / h
        mat = np.diag(main) + np.diag(np.full(m - 1, -1.0 / h), 1) \
            + np.diag(np.full(m - 1, -1.0 / h), -1)
        mat[0, 0] -= config.h1
        mat[-1, -1] -= config.h2
        weights = np.full(m, h)
        weights[0] = weights[-1] = h / 2.0
        basis = _restriction_basis("segment", restriction, weights)
        return TildeGram("segment", mat, weights, restriction, basis)

    raise TypeError("config must be a GraphCurve or a SegmentConfig")


class TOperator:
    """Nonlocal operator T of the second variation.

    Applying T to a perturbation phi solves the jump-transport problem
    for phi on both components by CG, pairs the solution back against
    the curve (giving the dual vector r), and lifts r through the
    restricted Gram inverse.  The spectrum instead comes from the dense
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
        self._dual_matrix = None
        self._spectrum = None

    def apply(self, phi):
        """Return (T phi, r) with r the dual vector, (T phi, psi)~ = r . psi.

        phi is projected into the subspace first.
        """
        phi = self.gram.project(np.asarray(phi, dtype=float))
        vfield, _ = elliptic.solve_jump_source(
            self.state, phi, rtol=self.rtol, coupling=self.coupling)
        dual = self.coupling.dual_vector(vfield)
        return self.gram.apply_inverse(dual), dual

    @property
    def dual_matrix(self):
        """Dense A with A @ phi the dual vector r of apply(phi).

        A = 2 sum C^T (a_uu^-1)_00 C over both sides; a side with zero
        coupling contributes nothing and skips its curve block.
        """
        if self._dual_matrix is None:
            mat = np.zeros((self.gram.size, self.gram.size))
            for comp, c in ((self.system.upper, self.coupling.c_upper),
                            (self.system.lower, self.coupling.c_lower)):
                if np.any(c):
                    mat += 2.0 * c.T @ (comp.curve_block_inverse() @ c)
            self._dual_matrix = mat
        return self._dual_matrix

    def spectrum(self):
        """(eigenvalues of T on the restriction subspace, descending; note).

        One dense eigensolve of the pencil (P^T A P, P^T G P), cached;
        raises GramSingular if the restricted Gram is not definite.
        """
        if self._spectrum is None:
            reduced = self.gram.reduced_matrix()
            mat = self.dual_matrix
            if not np.any(mat):
                self._spectrum = (np.zeros(reduced.shape[0]), "operator is zero")
            else:
                p = self.gram.basis
                values = scipy.linalg.eigh(p.T @ mat @ p, reduced,
                                           eigvals_only=True)
                self._spectrum = (values[::-1], "")
        return self._spectrum

    def form_value(self, phi):
        """(T phi, phi)~ for a raw (unprojected) perturbation."""
        phi = np.asarray(phi, dtype=float)
        vfield, _ = elliptic.solve_jump_source(
            self.state, phi, rtol=self.rtol, coupling=self.coupling
        )
        return float(phi @ self.coupling.dual_vector(vfield))

    def rayleigh(self, phi):
        """Rayleigh quotient (T phi, phi)~ / ||phi||~^2 of a raw phi."""
        denom = self.gram.form(phi)
        if denom <= 0.0:
            raise ValueError("phi has vanishing curve norm")
        return self.form_value(phi) / denom


@dataclass(frozen=True)
class EigenStats:
    """What one eigen call did: the dense solve fixes iterations at 0 and
    converged at True; note is set exactly when no eigensolve ran, and
    names why (a zero operator or an empty constraint)."""

    iterations: int = 0
    converged: bool = True
    note: str = ""


@dataclass(frozen=True)
class SecondVariationResult:
    """d2F[phi] evaluated by the direct route, with the dual cross-check.

    value = -2 * bulk energy of v_phi + ||phi||~^2   (direct route)
    dual  = ||phi||~^2 - (T phi, phi)~
    The two agree up to linear-solver tolerance.
    """

    value: float
    dual: float
    mismatch: float


def second_variation_value(state, gram, phi, rtol=elliptic.DEFAULT_RTOL):
    """Evaluate the second variation at a raw perturbation phi."""
    phi = np.asarray(phi, dtype=float)
    coupling = elliptic.JumpCoupling(state)
    vfield, _ = elliptic.solve_jump_source(state, phi, rtol=rtol,
                                           coupling=coupling)
    norm_sq = gram.form(phi)
    t_form = float(phi @ coupling.dual_vector(vfield))
    direct = -2.0 * elliptic.dirichlet_energy(vfield) + norm_sq
    dual = norm_sq - t_form
    mismatch = abs(direct - dual) / max(1.0, abs(direct))
    return SecondVariationResult(value=direct, dual=dual, mismatch=mismatch)


def lambda1(op, seed=None):
    """Leading eigenvalue of T on the restriction subspace.

    seed is accepted and ignored: the dense eigensolve has no random start.
    """
    values, note = op.spectrum()
    return float(values[0]), EigenStats(note=note)


def leading_eigenvalues(op, count=2):
    """First count eigenvalues of T, descending."""
    values, _ = op.spectrum()
    return [float(v) for v in values[:count]]


def mu(op):
    """Dual stability value: minimum of twice the bulk energy over fields
    whose induced curve perturbation has unit scalar-product norm.

    The pencil of this problem has the same nonzero spectrum as T, so
    mu = 1 / lambda_1.  Returns (value, EigenStats); the value is +inf
    when the constraint set is empty (no coupling between curve and
    bulk).
    """
    if op.coupling.magnitude() == 0.0:
        return math.inf, EigenStats(note="empty constraint")
    values, note = op.spectrum()
    if values[0] <= 0.0:
        raise DegeneratePencil(
            "dual pencil is degenerate: lambda_1 = %.3g" % values[0])
    return 1.0 / float(values[0]), EigenStats(note=note)


def verdict_from_eigenvalue(lam, band=0.02):
    """Stability verdict from lambda_1 with a marginal band around 1."""
    if lam < 1.0 - band:
        return "strictly_stable"
    if lam > 1.0 + band:
        return "unstable"
    return "marginal"


def verdict_from_min_eig(min_eig, band=0.02):
    """Segment verdict from the smallest normalized form eigenvalue."""
    if min_eig > band:
        return "strictly_stable"
    if min_eig < -band:
        return "unstable"
    return "marginal"
