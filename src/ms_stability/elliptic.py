"""Poisson-type solves on the periodic strip slit along a graph curve.

The curve y = psi(x) cuts the strip into an upper and a lower component.
Each component is meshed by vertically interpolating between the curve
and its wall: grid row j of the upper component sits at
y = psi(x) * (1 - j/ny) + a * (j/ny), and symmetrically below.  On the
resulting quadrilateral cells we use isoparametric bilinear elements
with 2x2 Gauss quadrature, which keeps the stiffness matrix exactly
symmetric; the matching Gauss rule is reused for energy evaluation so
that the quadrature energy of a discrete field equals its stiffness
quadratic form to rounding.

Fields are stored as a drift slope s plus periodic nodal corrections w,
so u = s * x + w with w b-periodic; only u_x needs to be periodic.  The
walls carry Dirichlet data, the cut carries the natural (zero Neumann)
condition for the state solve and a prescribed weak jump load for the
perturbation solve.

Each side is solved by conjugate gradients preconditioned with the
exact inverse of the same side's operator on a flat strip (one cosine
transform across the rows, one FFT along the period).  On a flat curve
that is the exact inverse, so CG stops after one iteration; on a curved
one the iteration count depends on the curve's slope, not on the grid.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import geometry
from .errors import SolverDiverged

# 2x2 tensor Gauss rule on the unit square: points and uniform weight 1/4.
_GP = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
_GAUSS_XI = np.array([_GP[0], _GP[1], _GP[0], _GP[1]])
_GAUSS_ETA = np.array([_GP[0], _GP[0], _GP[1], _GP[1]])

# Bilinear shape function derivatives at the Gauss points; local corner
# order is (0,0), (1,0), (0,1), (1,1).
_DN_DXI = np.stack(
    [-(1.0 - _GAUSS_ETA), (1.0 - _GAUSS_ETA), -_GAUSS_ETA, _GAUSS_ETA], axis=1
)
_DN_DETA = np.stack(
    [-(1.0 - _GAUSS_XI), -_GAUSS_XI, (1.0 - _GAUSS_XI), _GAUSS_XI], axis=1
)

DEFAULT_RTOL = 1e-10
MAXITER_FACTOR = 50


@dataclass(frozen=True)
class Grid:
    """Reference grid: nx periodic columns, ny rows per component."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise ValueError("grid needs nx >= 16 and ny >= 16")


@dataclass(frozen=True)
class ComponentStats:
    side: str
    iterations: int
    residual: float


@dataclass(frozen=True)
class SolveStats:
    """Conjugate-gradient bookkeeping for one field solve."""

    iterations: int
    residual: float
    rtol: float
    components: tuple

    @staticmethod
    def combine(rtol, parts):
        return SolveStats(
            iterations=sum(p.iterations for p in parts),
            residual=max((p.residual for p in parts), default=0.0),
            rtol=rtol,
            components=tuple(parts),
        )


class _Component:
    """Assembled bilinear-element system for one side of the cut.

    Node (j, i) has flat index j*nx + i with j = 0 the curve row and
    j = ny the wall row, so the first nx*ny indices are the unknowns and
    the trailing nx are the Dirichlet nodes.
    """

    def __init__(self, domain, curve, grid, side):
        nx, ny = grid.nx, grid.ny
        a = domain.half_height
        hx = domain.period / nx
        sign = 1.0 if side == "upper" else -1.0
        psi = curve.heights

        s = (np.arange(ny + 1) / ny)[:, None]
        rows_y = psi[None, :] * (1.0 - s) + sign * a * s  # (ny+1, nx)

        ip = (np.arange(nx) + 1) % nx
        y00 = rows_y[:-1, :].ravel()
        y10 = rows_y[:-1, ip].ravel()
        y01 = rows_y[1:, :].ravel()
        y11 = rows_y[1:, ip].ravel()

        # Cell corner indices, cells in row-major (j, i) order.
        base = (np.arange(ny)[:, None] * nx + np.arange(nx)[None, :]).ravel()
        up = ((np.arange(ny)[:, None] + 1) * nx + np.arange(nx)[None, :]).ravel()
        right = (np.arange(ny)[:, None] * nx + ip[None, :]).ravel()
        upright = ((np.arange(ny)[:, None] + 1) * nx + ip[None, :]).ravel()
        idx = np.stack([base, right, up, upright], axis=1)  # (ncell, 4)

        xi = _GAUSS_XI[None, :]
        eta = _GAUSS_ETA[None, :]
        y_xi = (1.0 - eta) * (y10 - y00)[:, None] + eta * (y11 - y01)[:, None]
        y_eta = (1.0 - xi) * (y01 - y00)[:, None] + xi * (y11 - y10)[:, None]
        det = hx * y_eta  # signed; negative on the lower component
        if np.any(det == 0.0):
            raise ValueError("degenerate cell: curve touches a wall")

        grad_x = (y_eta[:, :, None] * _DN_DXI[None] - y_xi[:, :, None] * _DN_DETA[None])
        grad_x = grad_x / det[:, :, None]
        grad_y = hx * _DN_DETA[None] / det[:, :, None]
        wdet = 0.25 * np.abs(det)

        # optimize=True contracts pairwise through a batched matmul, about
        # twice as fast as the default single-pass loop at 65 536 cells.
        kdata = np.einsum("cga,cgb,cg->cab", grad_x, grad_x, wdet, optimize=True)
        kdata += np.einsum("cga,cgb,cg->cab", grad_y, grad_y, wdet, optimize=True)

        n_total = nx * (ny + 1)
        n_u = nx * ny
        rows = np.repeat(idx, 4, axis=1).ravel()
        cols = np.tile(idx, (1, 4)).ravel()
        a_full = scipy.sparse.coo_matrix(
            (kdata.ravel(), (rows, cols)), shape=(n_total, n_total)
        ).tocsr()

        bx = np.zeros(n_total)
        np.add.at(bx, idx.ravel(), np.einsum("cga,cg->ca", grad_x, wdet).ravel())

        self.side = side
        self.nx = nx
        self.ny = ny
        self.hx = hx
        self.n_unknown = n_u
        self.idx = idx
        self.grad_x = grad_x
        self.grad_y = grad_y
        self.wdet = wdet
        self.a_uu = a_full[:n_u, :n_u].tocsr()
        self.a_ud = a_full[:n_u, n_u:].tocsr()
        self.drift_load = bx[:n_u]

        # Flat-strip preconditioner.  On a flat curve the mesh is a uniform
        # hx x hy rectangle and a_uu = M_y (x) K_x + K_y (x) M_x exactly,
        # with P1 stiffness K and consistent mass M in each direction.
        # Along x both are periodic, so rfft diagonalises them.  Along y
        # the curve row carries half the interior stencil and row ny is
        # Dirichlet; K_y and M_y then share the eigenvectors
        # cos((k + 1/2) pi j / ny), orthogonal with weight ny/2 under the
        # half-weight curve row, so that
        #   a_uu^-1 = (2/ny) (C (x) F^-1) diag(1/lam) (C^T (x) F).
        # A curved mesh uses the flat strip of the same mean height.
        hy = (a - sign * float(np.mean(psi))) / ny
        theta_x = 2.0 * np.pi * np.arange(nx // 2 + 1) / nx
        theta_y = (np.arange(ny) + 0.5) * np.pi / ny
        k_x = (2.0 - 2.0 * np.cos(theta_x)) / hx
        m_x = hx * (4.0 + 2.0 * np.cos(theta_x)) / 6.0
        k_y = (2.0 - 2.0 * np.cos(theta_y)) / hy
        m_y = hy * (4.0 + 2.0 * np.cos(theta_y)) / 6.0
        lam = m_y[:, None] * k_x[None, :] + k_y[:, None] * m_x[None, :]
        self._cos_y = np.cos(np.outer(np.arange(ny), theta_y))  # (j, k)
        self._inv_eig = (2.0 / ny) / lam  # (ny, nx//2 + 1)

    def _flat_inverse(self, r):
        """Exact inverse of the flat-strip operator applied to r."""
        coef = self._cos_y.T @ r.reshape(self.ny, self.nx)
        coef = np.fft.irfft(np.fft.rfft(coef, axis=1) * self._inv_eig,
                            n=self.nx, axis=1)
        return (self._cos_y @ coef).ravel()

    def solve(self, rhs, rtol):
        """CG on the unknown block, preconditioned by the flat-strip inverse.

        The preconditioner is the exact inverse of this side's stiffness on
        the flat strip of the same mean height (see __init__), so a flat
        curve converges in one iteration and a curved one in a number of
        iterations set by the curve's slope, not by the grid size.  CG
        stops on the unpreconditioned relative residual <= rtol.
        """
        if not np.any(rhs):
            return np.zeros(self.n_unknown), ComponentStats(self.side, 0, 0.0)
        maxiter = MAXITER_FACTOR * self.nx * self.ny
        # An explicit dtype keeps scipy from probing the preconditioner
        # with a zero vector to infer it.
        precond = scipy.sparse.linalg.LinearOperator(
            self.a_uu.shape, matvec=self._flat_inverse, dtype=float
        )
        count = [0]

        def tick(_):
            count[0] += 1

        x, info = scipy.sparse.linalg.cg(
            self.a_uu, rhs, rtol=rtol, atol=0.0,
            maxiter=maxiter, M=precond, callback=tick,
        )
        if info != 0:
            raise SolverDiverged(
                "CG on %s component gave info=%d after %d iterations"
                % (self.side, info, count[0])
            )
        residual = float(
            np.linalg.norm(rhs - self.a_uu @ x) / np.linalg.norm(rhs)
        )
        return x, ComponentStats(self.side, count[0], residual)

    def curve_block_inverse(self):
        """Curve-row block (a_uu^-1)_00 of the inverse stiffness, (nx, nx).

        a_uu is block tridiagonal over grid rows, with nx x nx diagonal
        blocks D_j and upper blocks U_j coupling row j to row j + 1.
        Block elimination from the wall row toward the curve row keeps
        X = inverse of the current Schur complement:
        X <- (D_j - U_j X U_j^T)^-1.  Each block couples column i to
        columns i - 1, i, i + 1 only, so D_j and U_j are held as three
        coefficient rows and each step costs one dense inversion.
        """
        nx = self.nx
        i = np.arange(nx)
        shift = (i + np.arange(-1, 2)[:, None]) % nx  # (3, nx): column i + k
        diag, upper = self._row_stencil(0, shift), self._row_stencil(1, shift)
        x = None
        for j in range(self.ny - 1, -1, -1):
            s = np.zeros((nx, nx))
            s[i, shift] = diag[j]
            if x is not None:
                # U X U^T = U (U X)^T since X is symmetric.
                ux = (upper[j][:, :, None] * x[shift]).sum(axis=0)
                s -= (upper[j][:, :, None] * ux.T[shift]).sum(axis=0)
            x = _sym_inverse(s)
        return x

    def _row_stencil(self, dj, shift):
        """Entries a_uu[(j, i), (j + dj, shift[k, i])]: shape (ny - dj, 3, nx)."""
        nx = self.nx
        j = np.arange(self.ny - dj)[:, None, None]
        rows = np.broadcast_to(j * nx + np.arange(nx), (j.size,) + shift.shape)
        cols = (j + dj) * nx + shift
        return np.asarray(self.a_uu[rows.ravel(), cols.ravel()]).reshape(rows.shape)

    def energy(self, w_nodal, slope):
        """Gauss-rule Dirichlet energy of u = slope * x + w on this side."""
        wn = w_nodal.ravel()[self.idx]  # (ncell, 4)
        ux = np.einsum("cga,ca->cg", self.grad_x, wn) + slope
        uy = np.einsum("cga,ca->cg", self.grad_y, wn)
        return float(np.sum(self.wdet * (ux * ux + uy * uy)))


def _sym_inverse(mat):
    """Inverse of a nonsingular symmetric matrix (Bunch-Kaufman).

    Chosen over Cholesky inversion for the sweep's Schur complements:
    at nx = 128 on two cores with a two-thread OpenBLAS the sweep ran
    about 1.5x faster this way.
    """
    ldu, piv, info = scipy.linalg.lapack.dsytrf(mat, lower=1, overwrite_a=1)
    if info == 0:
        inv, info = scipy.linalg.lapack.dsytri(ldu, piv, lower=1, overwrite_a=1)
    if info != 0:
        raise SolverDiverged("singular Schur complement in the row sweep "
                             "(LAPACK info=%d)" % info)
    # dsytri fills the lower triangle only.
    return np.where(np.tri(len(inv), dtype=bool), inv, inv.T)


class StripSystem:
    """Assembled elliptic systems for both components of a slit strip."""

    def __init__(self, domain, curve, grid):
        if curve.m != grid.nx:
            raise ValueError(
                "curve has %d samples but the grid has %d columns; "
                "curve nodes must sit on grid columns" % (curve.m, grid.nx)
            )
        curve.require_inside(domain.half_height)
        self.domain = domain
        self.curve = curve
        self.grid = grid
        self.upper = _Component(domain, curve, grid, "upper")
        self.lower = _Component(domain, curve, grid, "lower")

    @property
    def abscissae(self):
        return self.curve.abscissae


@dataclass
class SlitField:
    """Scalar field on the slit strip: drift slope plus periodic values.

    w_upper / w_lower hold the periodic part on the mapped grids, shape
    (ny+1, nx), row 0 on the curve and row ny on the wall.  The physical
    field on each side is  slope * x + w.
    """

    system: StripSystem
    slope_upper: float
    slope_lower: float
    w_upper: np.ndarray
    w_lower: np.ndarray

    def trace(self, side):
        """Field values on the curve nodes from one side."""
        slope, w = self._pick(side)
        return slope * self.system.abscissae + w[0]

    def jump(self):
        """Trace difference u_plus - u_minus across the cut."""
        return self.trace("upper") - self.trace("lower")

    def tangential_gradient(self, side):
        """Arclength derivative of the trace, sampled at curve nodes."""
        slope, w = self._pick(side)
        curve = self.system.curve
        dpsi = geometry.slope_samples(curve)
        du_dx = slope + geometry.periodic_derivatives(w[0], curve.spacing)[0]
        return du_dx / np.sqrt(1.0 + dpsi * dpsi)

    def unknown_vector(self, side):
        """Unknown-row values as the flat CG vector (curve row first)."""
        _, w = self._pick(side)
        return w[:-1].ravel()

    def _pick(self, side):
        if side == "upper":
            return self.slope_upper, self.w_upper
        if side == "lower":
            return self.slope_lower, self.w_lower
        raise ValueError("side must be 'upper' or 'lower'")


def _solve_sides(system, problems, slopes, rtol):
    """CG on each side for its (rhs, wall row), upper first.

    Returns (SlitField with the given drift slopes, SolveStats).
    """
    rows, parts = [], []
    for comp, (rhs, wall) in zip((system.upper, system.lower), problems):
        u, stats = comp.solve(rhs, rtol)
        rows.append(np.vstack([u.reshape(comp.ny, comp.nx), wall]))
        parts.append(stats)
    return SlitField(system, *slopes, *rows), SolveStats.combine(rtol, parts)


def solve_state(domain, curve, grid, rtol=DEFAULT_RTOL, system=None):
    """Equilibrium field: harmonic on both sides, Neumann on the cut.

    Dirichlet data on the walls comes from the domain's boundary data;
    the drift slope of each side is handled analytically so only the
    periodic correction is solved for.  Returns (SlitField, SolveStats);
    the wall rows of the result reproduce the data exactly at the nodes.
    """
    if system is None:
        system = StripSystem(domain, curve, grid)
    x = system.abscissae
    problems = []
    for comp, data in ((system.upper, domain.top), (system.lower, domain.bottom)):
        wall = data.sample(x)
        problems.append((-data.slope * comp.drift_load - comp.a_ud @ wall, wall))
    return _solve_sides(system, problems,
                        (domain.top.slope, domain.bottom.slope), rtol)


class JumpCoupling:
    """Weak pairing between curve perturbations and field test functions.

    Encodes C[z, phi] = -int (z_x u_x phi / J) dx summed over both sides
    with the lower side entering with opposite sign, discretized with
    element-constant tangential derivatives and element-average phi.
    The matrices map a perturbation phi to loads on the curve-row nodes.
    """

    def __init__(self, state):
        system = state.system
        curve = system.curve
        hx = curve.spacing
        j_e = geometry.element_lengths(curve) / hx
        self.nx = system.grid.nx
        self.c_upper = self._side_matrix(state, "upper", j_e, hx, -1.0)
        self.c_lower = self._side_matrix(state, "lower", j_e, hx, +1.0)

    def _side_matrix(self, state, side, j_e, hx, orientation):
        slope, w = state._pick(side)
        tr = w[0]
        u_xi = slope + (np.roll(tr, -1) - tr) / hx
        coef = orientation * u_xi / j_e  # one value per element i -> i+1
        nx = self.nx
        ip = (np.arange(nx) + 1) % nx
        i = np.arange(nx)
        c = np.zeros((nx, nx))
        # z-pattern (delta_{i+1} - delta_i), phi-pattern (delta_i + delta_{i+1})/2
        np.add.at(c, (ip, i), coef / 2.0)
        np.add.at(c, (ip, ip), coef / 2.0)
        np.add.at(c, (i, i), -coef / 2.0)
        np.add.at(c, (i, ip), -coef / 2.0)
        return c

    def loads(self, phi):
        """Right-hand sides -C[., phi] on the curve rows of both sides."""
        return -self.c_upper @ phi, -self.c_lower @ phi

    def dual_vector(self, field):
        """r with r . psi = -2 C[v, psi] for a solved perturbation field v."""
        vp = field.w_upper[0]
        vm = field.w_lower[0]
        return -2.0 * (self.c_upper.T @ vp + self.c_lower.T @ vm)

    def magnitude(self):
        return max(np.max(np.abs(self.c_upper)), np.max(np.abs(self.c_lower)))


def solve_jump_source(state, phi, rtol=DEFAULT_RTOL, coupling=None):
    """Perturbation field v_phi driven by transporting the state jump.

    Solves, on each component, the weak problem  a(v, z) = -C[z, phi]
    with zero Dirichlet data on the walls; the load acts on the curve
    row only.  Returns (SlitField, SolveStats).
    """
    system = state.system
    if coupling is None:
        coupling = JumpCoupling(state)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (system.grid.nx,):
        raise ValueError("phi must have one sample per curve node")
    problems = []
    for comp, load in zip((system.upper, system.lower), coupling.loads(phi)):
        rhs = np.zeros(comp.n_unknown)
        rhs[: comp.nx] = load
        problems.append((rhs, np.zeros(comp.nx)))
    return _solve_sides(system, problems, (0.0, 0.0), rtol)


def dirichlet_energy(field):
    """Integral of |grad u|^2 by the assembly Gauss rule.

    Using the same quadrature as the stiffness assembly makes the energy
    of a discrete field identical to its stiffness quadratic form, so
    energy differences and assembled quadratic forms can be compared at
    solver accuracy.
    """
    system = field.system
    return (system.upper.energy(field.w_upper, field.slope_upper)
            + system.lower.energy(field.w_lower, field.slope_lower))
