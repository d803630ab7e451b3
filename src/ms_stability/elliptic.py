"""Poisson-type solves on the periodic strip slit along a graph curve.

The curve y = psi(x) cuts the strip into an upper and a lower component.
The reflection y -> -y maps the lower component of psi onto the upper
one of -psi, so only one kind of region is assembled (StripSystem): the
half strip between a curve and the wall y = +a.  It is meshed by
vertically interpolating between the two, grid row j at
y = psi(x) * (1 - j/ny) + a * (j/ny).  On the resulting quadrilateral
cells we use isoparametric bilinear elements with 2x2 Gauss quadrature.
That rule is applied once, in the assembly: the Dirichlet energy of a
discrete field is read from the assembled stiffness, so it is the
stiffness quadratic form itself.

The interpolated mesh makes each cell's Jacobian affine in the row: in
cell (j, i), y_eta = (1 - xi) g_i + xi g_i+1 with g = (a - psi)/ny is
per column, and y_xi = (psi_i+1 - psi_i) t with t = 1 - (j + eta)/ny.
So every element matrix entry is a quadratic in t whose coefficients
are constants times four scalars per Gauss point and column.  Node row j
collects corners from cell rows j and j - 1, so one constant linear map
takes those scalars to per-column stencil factors, and one matrix
product over the rows yields the node stencil, without a per-cell
array.  The slabs cover every node row, the wall row included.  Only the
centre and the four forward couplings are stored; each backward coupling
is read from the forward one of its neighbour, so the assembled
stiffness is exactly symmetric, not only each element matrix.  The
solver applies the stiffness straight from those slabs, and the energy
sums it over the forward couplings; a CSR copy is built only when a
caller asks for a_uu.

The drift load d_i = int dN_i/dx is a boundary term, int N_i n_x over
the curve alone: (psi_i+1 - psi_i-1)/2 on the curve row and zero
elsewhere.  dN/dx |det J| is bilinear, so the 2x2 Gauss rule gives the
same value up to rounding; on a flat curve d is exactly 0.

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
Every solve stops on the normwise backward error in the infinity norm,
|r| / (|A| |x| + |b|) <= rtol, with |A| bounded from below at assembly
(_Component.solve); a relative residual |r| / |b| would ask for more
than rounding allows when the load is small against A x, as on cells of
aspect a/b of a few hundred.

Every solve, curved meshes included, runs on NumPy alone; SciPy, from
the test extra, only builds the CSR copy a_uu, which no solve reads.
"""

import functools

import numpy as np

from . import geometry
from ._record import Record
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
# The same corners as column and row offsets.
_IA, _JA = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
# The stencil offsets (dj, di) a side stores, one slab each: the centre and
# the four forward couplings.  The other four are their mirror images.
_FORWARD = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _assembly_map():
    """The constant linear map from column scalars to stencil factors.

    At Gauss point g of cell column i the element matrix entry (a, b) is
    sum_k t^k times a corner constant times one of the four column scalars
    w/hx^2, w/y_eta^2, w s/hx and w s^2 (w the Gauss weight times |det|, s
    the shear); see __init__.  Corner (ia, ja) of cell (j, i) is node
    (j + ja, i + ia), so the node takes that corner's terms from cell
    column i - ia.  Row (slab, ja, eta, k) of the map is the t^k factor at
    Gauss row eta that the ja corners pass to slab, one of the _FORWARD
    couplings.  Column (ia, g, scalar) is a scalar of cell column i - ia.
    """
    out = np.zeros((5, 2, 2, 3, 2, 4, 4))
    for g in range(4):
        dxi, deta = _DN_DXI[g], _DN_DETA[g]
        for a in range(4):
            ia, ja = _IA[a], _JA[a]
            terms = out[:, ja, g // 2, :, ia, g]  # (slab, k, scalar), a view
            for b in range(4):
                offset = (_JA[b] - ja, _IA[b] - ia)
                if offset in _FORWARD:
                    slab = terms[_FORWARD.index(offset)]
                    slab[0, 0] += dxi[a] * dxi[b]
                    slab[0, 1] += deta[a] * deta[b]
                    slab[1, 2] -= dxi[a] * deta[b] + deta[a] * dxi[b]
                    slab[2, 3] += deta[a] * deta[b]
    return out.reshape(60, 32)


_ASSEMBLY_MAP = _assembly_map()


def _slab_of(dj, di):
    """(slab, row shift, column shift) where coupling (dj, di) is stored.

    A forward coupling is its own slab.  By symmetry a backward one,
    from node (j, i) to (j + dj, i + di), is the forward coupling
    (-dj, -di) of that neighbour: its slab read shifted by (dj, di).
    """
    if (dj, di) in _FORWARD:
        return _FORWARD.index((dj, di)), 0, 0
    return _FORWARD.index((-dj, -di)), dj, di


DEFAULT_RTOL = 1e-10
MAXITER_FACTOR = 50
MIN_GRID = 16  # fewest columns and rows per side: library, config and CLI


class Grid(Record, frozen=True):
    """Reference grid: nx periodic columns, ny rows per component."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < MIN_GRID or self.ny < MIN_GRID:
            raise ValueError("grid needs nx >= {0} and ny >= {0}".format(MIN_GRID))


class SolveStats(Record, frozen=True):
    """Conjugate-gradient bookkeeping for one solve.

    From _Component.solve: the iterations and the confirmed normwise
    backward error |b - A x| / (|A| |x| + |b|) (infinity norms) of one
    half strip.  From a field solve (_solve_sides): the iterations summed
    and the residual maximised over both sides, with each side's record
    in components, upper first.
    """

    iterations: int
    residual: float
    components: tuple = ()


class _Component:
    """Assembled bilinear-element system for one half strip: the region
    between the curve and the wall y = +a.

    Node (j, i) has flat index j*nx + i with j = 0 the curve row and
    j = ny the wall row, so the first nx*ny indices are the unknowns and
    the trailing nx are the Dirichlet nodes.  The stiffness of the unknown
    rows is a 9-point stencil: the coupling of node (j, i) to node
    (j + dj, i + di mod nx).  Only the centre and the four forward
    couplings of _FORWARD are stored, as _slabs[k, j + 1, i + 1]: one
    slab each over node rows 0..ny, the wall row included, with a zero
    ghost row under the curve row and a periodic ghost column on each
    side.  A backward coupling is the matching forward slab read at the
    neighbour (_slab_of), so the operator is exactly symmetric.  _apply
    reads the nine couplings of the unknown rows as contiguous runs of the
    flattened slabs; energy reads the forward couplings of all rows.

    The half strip knows no side: StripSystem builds the lower side as the
    half strip of -psi, and only _solve_sides puts a side's name to a
    solve, in its stats and its SolverDiverged messages.
    """

    def __init__(self, domain, curve, grid):
        nx, ny = grid.nx, grid.ny
        a = domain.half_height
        hx = domain.period / nx
        psi = curve.heights
        ip = (np.arange(nx) + 1) % nx

        # Column factors, shape (gauss point, column): y_eta, the Gauss
        # weight w times |det| and the shear s.  At row factor t the shape
        # gradients are grad_x N = dN/dxi / hx - t s dN/deta and
        # grad_y N = dN/deta / y_eta, so each element matrix entry is a
        # quadratic in t whose coefficients are corner constants times four
        # column scalars (see _assembly_map).
        step = (a - psi) / ny
        y_eta = np.outer(1.0 - _GAUSS_XI, step) + np.outer(_GAUSS_XI, step[ip])
        if np.any(y_eta == 0.0):
            raise ValueError("degenerate cell: curve touches a wall")
        weight = 0.25 * hx * np.abs(y_eta)
        shear = (psi[ip] - psi) / hx / y_eta
        ws = weight * shear
        scalars = np.stack([weight / (hx * hx), weight / (y_eta * y_eta),
                            ws / hx, ws * shear], axis=1)
        # Padded column c is node column c - 1: its ia = 0 corners take the
        # scalars of cell column c - 1, its ia = 1 corners those of c - 2.
        cols = scalars.reshape(16, nx).take(np.arange(-2, nx + 1), axis=1,
                                            mode="wrap")
        block = _ASSEMBLY_MAP @ np.concatenate([cols[:, 1:], cols[:, :-1]])
        # powers[j + 1, ja]: the t^k factors of cell row j - ja, for node
        # rows j = -1..ny.  The ghost row, the curve row's ja = 1 corners
        # and the wall row's ja = 0 corners have no cell row, so their
        # factors stay zero.
        t = 1.0 - (np.arange(ny)[:, None] + np.array(_GP)) / ny  # (row, eta)
        powers = np.zeros((ny + 2, 2, 6))
        powers[1:-1, 0] = (t[:, :, None] ** np.arange(3)).reshape(ny, 6)
        powers[2:, 1] = powers[1:-1, 0]
        powers = powers.reshape(ny + 2, 12)
        width = nx + 2
        # (slab, padded row, padded column).  The ghost columns are copied
        # from the columns they repeat, since the product need not round a
        # repeated column the same way.
        self._slabs = np.matmul(powers, block.reshape(5, 12, width))
        self._slabs[..., 0] = self._slabs[..., nx]
        self._slabs[..., -1] = self._slabs[..., 1]
        # The curve row's drift load (module docstring) and the area.
        self._drift = 0.5 * (psi[ip] - np.roll(psi, 1))
        self._area = hx * float(np.sum(a - psi))
        # Read-only, as are the views below: both sides may be this object.
        self._slabs.flags.writeable = self._drift.flags.writeable = False
        # A lower bound on ||a_uu||_inf for the stop test (solve): each full
        # stiffness row sums to zero, so sum_j |a_ij| >= 2 a_ii, and node
        # rows 0..ny - 2 meet no wall node, so a_uu holds their full rows.
        self._a_norm = 2.0 * float(self._slabs[0, 1:ny].max())

        self.nx = nx
        self.ny = ny
        self.n_unknown = nx * ny
        # _apply's (offset into its padded v, coupling) for each (dj, di):
        # the coupling as a run of the flattened slabs at the unknown rows'
        # padded nodes.  A run shifted to (-1, -1) starts one entry into
        # the slab before; that entry meets only a ghost column of v.
        flat, size = self._slabs.reshape(-1), ny * width
        self._terms = []
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                k, sj, si = _slab_of(dj, di)
                at = (k * (ny + 2) + 1 + sj) * width + si
                self._terms.append(((dj + 1) * width + di + 1,
                                    flat[at:at + size]))

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
        hy = (a - float(np.mean(psi))) / ny
        stiff_x, mass_x = _p1_symbols(nx, True)
        stiff_y, mass_y = _p1_symbols(ny, False)
        lam = np.outer(hy * mass_y / 6.0, stiff_x / hx)
        lam += np.outer(stiff_y / hy, hx * mass_x / 6.0)
        self._cos_y = _cosine_basis(ny)  # (j, k)
        self._inv_eig = np.divide(2.0 / ny, lam, out=lam)  # (ny, nx//2 + 1)
        self._inv_eig.flags.writeable = False
        self._flat = bool(np.all(psi == psi[0]))
        self._curve_block = None  # curve_block_inverse, once computed

    def _coupling(self, dj, di):
        """(ny, nx) view: the coupling of node (j, i) to (j + dj, i + di)."""
        k, sj, si = _slab_of(dj, di)
        return self._slabs[k, 1 + sj:1 + sj + self.ny, 1 + si:1 + si + self.nx]

    def _flat_inverse(self, r):
        """Exact inverse of the flat-strip operator applied to r."""
        coef = self._cos_y.T @ r.reshape(self.ny, self.nx)
        coef = np.fft.irfft(np.fft.rfft(coef, axis=1) * self._inv_eig,
                            n=self.nx, axis=1)
        return (self._cos_y @ coef).ravel()

    @functools.cached_property
    def a_uu(self):
        """The unknown rows' stiffness as a CSR matrix, built on first use
        with SciPy (test extra); only inspection and tests read it."""
        return _stencil_csr(self)

    def _apply(self, v):
        """a_uu @ v straight from the slabs.

        v is copied into a grid with a zero row below the curve row (whose
        dj = -1 couplings are zero anyway) and above row ny - 1 (the wall
        is not an unknown), and a periodic ghost column on each side.  In
        that grid, flattened, neighbour (dj, di) sits at a fixed offset, so
        each of the nine couplings is one contiguous multiply-add.
        """
        nx, ny = self.nx, self.ny
        width = nx + 2
        # One spare entry at each end keeps the di = -1, +1 offsets in range.
        padded = np.zeros((ny + 2) * width + 2)
        grid = padded[1:-1].reshape(ny + 2, width)
        v = v.reshape(ny, nx)
        grid[1:-1, 1:-1] = v
        grid[1:-1, 0] = v[:, -1]
        grid[1:-1, -1] = v[:, 0]
        size = ny * width
        out, term = np.zeros(size), np.empty(size)
        for start, coef in self._terms:
            out += np.multiply(coef, padded[start:start + size], out=term)
        return out.reshape(ny, width)[:, 1:-1].ravel()

    def solve(self, rhs, rtol, start=None):
        """CG on the unknown block, preconditioned by the flat-strip inverse.

        The preconditioner is the exact inverse of the stiffness on
        the flat strip of the same mean height (see __init__), so a flat
        curve converges in one iteration and a curved one in a number of
        iterations set by the curve's slope, not by the grid size.  CG
        starts from start (zero when it is None or zero, the same
        arithmetic either way) and stops on the normwise backward error
        in the infinity norm,
          eta = |r| / (|a_uu| |x| + |rhs|) <= rtol,  r = rhs - a_uu x,
        the smallest relative change to a_uu and rhs that makes x exact
        (Rigal and Gaches, 1967).  |a_uu| is the lower bound fixed at
        assembly, so eta is never below the true one.  Unlike the relative
        residual |r| / |rhs|, eta does not ask for more than rounding
        allows when rhs is small against a_uu x.  The recurrence residual
        CG stops on can sit a rounding error below the true one, so each
        stop is confirmed on rhs - a_uu x, and an unconfirmed one resumes
        CG from x, restarted on the true residual with half the threshold.
        Raises SolverDiverged when CG breaks down, when a confirmation
        makes no progress over the previous one (rtol is below what
        rounding allows), or after MAXITER_FACTOR * nx * ny iterations.
        CG runs at unit scale, max |rhs| in [1/2, 1), which a power of two
        reaches exactly; start is scaled in place by the same power, so its
        inner products neither under- nor overflow.  A given start is
        handed over: CG iterates in it, so it is overwritten, and a caller
        that keeps its array passes a copy.  Returns (x, SolveStats) with
        the confirmed eta as the residual.
        """
        if not np.any(rhs):
            return np.zeros(self.n_unknown), SolveStats(0, 0.0)
        # b_norm is max |rhs| at unit scale, the norm the stop test reads
        b_norm, exponent = np.frexp(_max_abs(rhs))
        rhs = np.ldexp(rhs, -exponent)
        if start is None or not np.any(start):
            x, r = np.zeros(self.n_unknown), rhs.copy()
        else:
            x = np.ldexp(start, -exponent, out=start)
            r = rhs - self._apply(x)
        count, tol, last = 0, rtol, np.inf
        while True:
            x, count = self._cg(x, r, tol, b_norm, count)
            r = rhs - self._apply(x)
            error = float(_max_abs(r)
                          / (self._a_norm * _max_abs(x) + b_norm))
            if error <= rtol:
                return np.ldexp(x, exponent), SolveStats(count, error)
            if not error < last:  # also ends a NaN error
                raise SolverDiverged(
                    "stalled at backward error %.3g > rtol %.3g after %d "
                    "iterations" % (error, rtol, count))
            last, tol = error, 0.5 * tol

    def _cg(self, x, r, tol, b_norm, count):
        """Preconditioned CG from x, whose residual is r, until the backward
        error |r| / (|a_uu| |x| + b_norm) is at most tol (infinity norms,
        b_norm = |rhs|).

        The recurrence of scipy.sparse.linalg.cg; x and r are updated in
        place.  |r| <= tol b_norm implies the stop, so |x| is taken only
        when that test fails.  count carries the iterations over restarts.
        Returns (x, count).
        """
        p = rho_prev = None
        while True:
            norm = _max_abs(r)
            if (norm <= tol * b_norm
                    or norm <= tol * (self._a_norm * _max_abs(x) + b_norm)):
                return x, count
            if count >= MAXITER_FACTOR * self.n_unknown:
                raise SolverDiverged("did not converge in %d iterations"
                                     % count)
            z = self._flat_inverse(r)
            rho = r @ z
            if p is None:
                p = z
            else:
                p *= rho / rho_prev
                p += z
            q = self._apply(p)
            curvature = p @ q
            if not (0.0 < rho < np.inf and 0.0 < curvature < np.inf):
                raise SolverDiverged(
                    "broke down after %d iterations (r.Mr = %.3g, p.Ap = %.3g)"
                    % (count, rho, curvature))
            alpha = rho / curvature
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
            count += 1

    def curve_block_symbol(self):
        """rfft symbol, (nx//2 + 1,), of the curve-row block (a_uu^-1)_00
        on a flat curve (all heights equal); None on a curved one.

        There the flat-strip inverse above is exact and its cosine basis
        is 1 on the curve row, so the block is the circulant whose symbol
        is the column sum of _inv_eig.
        """
        return self._inv_eig.sum(axis=0) if self._flat else None

    def curve_block_inverse(self):
        """Curve-row block (a_uu^-1)_00 of the inverse stiffness, (nx, nx).

        The circulant of curve_block_symbol on a flat curve; a curved mesh
        takes the row sweep.  Computed once and kept read-only; on the
        midline both sides are this object, so both read the one block.
        """
        if self._curve_block is None:
            symbol = self.curve_block_symbol()
            if symbol is not None:
                column = np.fft.irfft(symbol, n=self.nx)
                i = np.arange(self.nx)
                block = column[(i[:, None] - i) % self.nx]
            else:
                block = self._row_sweep()
            block.flags.writeable = False
            self._curve_block = block
        return self._curve_block

    def _row_sweep(self):
        """(a_uu^-1)_00 by block elimination over the grid rows.

        a_uu is block tridiagonal over grid rows, with nx x nx diagonal
        blocks D_j and upper blocks U_j coupling row j to row j + 1.
        Block elimination from the wall row toward the curve row keeps
        X = inverse of the current Schur complement:
        X <- (D_j - U_j X U_j^T)^-1.  Each block couples column i to
        columns i - 1, i, i + 1 only, so D_j and U_j hold row j's couplings
        (0, di) and (1, di), and U_j Y is a sum of three rolled copies of Y,
        each row scaled by its coupling.  Each step costs one dense
        inversion, symmetrised so that every X is exactly symmetric.
        """
        nx = self.nx
        i = np.arange(nx)
        shift = (i + np.arange(-1, 2)[:, None]) % nx  # (3, nx): column i + k
        diag, upper = ([self._coupling(dj, di) for di in (-1, 0, 1)]
                       for dj in (0, 1))
        x = np.zeros((nx, nx))  # nothing eliminated: row ny - 1 takes D alone
        for j in range(self.ny - 1, -1, -1):
            # U X U^T = U (U X)^T since X is symmetric.
            u = [c[j] for c in upper]
            s = -_rolled_rows(u, _rolled_rows(u, x).T)
            s[i, shift] += [c[j] for c in diag]
            try:
                x = np.linalg.inv(s)
            except np.linalg.LinAlgError:
                raise SolverDiverged("singular Schur complement in the row "
                                     "sweep at grid row %d" % j) from None
            x = 0.5 * (x + x.T)
        return x

    def wall_coupling(self, wall):
        """a_ud @ wall: row ny - 1 meets the wall through its (1, di)
        couplings, the periodic tridiagonal product of _rolled_rows."""
        out = np.zeros(self.n_unknown)
        coefs = [self._coupling(1, di)[-1] for di in (-1, 0, 1)]
        out[-self.nx:] = _rolled_rows(coefs, wall[:, None])[:, 0]
        return out

    def energy(self, w, slope):
        """Dirichlet energy of u = slope * x + w on the half strip, w of
        shape (ny + 1, nx): the stiffness form
        w.Kw + 2 slope d.w[0] + slope^2 area.

        Every row of the full stiffness K (wall row included) sums to zero,
        so w.Kw = -sum K_e (w_i - w_j)^2 over the forward couplings e.  That
        edge sum does not cancel when w is nearly constant, as w.(Kw) does.
        """
        nx = self.nx
        ghost = np.concatenate([w[:, -1:], w, w[:, :1]], axis=1)
        total = 0.0
        for k, (dj, di) in enumerate(_FORWARD[1:], start=1):
            rows = self.ny + 1 - dj
            diff = w[:rows] - ghost[dj:, 1 + di:1 + di + nx]
            total -= np.sum(self._slabs[k, 1:1 + rows, 1:-1] * diff * diff)
        return float(total + 2.0 * slope * np.dot(self._drift, w[0])
                     + slope * slope * self._area)


@functools.lru_cache(maxsize=16)
def _p1_symbols(n, periodic):
    """2 - 2 cos(theta) and 4 + 2 cos(theta) at the flat-strip modes theta
    of n nodes: 2 pi k / n (k <= n/2) when periodic, else (k + 1/2) pi / n.
    Times 1/h and h/6 they are the symbols of the P1 stiffness and the
    consistent mass.  Cached read-only, like _cosine_basis."""
    theta = (2.0 * np.pi * np.arange(n // 2 + 1) / n if periodic
             else (np.arange(n) + 0.5) * np.pi / n)
    cos = np.cos(theta)
    symbols = np.stack([2.0 - 2.0 * cos, 4.0 + 2.0 * cos])
    symbols.flags.writeable = False
    return symbols


@functools.lru_cache(maxsize=8)
def _cosine_basis(ny):
    """cos((k + 1/2) pi j / ny) at (row j, mode k), the flat-strip
    eigenvectors across the rows.  Every side with ny rows shares this one
    read-only copy."""
    theta_y = (np.arange(ny) + 0.5) * np.pi / ny
    basis = np.cos(np.outer(np.arange(ny), theta_y))
    basis.flags.writeable = False
    return basis


def _max_abs(v):
    """The infinity norm of a vector."""
    return np.abs(v).max()


def _rolled_rows(coef, y):
    """Row i of sum over di = -1, 0, 1 of coef_di[i] y[i + di mod n]: the
    product with the periodic tridiagonal matrix whose row i holds
    coef_-1[i], coef_0[i], coef_+1[i] around the diagonal."""
    ghost = np.concatenate([y[-1:], y, y[:1]])  # ghost[i + 1 + di] = y[i + di]
    out = coef[1][:, None] * y
    out += coef[0][:, None] * ghost[:-2]
    out += coef[2][:, None] * ghost[2:]
    return out


def _stencil_csr(comp):
    """CSR matrix of a half strip's unknown rows, sorted per row (SciPy).

    Row (j, i) holds the coupling (dj, di) at column (j + dj, i + di) for
    dj, di in -1..1, except dj = -1 on the curve row and the wall
    (dj = +1) on row ny - 1.
    """
    import scipy.sparse

    ny, nx = comp.ny, comp.nx
    nine = [comp._coupling(dj, di) for dj in (-1, 0, 1) for di in (-1, 0, 1)]
    stencil = np.stack(nine, axis=1).reshape(ny, 3, 3, nx)
    j, dj, di, i = np.indices(stencil.shape)
    row = j + dj - 1
    keep = (row >= 0) & (row < ny)
    cols = row * nx + (i + di - 1) % nx
    return scipy.sparse.csr_matrix(
        (stencil[keep], ((j * nx + i)[keep], cols[keep])), shape=(nx * ny, nx * ny))


def _half_strip(domain, curve, grid, side):
    """The _Component of one side of the strip slit along curve: the half
    strip above curve ("upper") or above -curve ("lower"), once curve is
    checked to sit on the grid's columns and inside the strip."""
    if curve.m != grid.nx:
        raise ValueError(
            "curve has %d samples but the grid has %d columns; "
            "curve nodes must sit on grid columns" % (curve.m, grid.nx)
        )
    curve.require_inside(domain.half_height)
    if side == "lower":
        curve = geometry.GraphCurve(curve.period, -curve.heights)
    return _Component(domain, curve, grid)


def _state_problem(comp, data, x):
    """(rhs, wall row) of the state solve on a half strip whose wall
    carries the datum data, sampled at the curve abscissae x: the wall's
    coupling and the curve row's drift load moved to the right."""
    wall = data.sample(x)
    rhs = -comp.wall_coupling(wall)
    rhs[:comp.nx] -= data.slope * comp._drift
    return rhs, wall


class StripSystem:
    """Assembled elliptic systems for both components of a slit strip.

    The lower side is the upper side of -psi: y -> -y maps one onto the
    other.  On the midline (every height zero) that is the upper side
    itself, so both sides are one object, with one assembly and one curve
    block.  sides pairs each name with its component, upper first, for
    _solve_sides; JumpCoupling, side_energy and validation name them too.
    """

    def __init__(self, domain, curve, grid):
        self.domain = domain
        self.curve = curve
        self.grid = grid
        self.upper = _half_strip(domain, curve, grid, "upper")
        if np.any(curve.heights):
            self.lower = _half_strip(domain, curve, grid, "lower")
        else:
            self.lower = self.upper
        self.sides = (("upper", self.upper), ("lower", self.lower))

    @property
    def abscissae(self):
        return self.curve.abscissae


class SlitField(Record):
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
        dpsi = curve.derivatives[0]
        du_dx = slope + geometry.periodic_derivatives(w[0], curve.spacing)[0]
        return du_dx / np.sqrt(1.0 + dpsi * dpsi)

    def _pick(self, side):
        if side == "upper":
            return self.slope_upper, self.w_upper
        if side == "lower":
            return self.slope_lower, self.w_lower
        raise ValueError("side must be 'upper' or 'lower'")


def _solve_side(side, comp, rhs, rtol, start=None):
    """comp.solve(rhs, rtol, start) for the named side; the one place that
    pairs a side's name with a solve.  A SolverDiverged is raised again with
    "CG on <side> component" before its message."""
    try:
        return comp.solve(rhs, rtol, start)
    except SolverDiverged as exc:
        raise SolverDiverged("CG on %s component %s" % (side, exc)) from None


def _solve_sides(system, problems, slopes, rtol):
    """CG on each side for its (rhs, wall row), upper first.

    Returns (SlitField with the given drift slopes, SolveStats).
    """
    rows, parts = [], []
    for (side, comp), (rhs, wall) in zip(system.sides, problems):
        u, stats = _solve_side(side, comp, rhs, rtol)
        rows.append(np.vstack([u.reshape(comp.ny, comp.nx), wall]))
        parts.append(stats)
    stats = SolveStats(sum(p.iterations for p in parts),
                       max(p.residual for p in parts), tuple(parts))
    return SlitField(system, *slopes, *rows), stats


def solve_state(domain, curve, grid, rtol=DEFAULT_RTOL):
    """Equilibrium field: harmonic on both sides, Neumann on the cut.

    Dirichlet data on the walls comes from the domain's boundary data;
    the drift slope of each side is handled analytically so only the
    periodic correction is solved for.  Returns (SlitField, SolveStats);
    the wall rows of the result reproduce the data exactly at the nodes.
    """
    system = StripSystem(domain, curve, grid)
    data = (domain.top, domain.bottom)
    problems = [_state_problem(comp, datum, system.abscissae)
                for (_, comp), datum in zip(system.sides, data)]
    return _solve_sides(system, problems,
                        (domain.top.slope, domain.bottom.slope), rtol)


def side_energy(domain, curve, grid, side, rtol=DEFAULT_RTOL, start=None):
    """Dirichlet energy of the state on one side of the strip slit along
    curve, solved on that side's half strip alone.

    side is "upper", above the curve with the datum domain.top, or
    "lower", below it with domain.bottom.  The one _Component is built,
    solved from start (see _Component.solve: start is overwritten) and
    dropped on return.  The two sides' energies sum to the
    dirichlet_energy of solve_state(domain, curve, grid, rtol) to solver
    accuracy, and bit for bit from cold starts.  Returns (energy, the
    side's unknowns, which can start a later solve once copied).
    """
    data = {"upper": domain.top, "lower": domain.bottom}[side]
    comp = _half_strip(domain, curve, grid, side)
    rhs, wall = _state_problem(comp, data, curve.abscissae)
    u, _ = _solve_side(side, comp, rhs, rtol, start)
    w = np.vstack([u.reshape(comp.ny, comp.nx), wall])
    return comp.energy(w, data.slope), u


class JumpCoupling:
    """Weak pairing between curve perturbations and field test functions.

    Encodes C[z, phi] = -int (z_x u_x phi / J) dx summed over both sides
    with the lower side entering with opposite sign, discretized with
    element-constant tangential derivatives and element-average phi.
    Each side's C = sum_e half_e d_e s_e^T over the elements e -> e + 1,
    with d_e = delta_{e+1} - delta_e and s_e = delta_e + delta_{e+1}, is
    stored as its element coefficients half_e only; every product with
    C is an element sum.
    """

    def __init__(self, state):
        system = state.system
        curve = system.curve
        hx = curve.spacing
        j_e = geometry.element_lengths(curve) / hx
        self.nx = system.grid.nx
        self.coefficients = {}  # side -> half_i, one per element i -> i+1
        for side, orientation in (("upper", -1.0), ("lower", +1.0)):
            slope, w = state._pick(side)
            u_xi = slope + geometry.periodic_difference(w[0]) / hx
            self.coefficients[side] = orientation * u_xi / j_e / 2.0

    def dual_matrix(self, blocks):
        """2 sum C^T X C over blocks = {side: X}, in O(nx^2).

        Row then column differences of X give d_e^T X d_f; scaled by
        2 half_e half_f and summed over the sides, each node then sums
        its two adjacent elements, rows then columns.
        """
        i = np.arange(self.nx)
        ip, im = (i + 1) % self.nx, (i - 1) % self.nx
        pairs = np.zeros((self.nx, self.nx))
        for side, x in blocks.items():
            half = self.coefficients[side]
            rows = x[ip] - x
            pairs += (rows[:, ip] - rows) * np.outer(2.0 * half, half)
        nodes = pairs + pairs[im]
        return nodes + nodes[:, im]

    def loads(self, phi):
        """Right-hand sides -C[., phi] on the curve rows of both sides: node
        i takes g_i - g_i-1 with g_e = half_e s_e . phi, O(nx) per side."""
        sums = phi + np.roll(phi, -1)
        out = []
        for side in ("upper", "lower"):
            g = self.coefficients[side] * sums
            out.append(g - np.roll(g, 1))
        return tuple(out)

    def dual_vector(self, field):
        """r with r . psi = -2 C[v, psi] for a solved perturbation field v:
        node i takes -2 (q_i + q_i-1) with q_e = sum_+- half_e d_e . v."""
        q = sum(self.coefficients[side]
                * geometry.periodic_difference(field._pick(side)[1][0])
                for side in ("upper", "lower"))
        return -2.0 * (q + np.roll(q, 1))


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
    for (_, comp), load in zip(system.sides, coupling.loads(phi)):
        rhs = np.zeros(comp.n_unknown)
        rhs[: comp.nx] = load
        problems.append((rhs, np.zeros(comp.nx)))
    return _solve_sides(system, problems, (0.0, 0.0), rtol)


def dirichlet_energy(field):
    """Integral of |grad u|^2 over both sides: the stiffness form.

    The energy is read from the assembled stiffness and the closed-form
    drift load of each side (_Component.energy), so energy differences
    and assembled quadratic forms can be compared at solver accuracy.
    """
    system = field.system
    return (system.upper.energy(field.w_upper, field.slope_upper)
            + system.lower.energy(field.w_lower, field.slope_lower))
