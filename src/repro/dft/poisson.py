"""Finite-difference Poisson solvers: weighted Jacobi and multigrid.

Solves ``laplace(phi) = -4 pi rho`` (Gaussian units, GPAW's convention for
the Hartree potential).  Two solvers:

* weighted Jacobi — simple, used as the multigrid smoother and as a
  reference;
* a V-cycle multigrid — full-weighting restriction, trilinear
  prolongation, Jacobi smoothing on every level, coarsest level solved
  exactly.  Converges in about 15 cycles on smooth problems whatever the
  grid size; a grid that cannot be coarsened is its own coarsest level
  and converges in one.

Boundary conditions come from the grid descriptor: zero boundary for
finite systems, periodic for crystals.  A fully periodic problem is only
solvable when the total charge vanishes; the solver enforces a zero-mean
right-hand side (and potential) in that case, matching the physics of a
compensating background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.workspace import Workspace
from repro.dft.operators import Laplacian
from repro.grid.grid import GridDescriptor

#: the weighted-Jacobi damping every smoother sweep uses
JACOBI_OMEGA = 2 / 3


@dataclass
class PoissonResult:
    """Solution + convergence record."""

    potential: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _jacobi_sweeps(
    lap: Laplacian,
    phi: np.ndarray,
    rhs: np.ndarray,
    sweeps: int,
    omega: float = JACOBI_OMEGA,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """``sweeps`` weighted-Jacobi iterations on laplace(phi) = rhs.

    Updates ``phi`` in place (every caller owns its array) and runs the
    residual through one :class:`Workspace`-borrowed buffer instead of
    allocating a fresh array per sweep; numerically bit-identical to the
    allocating formulation it replaces.
    """
    coef = omega * (1.0 / lap.diagonal)
    ws = workspace if workspace is not None else Workspace()
    lap_buf = ws.borrow(phi.shape, phi.dtype)
    try:
        for _ in range(sweeps):
            lap.apply(phi, out=lap_buf, workspace=ws)
            np.subtract(rhs, lap_buf, out=lap_buf)
            lap_buf *= coef
            phi += lap_buf
    finally:
        ws.release(lap_buf)
    return phi


def _restrict(fine: np.ndarray) -> np.ndarray:
    """Full-weighting restriction by averaging 2^3 cells (even shapes)."""
    s = fine.shape
    return (
        fine.reshape(s[0] // 2, 2, s[1] // 2, 2, s[2] // 2, 2).mean(axis=(1, 3, 5))
    )


def _prolong_axis(
    a: np.ndarray, axis: int, periodic: bool, alpha: float
) -> np.ndarray:
    """Cell-centered linear interpolation doubling one axis.

    Fine cell ``2i`` sits a quarter-cell below coarse centre ``i``, fine
    cell ``2i+1`` a quarter above: values are ``3/4 a_i + 1/4 a_{i -/+ 1}``.
    Beyond a zero boundary the coarse ghost cell holds ``-alpha`` times
    its edge cell (see :class:`_CoarseLaplacian`); periodic wraps.
    """
    n = a.shape[axis]
    idx = np.arange(n)
    if periodic:
        prev = np.take(a, (idx - 1) % n, axis=axis)
        nxt = np.take(a, (idx + 1) % n, axis=axis)
    else:
        prev = np.take(a, np.maximum(idx - 1, 0), axis=axis)
        nxt = np.take(a, np.minimum(idx + 1, n - 1), axis=axis)
        # zero outside the domain: edge cells have no outer neighbour
        edge_lo = [slice(None)] * a.ndim
        edge_lo[axis] = slice(0, 1)
        edge_hi = [slice(None)] * a.ndim
        edge_hi[axis] = slice(n - 1, n)
        prev = prev.copy()
        nxt = nxt.copy()
        prev[tuple(edge_lo)] = -alpha * a[tuple(edge_lo)]
        nxt[tuple(edge_hi)] = -alpha * a[tuple(edge_hi)]
    even = 0.75 * a + 0.25 * prev
    odd = 0.75 * a + 0.25 * nxt
    out_shape = list(a.shape)
    out_shape[axis] = 2 * n
    out = np.empty(out_shape, dtype=a.dtype)
    sl_even = [slice(None)] * a.ndim
    sl_even[axis] = slice(0, 2 * n, 2)
    sl_odd = [slice(None)] * a.ndim
    sl_odd[axis] = slice(1, 2 * n, 2)
    out[tuple(sl_even)] = even
    out[tuple(sl_odd)] = odd
    return out


def _prolong(
    coarse: np.ndarray, pbc: tuple[bool, bool, bool], alpha: float
) -> np.ndarray:
    """Trilinear cell-centered prolongation (order 2, stable V-cycles)."""
    out = coarse
    for axis in range(3):
        out = _prolong_axis(out, axis, pbc[axis], alpha)
    return out


class _CoarseLaplacian(Laplacian):
    """A coarse level's radius-1 Laplacian with the fine grid's boundary.

    The fine grid's zero boundary lies one fine spacing ``h`` beyond its
    edge points.  A coarse cell of spacing ``H`` averages ``H/h`` fine
    points, so its centre sits ``(H + h)/2`` inside that surface; a zero
    ghost one coarse cell out would move the boundary outward and make
    every coarse level a larger box than the fine one (coarse corrections
    then overshoot the smoothest error, and an exact coarsest solve
    diverges at 32^3).  Extrapolating linearly through zero at the true
    surface puts ``-alpha * u_edge`` in the ghost instead, with
    ``alpha = (H - h)/(H + h)``: a correction to the edge cells' diagonal.
    """

    def __init__(self, grid: GridDescriptor, fine_spacing: float):
        super().__init__(grid, radius=1)
        ratio = grid.spacing / fine_spacing
        self.alpha = (ratio - 1) / (ratio + 1)

    def apply(
        self,
        array: np.ndarray,
        out: np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        out = super().apply(array, out=out, workspace=workspace)
        edge = -self.alpha * self.coeffs.weights[0]
        for axis, periodic in enumerate(self.grid.pbc):
            if periodic:
                continue
            for index in (0, -1):
                face = [slice(None)] * 3
                face[axis] = index
                out[tuple(face)] += edge * array[tuple(face)]
        return out


class _ExactSolver:
    """Exact solve of ``laplace(e) = r`` on one level's grid.

    The FD Laplacian is a sum of one 1D operator per axis, so the tensor
    product of the three 1D eigenbases diagonalizes it (fast
    diagonalization): a basis change, a division and the way back.  The
    cost is O(n^4) per solve, cheap on the coarsest level.  On a fully
    periodic grid the constant null mode is dropped, which gives the
    zero-mean solution.  ``alpha`` is the zero-boundary ghost factor of
    :class:`_CoarseLaplacian` (0 on the finest level).
    """

    def __init__(self, lap: Laplacian, alpha: float = 0.0):
        grid, coeffs = lap.grid, lap.coeffs
        self.bases = []
        eigenvalues = np.full(grid.shape, coeffs.center)
        for axis, (n, periodic) in enumerate(zip(grid.shape, grid.pbc)):
            op = np.zeros((n, n))
            rows = np.arange(n)
            for dist, w in enumerate(coeffs.weights, start=1):
                for cols in (rows - dist, rows + dist):
                    if periodic:
                        np.add.at(op, (rows, cols % n), w)
                    else:
                        # zero boundary: neighbours outside the grid drop out
                        inside = (cols >= 0) & (cols < n)
                        op[rows[inside], cols[inside]] += w
            if not periodic:
                op[0, 0] -= alpha * coeffs.weights[0]
                op[-1, -1] -= alpha * coeffs.weights[0]
            values, basis = np.linalg.eigh(op)
            self.bases.append(basis)
            shape = [1, 1, 1]
            shape[axis] = n
            eigenvalues = eigenvalues + values.reshape(shape)
        null = np.abs(eigenvalues) <= 1e-10 * np.abs(eigenvalues).max()
        self.inverse = np.zeros(grid.shape)
        self.inverse[~null] = 1.0 / eigenvalues[~null]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        qx, qy, qz = self.bases
        coef = np.einsum("ia,jb,kc,ijk->abc", qx, qy, qz, rhs, optimize=True)
        coef *= self.inverse
        return np.einsum("ia,jb,kc,abc->ijk", qx, qy, qz, coef, optimize=True)


class PoissonSolver:
    """Iterative solver for ``laplace(phi) = -4 pi rho``."""

    def __init__(
        self,
        grid: GridDescriptor,
        radius: int = 2,
        method: str = "multigrid",
        tolerance: float = 1e-8,
        max_iterations: int = 500,
    ):
        if method not in ("jacobi", "multigrid"):
            raise ValueError(f"method must be 'jacobi' or 'multigrid', got {method!r}")
        self.grid = grid
        self.radius = radius
        self.method = method
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.laplacian = Laplacian(grid, radius)
        #: the buffer arena every smoother sweep and residual borrows from
        self.workspace = Workspace()
        self._levels = self._build_levels() if method == "multigrid" else []
        if method == "multigrid":
            # a grid that cannot be coarsened is its own coarsest level
            self._exact = (
                _ExactSolver(self._levels[-1], self._levels[-1].alpha)
                if self._levels
                else _ExactSolver(self.laplacian)
            )

    # -- setup --------------------------------------------------------------
    def _build_levels(self) -> list[_CoarseLaplacian]:
        """Coarser Laplacians for the V-cycle (shape halved per level)."""
        levels = []
        shape = self.grid.shape
        spacing = self.grid.spacing
        while all(s % 2 == 0 and s // 2 >= 4 for s in shape):
            shape = tuple(s // 2 for s in shape)
            spacing *= 2
            coarse = GridDescriptor(
                shape, pbc=self.grid.pbc, spacing=spacing, dtype=self.grid.dtype
            )
            # radius-1 stencils are enough on coarse correction grids
            levels.append(_CoarseLaplacian(coarse, self.grid.spacing))
        return levels

    @property
    def fully_periodic(self) -> bool:
        return all(self.grid.pbc)

    # -- solving -------------------------------------------------------------
    def solve(
        self, rho: np.ndarray, initial: np.ndarray | None = None
    ) -> PoissonResult:
        """Solve for the potential of charge density ``rho``."""
        self.grid.check_array(rho, "rho")
        rhs = -4.0 * np.pi * rho
        if self.fully_periodic:
            mean = rhs.mean()
            if abs(mean) > 1e-12 * max(1.0, float(np.abs(rhs).max())):
                # neutralizing background: subtract the mean (G=0 term)
                rhs = rhs - mean
        phi = (
            np.zeros_like(rhs)
            if initial is None
            else np.array(initial, dtype=rhs.dtype, copy=True)
        )
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return PoissonResult(phi, 0.0, 0, True)

        for it in range(1, self.max_iterations + 1):
            if self.method == "jacobi":
                phi = _jacobi_sweeps(self.laplacian, phi, rhs, sweeps=1,
                                     workspace=self.workspace)
            else:
                phi = self._v_cycle(0, phi, rhs)
            if self.fully_periodic:
                phi = phi - phi.mean()
            lap_buf = self.workspace.borrow(phi.shape, phi.dtype)
            try:
                self.laplacian.apply(phi, out=lap_buf,
                                     workspace=self.workspace)
                np.subtract(rhs, lap_buf, out=lap_buf)
                residual = float(np.linalg.norm(lap_buf))
            finally:
                self.workspace.release(lap_buf)
            if residual <= self.tolerance * rhs_norm:
                return PoissonResult(phi, residual, it, True)
        return PoissonResult(phi, residual, self.max_iterations, False)

    def _v_cycle(self, level: int, phi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One V-cycle starting at ``level`` (0 = finest)."""
        lap = self.laplacian if level == 0 else self._levels[level - 1]
        ws = self.workspace
        phi = _jacobi_sweeps(lap, phi, rhs, sweeps=2, workspace=ws)
        lap_buf = ws.borrow(phi.shape, phi.dtype)
        try:
            lap.apply(phi, out=lap_buf, workspace=ws)
            np.subtract(rhs, lap_buf, out=lap_buf)
            phi += self.coarse_correction(lap_buf, level)
        finally:
            ws.release(lap_buf)
        phi = _jacobi_sweeps(lap, phi, rhs, sweeps=2, workspace=ws)
        return phi

    def coarse_correction(self, residual: np.ndarray, level: int = 0) -> np.ndarray:
        """The correction for ``level``'s residual from the levels below.

        Restricts the residual one level down, solves for the error there
        (exactly on the coarsest level, else by one V-cycle from zero) and
        prolongs it back onto ``level``'s grid.  A grid that cannot be
        coarsened has no level below; its correction is the exact
        solution of the residual equation.  The distributed solver calls
        it on the gathered finest-level residual.
        """
        if level == len(self._levels):
            return self._exact.solve(residual)
        coarse_rhs = _restrict(residual)
        if self.fully_periodic:
            coarse_rhs -= coarse_rhs.mean()
        if level + 1 == len(self._levels):
            correction = self._exact.solve(coarse_rhs)
        else:
            correction = self._v_cycle(
                level + 1, np.zeros_like(coarse_rhs), coarse_rhs
            )
        return _prolong(correction, self.grid.pbc, self._levels[level].alpha)
