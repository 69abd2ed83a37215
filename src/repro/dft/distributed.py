"""Distributed Poisson solving on top of the FD engine.

GPAW's Poisson equation is the *other* consumer of the paper's stencil
(section II) — and unlike the wave-function workload it has exactly one
grid, so batching cannot help and every smoothing sweep pays its halo
exchange in line.  This module composes the library's pieces into a
distributed multigrid V-cycle, the same cycle as
:class:`~repro.dft.poisson.PoissonSolver` (2 + 2 weighted-Jacobi sweeps,
full-weighting restriction, trilinear prolongation, coarsest level
solved exactly):

* only the finest level is distributed: its smoothing sweeps and
  residuals are :class:`~repro.core.engine.DistributedStencil`
  applications (any approach's exchange schedule works; results are
  identical),
* once per cycle the fine residual is gathered onto every rank by one
  allreduce of zero-padded global arrays; every rank then runs the
  sequential solver's coarse levels on the same data and adds its own
  block of the prolonged correction (a grid that cannot be coarsened is
  its own coarsest level: every rank solves it exactly, and the solve
  converges in one cycle),
* the convergence decision costs one scalar allreduce per cycle and is
  collective, so all ranks stop on the same cycle.

Gathering the coarse levels keeps one code path and works for the odd
block sizes that rule out per-block restriction.  It costs O(N) work and
an O(N) allreduce per rank and cycle; on ``scf-16`` (16^3, P=2) one
distributed coarse exchange would cost more than half a gathered 8^3
V-cycle, and no larger P has been measured.

It is the library's end-to-end composition test: a real PDE solved by the
distributed engine must match the sequential multigrid solver to
round-off (the gathered residual is exact, the coarse work identical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approaches import Approach, FLAT_OPTIMIZED
from repro.core.engine import DistributedStencil
from repro.dft.poisson import JACOBI_OMEGA, PoissonSolver
from repro.grid.array import LocalGrid
from repro.grid.decompose import Decomposition
from repro.grid.grid import GridDescriptor
from repro.grid.halo import HaloSpec
from repro.stencil.coefficients import laplacian_coefficients
from repro.transport.errors import TransportError
from repro.transport.inproc import RankEndpoint, run_ranks


class PoissonConvergenceError(TransportError):
    """A distributed Poisson solve stopped at ``max_cycles`` unconverged.

    A numerical failure, not a transport one.  It joins the transport
    error taxonomy so that :func:`~repro.transport.inproc.run_ranks`
    re-raises it as this type, and it is not transient, so the supervisor
    and :class:`~repro.dft.recovery.RecoveryController` treat it as fatal.
    """

    transient = False


@dataclass
class DistributedPoissonResult:
    """Solution + convergence record.

    ``potential`` is the gathered grid from :meth:`DistributedPoissonSolver
    .solve` and the rank's interior block from ``solve_rank``.  ``sweeps``
    counts V-cycles.
    """

    potential: np.ndarray
    residual_norm: float
    sweeps: int
    converged: bool


class DistributedPoissonSolver:
    """Multigrid V-cycle Poisson solver over a rank set.

    Solves ``laplace(phi) = -4 pi rho`` with the distributed stencil on
    the finest level and the gathered coarse levels of a sequential
    :class:`~repro.dft.poisson.PoissonSolver`.
    """

    def __init__(
        self,
        grid: GridDescriptor,
        n_ranks: int,
        radius: int = 2,
        tolerance: float = 1e-6,
        max_cycles: int = 500,
        approach: Approach = FLAT_OPTIMIZED,
    ):
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        self.grid = grid
        self.decomp = Decomposition(grid, n_ranks)
        self.coeffs = laplacian_coefficients(radius, spacing=grid.spacing)
        #: the finest level's stencil; every sweep and residual runs here
        self.engine = DistributedStencil(self.decomp, self.coeffs)
        self.halo = HaloSpec(radius)
        self.tolerance = tolerance
        self.max_cycles = max_cycles
        self.approach = approach
        #: the coarse levels every rank runs on the gathered residual
        self.coarse = PoissonSolver(grid, radius=radius, method="multigrid")
        # Compile the exchange schedule once up front; every sweep's
        # apply() re-executes this plan via the cache (one grid: the
        # Poisson workload batching cannot help).
        self.plan = self.engine.plan_for(approach, 1)

    @property
    def fully_periodic(self) -> bool:
        return all(self.grid.pbc)

    # -- per-rank worker ---------------------------------------------------------
    def solve_rank(
        self, ep: RankEndpoint, rho_interior: np.ndarray
    ) -> DistributedPoissonResult:
        """This rank's part of the solve for its interior block of ``rho``.

        ``ep`` is any endpoint whose ranks are this solver's domains (a
        band group's :class:`~repro.transport.inproc.GroupEndpoint` too).
        All ranks must call it together; they return the same
        ``sweeps``/``converged``.
        """
        block = self.decomp.block_slices(ep.rank)
        periodic = self.fully_periodic
        n_points = self.grid.n_points
        rhs = -4.0 * np.pi * rho_interior
        if periodic:
            # neutralizing background: subtract the global mean of the rhs
            rhs -= ep.allreduce(rhs.sum())[0] / n_points
        rhs_norm = float(np.sqrt(ep.allreduce(np.sum(rhs * rhs))[0]))

        phi = LocalGrid(self.decomp, ep.rank, self.halo)
        if rhs_norm == 0.0:
            return DistributedPoissonResult(phi.interior, 0.0, 0, True)

        coef = JACOBI_OMEGA * (1.0 / self.coeffs.center)
        glob = np.empty(self.grid.shape)
        lap = None
        # phi starts at zero, so its residual is the rhs itself
        res = rhs.copy()

        def residual() -> None:
            nonlocal lap
            lap = self.engine.apply(ep, {0: phi}, approach=self.approach, out=lap)
            np.subtract(rhs, lap[0].interior, out=res)

        def sweep() -> None:
            # one weighted-Jacobi step from the residual held in ``res``
            np.multiply(res, coef, out=res)
            phi.interior[...] += res

        for cycle in range(1, self.max_cycles + 1):
            # pre-smoothing; ``res`` already holds phi's residual
            sweep()
            residual()
            sweep()
            residual()
            glob.fill(0.0)
            glob[block] = res
            exact = ep.allreduce(glob).reshape(glob.shape)
            phi.interior[...] += self.coarse.coarse_correction(exact)[block]
            # post-smoothing
            residual()
            sweep()
            residual()
            sweep()
            # the check's residual is also the next cycle's first sweep's
            residual()
            r2 = float(np.sum(res * res))
            if periodic:
                # one reduction for the check and the potential's mean;
                # the residual is blind to the constant it removes
                phi_sum, r2 = ep.allreduce([phi.interior.sum(), r2])
                phi.interior[...] -= phi_sum / n_points
            else:
                r2 = ep.allreduce(r2)[0]
            residual_norm = float(np.sqrt(r2))
            if residual_norm <= self.tolerance * rhs_norm:
                return DistributedPoissonResult(
                    phi.interior, residual_norm, cycle, True
                )
        return DistributedPoissonResult(
            phi.interior, residual_norm, self.max_cycles, False
        )

    # -- public API --------------------------------------------------------------
    def solve(self, rho: np.ndarray) -> DistributedPoissonResult:
        """Solve on rank threads and gather the potential."""
        self.grid.check_array(rho, "rho")
        decomp = self.decomp
        results = run_ranks(
            decomp.n_domains,
            lambda ep: self.solve_rank(ep, rho[decomp.block_slices(ep.rank)]),
        )
        potential = np.empty(self.grid.shape)
        for rank, r in enumerate(results):
            potential[decomp.block_slices(rank)] = r.potential
        first = results[0]
        # collective decisions must agree across ranks
        assert all(
            r.sweeps == first.sweeps and r.converged == first.converged
            for r in results
        )
        return DistributedPoissonResult(
            potential, first.residual_norm, first.sweeps, first.converged
        )
