"""End-to-end composition tests: distributed Poisson over the FD engine."""

import numpy as np
import pytest

from repro.core.approaches import ALL_APPROACHES, FLAT_ORIGINAL
from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.dft import Laplacian, PoissonSolver
from repro.dft.distributed import DistributedPoissonSolver
from repro.dft.distributed_scf import DistributedSCF
from repro.grid import GridDescriptor
from repro.transport import InprocTransport, run_ranks


def gaussian_rho(gd):
    x, y, z = gd.coordinates()
    c = (gd.shape[0] + 1) * gd.spacing / 2
    r2 = (x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2
    return np.exp(-r2 / 2.0)


class TestAllreduce:
    def test_sums_across_ranks(self):
        def fn(ep):
            return ep.allreduce(float(ep.rank + 1))

        results = run_ranks(4, fn)
        for r in results:
            assert r[0] == pytest.approx(10.0)

    def test_array_payload(self):
        def fn(ep):
            return ep.allreduce(np.array([1.0, 10.0 * ep.rank]))

        results = run_ranks(3, fn)
        for r in results:
            np.testing.assert_allclose(r, [3.0, 30.0])

    def test_single_rank(self):
        def fn(ep):
            return ep.allreduce(np.array([7.0]))

        assert run_ranks(1, fn)[0][0] == 7.0

    def test_sequential_rounds_do_not_cross(self):
        def fn(ep):
            first = ep.allreduce(1.0)[0]
            second = ep.allreduce(100.0)[0]
            return (first, second)

        for first, second in run_ranks(4, fn):
            assert (first, second) == (4.0, 400.0)


class TestDistributedPoisson:
    @pytest.mark.parametrize("pbc", [False, True], ids=["zero", "periodic"])
    @pytest.mark.parametrize(
        "n, n_ranks",
        [(12, 1), (12, 2), (12, 3), (12, 4), (12, 8), (8, 3), (10, 2),
         (16, 8), (15, 2)],
    )
    def test_matches_sequential_multigrid(self, n, n_ranks, pbc):
        """The distributed V-cycle is the sequential one: the gathered
        residual is exact and the coarse levels are the same code, so
        three cycles track the sequential solver to round-off (8^3 at
        P=3 and 10^3 at P=2 have odd block sizes; 15^3 has no coarse
        level, so its fine level is the exactly solved coarsest).  With
        zero boundaries every reduction adds exact zeros: bit-identical."""
        gd = GridDescriptor((n, n, n), pbc=(pbc,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        cycles = 3

        dist = DistributedPoissonSolver(
            gd, n_ranks=n_ranks, tolerance=0.0, max_cycles=cycles
        )
        got = dist.solve(rho)

        seq = PoissonSolver(
            gd, method="multigrid", tolerance=0.0, max_iterations=cycles
        )
        expected = seq.solve(rho)

        if pbc:
            np.testing.assert_allclose(
                got.potential, expected.potential, atol=1e-12
            )
        else:
            np.testing.assert_array_equal(got.potential, expected.potential)
        assert got.sweeps == cycles

    def test_scf16_density_converges_in_few_cycles(self):
        """The benchmark's scf-16 problem (the 16^3 trap density) at the
        SCF's tolerance: a few dozen V-cycles at most, where a Jacobi
        loop needs ~1700 sweeps."""
        n, h = 16, 0.45
        gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=h)
        x, y, z = gd.coordinates()
        c = (n + 1) * h / 2
        v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
        spec = JobSpec(
            problem=ProblemSpec.from_grid(gd, 4),
            layout=LayoutSpec(n_cores=1),
            runtime=RuntimeSpec(tolerance=0.0, max_iterations=1),
        )
        rho = DistributedSCF.from_spec(spec, v).run().density
        got = DistributedPoissonSolver(gd, n_ranks=2, tolerance=1e-7).solve(rho)
        assert got.converged
        assert got.sweeps <= 25

    @pytest.mark.parametrize("pbc", [False, True], ids=["zero", "periodic"])
    @pytest.mark.parametrize("n", [13, 15, 22, 30])
    def test_grids_with_few_coarse_levels_converge(self, n, pbc):
        """Odd edges have no coarse level and 2 x odd edges a large
        coarsest one; the exact coarsest solve keeps them at the SCF's
        tolerance well inside the SCF's cycle cap, where a relaxed
        coarsest level needed over 200 cycles at 30^3."""
        gd = GridDescriptor((n, n, n), pbc=(pbc,) * 3, spacing=0.45)
        got = DistributedPoissonSolver(
            gd, n_ranks=2, tolerance=1e-7, max_cycles=25
        ).solve(gaussian_rho(gd))
        assert got.converged

    def test_converges_to_multigrid_solution(self):
        gd = GridDescriptor((12, 12, 12), pbc=(False,) * 3, spacing=0.6)
        rho = gaussian_rho(gd)
        dist = DistributedPoissonSolver(gd, n_ranks=8, tolerance=1e-8,
                                        max_cycles=500)
        got = dist.solve(rho)
        assert got.converged
        mg = PoissonSolver(gd, tolerance=1e-10).solve(rho)
        np.testing.assert_allclose(got.potential, mg.potential, atol=1e-5)

    def test_solution_satisfies_pde(self):
        gd = GridDescriptor((12, 12, 12), pbc=(False,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        got = DistributedPoissonSolver(gd, n_ranks=2, tolerance=1e-9,
                                       max_cycles=500).solve(rho)
        assert got.converged
        lhs = Laplacian(gd).apply(got.potential)
        rhs = -4 * np.pi * rho
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs) * 10

    def test_periodic_neutralization(self):
        gd = GridDescriptor((8, 8, 8), spacing=0.5)  # fully periodic
        rho = gaussian_rho(gd)  # non-neutral on purpose
        got = DistributedPoissonSolver(gd, n_ranks=4, tolerance=1e-7,
                                       max_cycles=500).solve(rho)
        assert got.converged
        assert abs(got.potential.mean()) < 1e-9

    @pytest.mark.parametrize(
        "approach", [a for a in ALL_APPROACHES], ids=lambda a: a.name
    )
    def test_every_approach_gives_same_answer(self, approach):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3, spacing=0.5)
        rho = gaussian_rho(gd)
        ref = DistributedPoissonSolver(
            gd, n_ranks=4, tolerance=0.0, max_cycles=10
        ).solve(rho)
        got = DistributedPoissonSolver(
            gd, n_ranks=4, tolerance=0.0, max_cycles=10, approach=approach
        ).solve(rho)
        np.testing.assert_allclose(got.potential, ref.potential, atol=1e-13)

    def test_zero_rhs(self):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3)
        got = DistributedPoissonSolver(gd, n_ranks=2).solve(gd.zeros())
        assert got.converged
        assert got.sweeps == 0
        np.testing.assert_array_equal(got.potential, 0.0)

    def test_invalid_max_cycles(self):
        gd = GridDescriptor((8, 8, 8))
        with pytest.raises(ValueError):
            DistributedPoissonSolver(gd, n_ranks=2, max_cycles=0)

    def test_rho_shape_checked(self):
        gd = GridDescriptor((8, 8, 8))
        solver = DistributedPoissonSolver(gd, n_ranks=2)
        with pytest.raises(ValueError):
            solver.solve(np.zeros((4, 4, 4)))
