"""Tests for the Poisson solvers and grid operators."""

import numpy as np
import pytest

from repro.dft import Laplacian, Kinetic, PoissonSolver
from repro.grid import GridDescriptor


class TestOperators:
    def test_laplacian_of_constant_is_zero_periodic(self):
        gd = GridDescriptor((8, 8, 8), spacing=0.3)
        lap = Laplacian(gd)
        np.testing.assert_allclose(lap(np.full(gd.shape, 2.5)), 0.0, atol=1e-10)

    def test_laplacian_of_quadratic(self):
        gd = GridDescriptor((16, 16, 16), pbc=(False,) * 3, spacing=0.25)
        lap = Laplacian(gd)
        x, y, z = gd.coordinates()
        out = lap(x**2 + y**2 + z**2)
        np.testing.assert_allclose(out[3:-3, 3:-3, 3:-3], 6.0, rtol=1e-9)

    def test_kinetic_is_minus_half_laplacian(self):
        gd = GridDescriptor((8, 8, 8))
        a = gd.random(seed=1)
        np.testing.assert_allclose(
            Kinetic(gd).apply(a), -0.5 * Laplacian(gd).apply(a), rtol=1e-12
        )

    def test_shape_checked(self):
        gd = GridDescriptor((8, 8, 8))
        with pytest.raises(ValueError):
            Laplacian(gd).apply(np.zeros((4, 4, 4)))


def gaussian_rho_phi(gd, sigma=0.6):
    """A Gaussian charge and its exact potential (for zero-BC tests the
    box must be large enough that the boundary potential ~ q/r)."""
    x, y, z = gd.coordinates()
    cx = (gd.shape[0] + 1) * gd.spacing / 2
    r2 = (x - cx) ** 2 + (y - cx) ** 2 + (z - cx) ** 2
    rho = np.exp(-r2 / (2 * sigma**2)) / (sigma**3 * (2 * np.pi) ** 1.5)
    from scipy.special import erf

    r = np.sqrt(np.maximum(r2, 1e-12))
    phi = erf(r / (np.sqrt(2) * sigma)) / r
    return rho, phi


class TestPoissonJacobi:
    def test_zero_rhs_gives_zero(self):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3)
        res = PoissonSolver(gd, method="jacobi").solve(gd.zeros())
        assert res.converged
        np.testing.assert_array_equal(res.potential, 0.0)

    def test_residual_decreases(self):
        gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3)
        solver = PoissonSolver(gd, method="jacobi", max_iterations=50, tolerance=0)
        rho = gd.random(seed=2)
        res = solver.solve(rho)
        rhs = -4 * np.pi * rho
        assert res.residual_norm < np.linalg.norm(rhs)


class TestPoissonMultigrid:
    def test_converges_fast(self):
        gd = GridDescriptor((16, 16, 16), pbc=(False,) * 3, spacing=0.5)
        rho, _ = gaussian_rho_phi(gd, sigma=1.0)
        res = PoissonSolver(gd, tolerance=1e-8).solve(gd.zeros() + rho)
        assert res.converged
        assert res.iterations <= 30

    def test_matches_gaussian_potential(self):
        """Against the analytic solution of a Gaussian charge (interior
        points, away from the zero-boundary error)."""
        gd = GridDescriptor((32, 32, 32), pbc=(False,) * 3, spacing=0.5)
        rho, phi_exact = gaussian_rho_phi(gd, sigma=1.2)
        res = PoissonSolver(gd, tolerance=1e-9).solve(rho)
        assert res.converged
        # Compare in the central region.  The dominant error is the zero-
        # boundary truncation: the exact potential at the box edge is
        # ~q/(L/2) ~ 0.125, which the finite box forces to zero, shifting
        # the whole solution down by roughly that constant.  The *shape*
        # must match much more tightly than the absolute value.
        c = slice(12, 20)
        diff = res.potential[c, c, c] - phi_exact[c, c, c]
        peak = np.abs(phi_exact[c, c, c]).max()
        assert np.abs(diff).max() / peak < 0.25  # absolute, boundary-limited
        assert diff.std() / peak < 0.02  # shape: offset is nearly constant

    def test_verifies_laplacian_identity(self):
        """laplace(phi) must equal -4 pi rho to solver tolerance."""
        gd = GridDescriptor((16, 16, 16), pbc=(False,) * 3, spacing=0.4)
        rho, _ = gaussian_rho_phi(gd, sigma=0.9)
        res = PoissonSolver(gd, tolerance=1e-10).solve(rho)
        lhs = Laplacian(gd).apply(res.potential)
        rhs = -4 * np.pi * rho
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs) * 10

    def test_periodic_neutralized(self):
        """Fully periodic: non-neutral charge gets a background; the
        solution satisfies the neutralized equation with zero mean."""
        gd = GridDescriptor((16, 16, 16), spacing=0.5)
        rho = gd.random(seed=3) + 1.0  # deliberately non-neutral
        res = PoissonSolver(gd, tolerance=1e-8).solve(rho)
        assert res.converged
        assert abs(res.potential.mean()) < 1e-10
        rhs = -4 * np.pi * rho
        rhs = rhs - rhs.mean()
        lhs = Laplacian(gd).apply(res.potential)
        assert np.linalg.norm(lhs - rhs) < 1e-6 * np.linalg.norm(rhs)

    def test_initial_guess_speeds_resolve(self):
        gd = GridDescriptor((16, 16, 16), pbc=(False,) * 3, spacing=0.5)
        rho, _ = gaussian_rho_phi(gd, sigma=1.0)
        solver = PoissonSolver(gd, tolerance=1e-8)
        first = solver.solve(rho)
        again = solver.solve(rho, initial=first.potential)
        assert again.iterations <= first.iterations

    def test_odd_shapes_fall_back_gracefully(self):
        """Shapes that cannot be halved still solve (no coarse levels)."""
        gd = GridDescriptor((9, 9, 9), pbc=(False,) * 3, spacing=0.5)
        solver = PoissonSolver(gd, tolerance=1e-6, max_iterations=3000)
        assert solver._levels == []
        rho, _ = gaussian_rho_phi(gd, sigma=1.0)
        res = solver.solve(rho)
        assert res.converged
        # the finest level is the coarsest one, solved exactly
        assert res.iterations == 1

    @pytest.mark.parametrize("pbc", [(False,) * 3, (True,) * 3,
                                     (False, True, False)])
    @pytest.mark.parametrize("shape", [(8, 8, 8), (9, 10, 11), (6, 12, 5)])
    def test_exact_coarsest_solve(self, shape, pbc):
        """The coarsest-level solver inverts the Laplacian it is built
        from (zero-mean on fully periodic grids)."""
        from repro.dft.poisson import _ExactSolver

        gd = GridDescriptor(shape, pbc=pbc, spacing=0.7)
        lap = Laplacian(gd)
        rhs = gd.random(seed=4)
        if all(pbc):
            rhs -= rhs.mean()
        e = _ExactSolver(lap).solve(rhs)
        np.testing.assert_allclose(lap.apply(e), rhs, atol=1e-12)
        if all(pbc):
            assert abs(e.mean()) < 1e-14

    @pytest.mark.parametrize("n", [16, 22, 24, 32])
    def test_cycle_count_flat_in_grid_size(self, n):
        """Coarse levels keep the fine grid's zero boundary, so the
        exactly solved coarsest level does not over-correct: the cycle
        count stays flat (with a plain zero ghost on every level it grew
        to 62 at 24^3 and diverged at 32^3)."""
        gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=0.45)
        rho, _ = gaussian_rho_phi(gd, sigma=1.0)
        res = PoissonSolver(gd, tolerance=1e-8).solve(rho)
        assert res.converged
        assert res.iterations <= 20

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            PoissonSolver(GridDescriptor((8, 8, 8)), method="fft")

    def test_rho_shape_checked(self):
        solver = PoissonSolver(GridDescriptor((8, 8, 8)))
        with pytest.raises(ValueError):
            solver.solve(np.zeros((4, 4, 4)))
