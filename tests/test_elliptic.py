"""Fast-diagonalization solver against dense linear algebra."""

import numpy as np
import pytest

from ssblow.elliptic import KroneckerSolver


def assert_matches_dense_kronecker_sum(nr, nz, z_bc, Z, seed):
    # Z is the z operator of the given boundary tag, for spacing hz = 0.3
    rng = np.random.default_rng(seed)
    lower = -rng.uniform(0.5, 1.0, nr - 1)
    upper = -rng.uniform(0.5, 1.0, nr - 1)
    diag = 2.0 + rng.uniform(0.0, 1.0, nr)
    A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    L = np.kron(A, np.eye(nz)) + np.kron(np.eye(nr), Z)
    b = rng.standard_normal((nr, nz))
    want = np.linalg.solve(L, b.ravel()).reshape(nr, nz)
    got = KroneckerSolver(lower, diag, upper, nz, 0.3, z_bc).solve(b)
    assert got.shape == (nr, nz)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("nz", [1, 2, 3])
@pytest.mark.parametrize("nr", [1, 5])
def test_dirichlet_matches_dense_kronecker_sum(nr, nz):
    # the smallest z sizes: one, two and three unknowns per mode
    Z = (2.0 * np.eye(nz) - np.eye(nz, k=1) - np.eye(nz, k=-1)) / 0.3 ** 2
    assert_matches_dense_kronecker_sum(nr, nz, "dirichlet", Z, 10 * nr + nz)


@pytest.mark.parametrize("nz", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("nr", [1, 5])
def test_periodic_matches_dense_kronecker_sum(nr, nz):
    # the circulant second difference; nz = 1 leaves Z = 0 and nz = 2
    # doubles its off-diagonal, as both neighbours are the same point
    shift = np.roll(np.eye(nz), 1, axis=1)
    Z = (2.0 * np.eye(nz) - shift - shift.T) / 0.3 ** 2
    assert_matches_dense_kronecker_sum(nr, nz, "periodic", Z,
                                       100 + 10 * nr + nz)


def test_not_positive_definite_is_rejected():
    # the eigenvalues of A are -6 and -4, so lam_i + Z has negative ones
    with pytest.raises(ValueError, match="not positive definite"):
        KroneckerSolver([-1.0], [-5.0, -5.0], [-1.0], 3, 1.0, "dirichlet")


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
def test_solves_do_not_share_results(z_bc):
    # solve works in buffers kept by the solver; what it returns is new
    rng = np.random.default_rng(7)
    solver = KroneckerSolver(-np.ones(5), np.full(6, 3.0), -np.ones(5), 8,
                             0.5, z_bc)
    b1, b2 = rng.standard_normal((2, 6, 8))
    x1 = solver.solve(b1)
    kept = x1.copy()
    x2 = solver.solve(b2)
    assert np.array_equal(x1, kept)
    assert np.array_equal(solver.solve(b1), kept)
    assert not np.shares_memory(x1, x2)


@pytest.mark.parametrize("z_bc", ["periodic", "dirichlet"])
def test_solve_into_out_keeps_the_bits(z_bc):
    # out may be b itself or a strided interior view of a larger array,
    # as the two callers pass it; either must give the bits of out=None
    rng = np.random.default_rng(11)
    nr, nz = 33, 64
    solver = KroneckerSolver(-rng.uniform(0.5, 1.0, nr - 1),
                             2.0 + rng.uniform(0.0, 1.0, nr),
                             -rng.uniform(0.5, 1.0, nr - 1), nz, 0.3, z_bc)
    big = rng.standard_normal((nr + 2, nz + 2))
    b = big[1:-1, 1:-1].copy()
    want = solver.solve(b.copy())
    assert np.array_equal(solver.solve(b, out=b), want)
    assert np.array_equal(b, want)
    view = big[1:-1, 1:-1]
    edges = big.copy()
    assert solver.solve(view, out=view) is view
    assert np.array_equal(view, want)
    edges[1:-1, 1:-1] = want
    assert np.array_equal(big, edges)
