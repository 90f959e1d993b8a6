"""Fast-diagonalization solver for the toolkit's Kronecker-sum operators.

Both elliptic problems -- the stream-function solve on the cylinder slab
and the half-plane Laplace endgame -- discretize on their interior
unknowns x[i, j] to

    (A (x) I + I (x) Z) x = b,

with A tridiagonal along axis 0 and Z = -d_zz, the second difference
with spacing hz along axis 1, with periodic or homogeneous Dirichlet
ends.  This is the tensor-product method of Lynch, Rice & Thomas
(Numer. Math. 6, 1964): A is diagonalized once, through the symmetric
matrix similar to it, which splits the problem into one problem in z per
eigenvalue of A.  Periodic z is then diagonal under the real FFT;
Dirichlet z leaves one tridiagonal system per mode, all factorized
together at set-up.
"""

from __future__ import annotations

import numpy as np


class KroneckerSolver:
    """Solve (A (x) I + I (x) Z) x = b for b of shape (len(diag), nz).

    A has the given sub-, main and super-diagonals, with negative off-
    diagonals; its symmetrized form should have non-negative row sums
    (weak diagonal dominance), which keeps the eigenvalues accurate.
    """

    def __init__(self, lower, diag, upper, nz: int, hz: float, z_bc: str):
        # scipy.linalg takes longer to import than most CLI commands take
        # to run, and only this set-up needs it
        from scipy.linalg import eigh_tridiagonal
        from scipy.linalg.lapack import dpttrf, dpttrs

        lower, diag, upper = (np.asarray(a, dtype=float)
                              for a in (lower, diag, upper))
        if np.any(lower >= 0) or np.any(upper >= 0):
            raise ValueError("A needs negative off-diagonals")
        # D^-1 A D = S is symmetric for d[i+1] / d[i] = sqrt(lower / upper);
        # with S = V diag(lam) V^T, A = (D V) diag(lam) (V^T D^-1)
        d = np.concatenate(([1.0], np.cumprod(np.sqrt(lower / upper))))
        e = -np.sqrt(lower * upper)
        # divide and conquer: its eigenvectors gave 10-15x smaller solve
        # residuals on N(0,1) data than the MRRR driver ("stemr") at
        # 257x512 and 513x1024
        _, V = eigh_tridiagonal(diag, e, lapack_driver="stevd")
        # lam_k = v^T S v as a sum of non-negative terms,
        # sum_i rowsum_i v_i^2 + sum_i (-e_i) (v_{i+1} - v_i)^2, keeps the
        # small eigenvalues of the smooth modes, which dominate a smooth
        # solution, accurate relative to themselves; the driver's own are
        # accurate only relative to max(lam)
        rowsum = diag.copy()
        rowsum[1:] += e
        rowsum[:-1] += e
        lam = rowsum @ V ** 2 - e @ np.diff(V, axis=0) ** 2
        self._to_modes = V.T / d
        self._from_modes = d[:, None] * V
        self.z_bc = z_bc
        if z_bc == "periodic":
            k = np.arange(nz // 2 + 1)
            lam_z = (2.0 * np.sin(np.pi * k / nz) / hz) ** 2
            self._denom = lam[:, None] + lam_z
        elif z_bc == "dirichlet":
            # the per-mode systems lam_i + Z chained into one band whose
            # off-diagonal is zero between modes
            main = np.repeat(lam, nz) + 2.0 / hz ** 2
            off = np.full((lam.size, nz), -1.0 / hz ** 2)
            off[:, -1] = 0.0
            # the LAPACK wrapper sizes the off-diagonal max(n - 1, 1)
            self._d, self._e, info = dpttrf(
                main, off.ravel()[:max(main.size - 1, 1)])
            if info:
                raise ValueError("operator is not positive definite")
            self._dpttrs = dpttrs
        else:
            raise ValueError(f"unknown z boundary tag {z_bc!r}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        c = self._to_modes @ b
        if self.z_bc == "periodic":
            y = np.fft.irfft(np.fft.rfft(c, axis=1) / self._denom,
                             n=c.shape[1], axis=1)
        else:
            y = self._dpttrs(self._d, self._e, c.ravel(),
                             overwrite_b=True)[0].reshape(c.shape)
        return self._from_modes @ y
