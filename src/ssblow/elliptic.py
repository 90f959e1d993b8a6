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
Dirichlet z leaves one symmetric tridiagonal system per mode, all
factorized as L D L^T at set-up and swept together, one z row across
every mode per step.  (A sine transform would make Dirichlet z diagonal
too, but numpy's FFT of the odd extension, length 2 (nz + 1), made a
385x768 solve about three times slower than the sweeps.)  numpy is the
only dependency.
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
        lower, diag, upper = (np.asarray(a, dtype=float)
                              for a in (lower, diag, upper))
        if np.any(lower >= 0) or np.any(upper >= 0):
            raise ValueError("A needs negative off-diagonals")
        # D^-1 A D = S is symmetric for d[i+1] / d[i] = sqrt(lower / upper);
        # with S = V diag(lam) V^T, A = (D V) diag(lam) (V^T D^-1)
        d = np.concatenate(([1.0], np.cumprod(np.sqrt(lower / upper))))
        e = -np.sqrt(lower * upper)
        # LAPACK syevd: its Householder reduction of an already tridiagonal
        # S leaves S and the eigenvectors unchanged (every tau is 0) but
        # still costs dense O(n^3) work, 21 ms against 9 ms for stevd at
        # n = 383; the rest is the divide-and-conquer stedc, whose
        # eigenvectors gave 10-15x smaller solve residuals on N(0,1) data
        # than the MRRR driver ("stemr") at 257x512 and 513x1024
        _, V = np.linalg.eigh(np.diag(diag) + np.diag(e, 1) + np.diag(e, -1))
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
            # solve works in these two (modes, z) buffers
            self._c = np.empty((lam.size, nz))
            self._spec = np.empty(self._denom.shape, dtype=complex)
        elif z_bc == "dirichlet":
            # lam_i + Z = L D L^T per mode, with unit lower bidiagonal L:
            # pivots piv[j] = lam + 2/hz^2 - off^2 / piv[j-1] and, below
            # the diagonal of row j, the multiplier off / piv[j-1]; one
            # row per z index, one column per mode
            off = -1.0 / hz ** 2
            piv = np.empty((nz, lam.size))
            piv[0] = lam + 2.0 / hz ** 2
            for j in range(1, nz):
                piv[j] = piv[0] - off ** 2 / piv[j - 1]
            if not np.all(piv > 0):
                raise ValueError("operator is not positive definite")
            self._piv = piv
            # solve overwrites one (nz, modes) buffer in place; each step
            # of L y = c and of L^T x = w is (multiplier, row read, row
            # written), views made once here, so a step makes no array
            self._c = np.empty((nz, lam.size))
            self._tmp = np.empty(lam.size)
            rows, mult = list(self._c), list(off / piv[:-1])
            self._down = list(zip(mult, rows[:-1], rows[1:]))
            self._up = list(zip(mult[::-1], rows[:0:-1], rows[-2::-1]))
        else:
            raise ValueError(f"unknown z boundary tag {z_bc!r}")

    def solve(self, b: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """x, written into `out` when given (it may be b itself or a view
        of a larger array: b is read only before out is written)."""
        if self.z_bc == "periodic":
            c = np.matmul(self._to_modes, b, out=self._c)
            spec = np.fft.rfft(c, axis=1, out=self._spec)
            np.divide(spec, self._denom, out=spec)
            np.fft.irfft(spec, n=c.shape[1], axis=1, out=c)
            return np.matmul(self._from_modes, c, out=out)
        # the coefficients as (nz, modes), so that each step of the sweeps
        # L y = c, D w = y, L^T x = w reads one contiguous row
        c = np.matmul(b.T, self._to_modes.T, out=self._c)
        mul, sub, tmp = np.multiply, np.subtract, self._tmp
        for m, prev, row in self._down:
            mul(m, prev, tmp)
            sub(row, tmp, row)
        c /= self._piv
        for m, nxt, row in self._up:
            mul(m, nxt, tmp)
            sub(row, tmp, row)
        return np.matmul(self._from_modes, c.T, out=out)
