"""The binary snapshot record of a field on a uniform rectangular grid,
and the difference stencils and quadrature shared by the verification
and simulation modules.

Binary layout: a header of six float64 values (n1, n2, h1, h2, x1_0,
x2_0) followed by the row-major float64 field data, axis 0 first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<6d")


@dataclass
class ScalarField2D:
    """Snapshot record: values[i, j] at (x1_0 + i*h1, x2_0 + j*h2).  The
    grid that wrote it owns the mesh; this keeps only the header."""

    values: np.ndarray
    h1: float
    h2: float
    x1_0: float = 0.0
    x2_0: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("field values must be 2-D")

    def to_binary(self, path) -> None:
        n1, n2 = self.values.shape
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(float(n1), float(n2), self.h1, self.h2,
                                  self.x1_0, self.x2_0))
            fh.write(np.ascontiguousarray(self.values).tobytes())

    @staticmethod
    def from_binary(path) -> "ScalarField2D":
        raw = Path(path).read_bytes()
        n1f, n2f, h1, h2, x1_0, x2_0 = _HEADER.unpack_from(raw)
        n1, n2 = int(n1f), int(n2f)
        data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size,
                             count=n1 * n2).reshape(n1, n2).copy()
        return ScalarField2D(data, h1, h2, x1_0, x2_0)


def diff1(v: np.ndarray, h: float, axis: int, periodic: bool = False,
          out: np.ndarray | None = None) -> np.ndarray:
    """Centered first difference along `axis` with spacing h: wrapped when
    periodic, otherwise second-order one-sided at the two ends.  Returns
    floats for any real input, written into `out` when given (a float
    array of v's shape that does not overlap v)."""
    v = np.asarray(v, dtype=float)
    d = np.empty_like(v) if out is None else out
    v, dv = np.moveaxis(v, axis, 0), np.moveaxis(d, axis, 0)
    # numerators in place, then one divide by 2h: a multiply by the
    # reciprocal would round differently unless h is a power of two
    np.subtract(v[2:], v[:-2], dv[1:-1])
    if periodic:
        np.subtract(v[1], v[-1], dv[0])
        np.subtract(v[0], v[-2], dv[-1])
    else:
        dv[0] = -3 * v[0] + 4 * v[1] - v[2]
        dv[-1] = 3 * v[-1] - 4 * v[-2] + v[-3]
    np.divide(d, 2 * h, d)
    return d


def diff2(v: np.ndarray, h: float, axis: int,
          periodic: bool = False) -> np.ndarray:
    """Second difference along `axis` with spacing h: wrapped when
    periodic, otherwise on the interior with zero end slices.  Returns
    floats for any real input."""
    v = np.asarray(v, dtype=float)
    d = np.empty_like(v)
    v, out = np.moveaxis(v, axis, 0), np.moveaxis(d, axis, 0)
    # (v[i+1] - 2 v[i]) + v[i-1], then one divide by h^2, as for diff1
    np.multiply(v[1:-1], 2, out[1:-1])
    np.subtract(v[2:], out[1:-1], out[1:-1])
    np.add(out[1:-1], v[:-2], out[1:-1])
    if periodic:
        out[0] = v[1] - 2 * v[0] + v[-1]
        out[-1] = v[0] - 2 * v[-1] + v[-2]
    else:
        out[0] = out[-1] = 0.0
    np.divide(d, h ** 2, d)
    return d


def trapezoid_weights(n: int) -> np.ndarray:
    """Unit-spacing trapezoid weights: h1 h2 (w1 @ f @ w2) integrates f."""
    w = np.ones(n)
    w[[0, -1]] = 0.5
    return w
