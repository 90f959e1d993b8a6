"""Discretized scalar fields on uniform rectangular grids, the binary and
JSON interchange formats, and the difference stencils shared by the
verification and simulation modules.

Binary layout: a header of six float64 values (n1, n2, h1, h2, x1_0,
x2_0) followed by the row-major float64 field data, axis 0 first.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<6d")
_ESCAPE = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x) -> str:
    # json's spelling: repr, and JavaScript names for the non-finite values
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def json_text(obj, sort_keys: bool = False) -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=sort_keys).

    The stdlib encodes with an indent in pure Python, one generator per
    container; this appends to one list of parts and joins it once.
    Values are str-keyed dicts, lists, tuples, str, int, float (subclasses
    such as np.float64 included), bool and None; anything else, and a
    non-str key, raises TypeError.
    """
    escape, intstr = _ESCAPE, int.__repr__
    parts = []
    put = parts.append
    # "\n" and ",\n" followed by the indent of each level reached so far
    newline, comma = ["\n"], [",\n"]
    # key -> its escaped text and the key separator
    keys = {}

    def value(o, level):
        t = type(o)
        if t is str:
            put(escape(o))
        elif t is dict:
            mapping(o, level)
        elif t is list or t is tuple:
            sequence(o, level)
        elif t is int:
            put(intstr(o))
        elif t is float:
            put(_float_text(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        # subclasses, in json's order of checks
        elif isinstance(o, str):
            put(escape(o))
        elif isinstance(o, int):
            put(intstr(o))
        elif isinstance(o, float):
            put(_float_text(o))
        elif isinstance(o, (list, tuple)):
            sequence(o, level)
        elif isinstance(o, dict):
            mapping(o, level)
        else:
            raise TypeError(f"Object of type {type(o).__name__} "
                            "is not JSON serializable")

    # the loops below dispatch the commonest types themselves, saving a
    # call of value() per item
    def sequence(seq, level):
        if not seq:
            put("[]")
            return
        level += 1
        if len(newline) <= level:
            newline.append(newline[-1] + "  ")
            comma.append(comma[-1] + "  ")
        sep = newline[level]
        put("[")
        for item in seq:
            put(sep)
            sep = comma[level]
            t = type(item)
            if t is dict:
                mapping(item, level)
            elif t is str:
                put(escape(item))
            elif t is int:
                put(intstr(item))
            else:
                value(item, level)
        put(newline[level - 1] + "]")

    def mapping(d, level):
        if not d:
            put("{}")
            return
        level += 1
        if len(newline) <= level:
            newline.append(newline[-1] + "  ")
            comma.append(comma[-1] + "  ")
        sep = newline[level]
        put("{")
        for key in sorted(d) if sort_keys else d:
            item = d[key]
            text = keys.get(key)
            if text is None:
                # escape raises TypeError on a key that is not a str
                text = keys[key] = escape(key) + ": "
            put(sep + text)
            sep = comma[level]
            t = type(item)
            if t is str:
                put(escape(item))
            elif t is int:
                put(intstr(item))
            elif t is dict:
                mapping(item, level)
            elif t is list:
                sequence(item, level)
            else:
                value(item, level)
        put(newline[level - 1] + "}")

    value(obj, 0)
    return "".join(parts)


@dataclass
class ScalarField2D:
    """values[i, j] at (x1_0 + i*h1, x2_0 + j*h2)."""

    values: np.ndarray
    h1: float
    h2: float
    x1_0: float = 0.0
    x2_0: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("field values must be 2-D")

    def axis1(self) -> np.ndarray:
        return self.x1_0 + self.h1 * np.arange(self.values.shape[0])

    def axis2(self) -> np.ndarray:
        return self.x2_0 + self.h2 * np.arange(self.values.shape[1])

    def mesh(self):
        return np.meshgrid(self.axis1(), self.axis2(), indexing="ij")

    # -- interchange -------------------------------------------------------

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


def gradient(field: ScalarField2D):
    """Centered interior / one-sided 2nd-order boundary differences."""
    return diff1(field.values, field.h1, 0), diff1(field.values, field.h2, 1)


def diff1(v: np.ndarray, h: float, axis: int,
          periodic: bool = False) -> np.ndarray:
    """Centered first difference along `axis` with spacing h: wrapped when
    periodic, otherwise second-order one-sided at the two ends.  Returns
    floats for any real input."""
    v = np.asarray(v, dtype=float)
    d = np.empty_like(v)
    v, out = np.moveaxis(v, axis, 0), np.moveaxis(d, axis, 0)
    # numerators in place, then one divide by 2h: a multiply by the
    # reciprocal would round differently unless h is a power of two
    np.subtract(v[2:], v[:-2], out[1:-1])
    if periodic:
        np.subtract(v[1], v[-1], out[0])
        np.subtract(v[0], v[-2], out[-1])
    else:
        out[0] = -3 * v[0] + 4 * v[1] - v[2]
        out[-1] = 3 * v[-1] - 4 * v[-2] + v[-3]
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


def trapezoid_2d(values: np.ndarray, h1: float, h2: float) -> float:
    w1 = np.ones(values.shape[0])
    w1[[0, -1]] = 0.5
    w2 = np.ones(values.shape[1])
    w2[[0, -1]] = 0.5
    return float(w1 @ values @ w2) * h1 * h2
