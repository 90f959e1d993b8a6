"""Snapshot record and its binary interchange format, the difference
stencils and quadrature, and the package's JSON writer `sscalc.json_write`,
whose text is gathered here from a list sink."""

import collections
import enum
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssblow.cylsim import CylGrid
from ssblow import sscalc
from ssblow.gridio import ScalarField2D, diff1, diff2, trapezoid_weights
from ssblow.sscalc import json_write


def make_field(rng, n1=7, n2=9):
    return ScalarField2D(rng.standard_normal((n1, n2)), 0.25, 0.5, -1.5, -2.0)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    f = make_field(rng)
    path = tmp_path / "field.bin"
    f.to_binary(path)
    g = ScalarField2D.from_binary(path)
    assert np.array_equal(f.values, g.values)
    assert (g.h1, g.h2, g.x1_0, g.x2_0) == (f.h1, f.h2, f.x1_0, f.x2_0)


def test_binary_header_size(tmp_path):
    f = ScalarField2D(np.zeros((3, 4)), 0.1, 0.2)
    path = tmp_path / "f.bin"
    f.to_binary(path)
    assert path.stat().st_size == 6 * 8 + 3 * 4 * 8


def test_axes_and_mesh():
    # a snapshot's header places values[i, j] at (x1_0 + i h1, x2_0 + j h2),
    # which is where the grid that wrote it has its mesh
    for z_bc in ("periodic", "dirichlet"):
        grid = CylGrid(9, 8, z_bc=z_bc)
        r, z = grid.mesh()
        f = grid.field(r)
        i, j = np.indices(r.shape)
        assert np.allclose(f.x1_0 + i * f.h1, r, rtol=0, atol=1e-15)
        assert np.allclose(f.x2_0 + j * f.h2, z, rtol=0, atol=1e-15)


def test_rejects_non_2d():
    with pytest.raises(ValueError):
        ScalarField2D(np.zeros(4), 0.1, 0.1)


def test_gradient_second_order():
    n = 41
    x = np.linspace(0.0, 1.0, n)
    y = np.linspace(0.0, 2.0, n)
    X, Y = np.meshgrid(x, y, indexing="ij")
    f = np.sin(X) * np.cos(Y)
    h = x[1] - x[0]
    d1, d2 = diff1(f, h, 0), diff1(f, y[1] - y[0], 1)
    assert np.max(np.abs(d1 - np.cos(X) * np.cos(Y))) < 5 * h ** 2
    assert np.max(np.abs(d2 + np.sin(X) * np.sin(Y))) < 5 * (y[1] - y[0]) ** 2


def _along(axis, values):
    # a 2-D field that varies along `axis` only, with 4 copies across it
    v = np.asarray(values, dtype=float)
    return np.tile(v[:, None], (1, 4)) if axis == 0 else np.tile(v, (4, 1))


@pytest.mark.parametrize("axis", [0, 1])
def test_diff1_exact_on_quadratics(axis):
    # the centered and both one-sided second-order formulas are exact
    x = -0.5 + 0.25 * np.arange(9)
    d = diff1(_along(axis, 3.0 - 2.0 * x + 5.0 * x ** 2), 0.25, axis)
    assert np.allclose(d, _along(axis, -2.0 + 10.0 * x), rtol=0,
                       atol=1e-12)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
def test_diff1_into_out_writes_every_entry(axis, periodic):
    # a NaN left in the buffer would break the bitwise equality
    v = np.random.default_rng(7).standard_normal((7, 9))
    buf = np.full_like(v, np.nan)
    got = diff1(v, 0.3, axis, periodic, out=buf)
    assert got is buf
    assert np.array_equal(buf, diff1(v, 0.3, axis, periodic))


@pytest.mark.parametrize("axis", [0, 1])
def test_diff2_exact_on_cubics_with_zero_ends(axis):
    x = -0.5 + 0.25 * np.arange(9)
    d = diff2(_along(axis, 1.0 + x - 2.0 * x ** 2 + 4.0 * x ** 3), 0.25, axis)
    want = _along(axis, -4.0 + 24.0 * x)
    inner = (slice(1, -1), slice(None)) if axis == 0 else \
        (slice(None), slice(1, -1))
    assert np.allclose(d[inner], want[inner], rtol=0, atol=1e-11)
    ends = np.moveaxis(d, axis, 0)[[0, -1]]
    assert np.all(ends == 0.0)


@pytest.mark.parametrize("axis", [0, 1])
def test_periodic_differences_match_closed_forms(axis):
    # on sin(2 pi x) the wrapped stencils are exact multiples of the
    # derivatives: sin(2 pi h)/h cos(2 pi x) and -(2 sin(pi h)/h)^2 sin(2 pi x)
    n = 16
    h = 1.0 / n
    x = h * np.arange(n)
    f = _along(axis, np.sin(2 * np.pi * x))
    d1 = diff1(f, h, axis, periodic=True)
    d2 = diff2(f, h, axis, periodic=True)
    assert np.allclose(
        d1, _along(axis, np.sin(2 * np.pi * h) / h * np.cos(2 * np.pi * x)),
        rtol=0, atol=1e-12)
    assert np.allclose(
        d2, _along(axis, -(2 * np.sin(np.pi * h) / h) ** 2
                   * np.sin(2 * np.pi * x)),
        rtol=0, atol=1e-10)


def test_trapezoid_exact_on_bilinear():
    x = np.linspace(0.0, 1.0, 11)
    y = np.linspace(0.0, 1.0, 21)
    X, Y = np.meshgrid(x, y, indexing="ij")
    w1, w2 = trapezoid_weights(x.size), trapezoid_weights(y.size)
    val = w1 @ (2.0 + 3.0 * X + 4.0 * Y) @ w2 * (x[1] - x[0]) * (y[1] - y[0])
    assert val == pytest.approx(2.0 + 1.5 + 2.0, rel=1e-13)


# -- oracles: the stencil formulas written out with np.roll and slices -------


def roll_diff1(v, h, axis, periodic):
    if periodic:
        return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2 * h)
    d = np.empty_like(v)
    v, out = np.moveaxis(v, axis, 0), np.moveaxis(d, axis, 0)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return d


def roll_diff2(v, h, axis, periodic):
    if periodic:
        return (np.roll(v, -1, axis=axis) - 2 * v
                + np.roll(v, 1, axis=axis)) / h ** 2
    d = np.zeros_like(v)
    v, out = np.moveaxis(v, axis, 0), np.moveaxis(d, axis, 0)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
    return d


def _layouts(rng, n1, n2):
    # C-ordered, transposed (Fortran-ordered) and a strided view
    w = rng.standard_normal((n2 + 3, 2 * n1))
    return {"c": rng.standard_normal((n1, n2)),
            "transposed": rng.standard_normal((n2, n1)).T,
            "sliced": w[1:n2 + 1, ::2].T}


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("shape", [(5, 5), (21, 24), (65, 128)])
def test_stencils_bit_identical_to_roll_formulas(shape, axis, periodic):
    # h = 0.1 and 1/3 are not powers of two, so dividing and multiplying by
    # a reciprocal give different bits
    rng = np.random.default_rng(sum(shape) + 2 * axis + periodic)
    for name, v in _layouts(rng, *shape).items():
        assert v.shape == shape
        for h in (0.1, 1.0 / 3.0):
            for got, want in ((diff1(v, h, axis, periodic),
                               roll_diff1(v, h, axis, periodic)),
                              (diff2(v, h, axis, periodic),
                               roll_diff2(v, h, axis, periodic))):
                assert got.dtype == np.float64
                assert np.array_equal(got, want), (name, h)


@pytest.mark.parametrize("periodic", [False, True])
def test_stencils_convert_integer_input_to_float(periodic):
    v = np.array([[0, 1, 3, 6, 10]])
    w = v.astype(float)
    for fn, ref in ((diff1, roll_diff1), (diff2, roll_diff2)):
        got = fn(v, 1.0, 1, periodic)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref(w, 1.0, 1, periodic))
    if not periodic:
        assert np.array_equal(diff1(v, 1.0, 1),
                              [[0.5, 1.5, 2.5, 3.5, 4.5]])


# -- JSON writer: the stdlib's json.dumps(indent=2) is the oracle ------------


def written(obj, sort_keys):
    """The text json_write writes for obj, gathered from its parts."""
    parts = []
    json_write(obj, parts.append, sort_keys)
    return "".join(parts)


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e16,
                     5e-324, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), _floats,
                    st.text(),
                    st.sampled_from(["", "\\", '"', "\n\t\x00\x7f",
                                     "\u00e9\u03b3", "\U0001d11e"]))
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_trees, st.booleans())
def test_json_text_matches_stdlib(obj, sort_keys):
    assert written(obj, sort_keys) == json.dumps(obj, indent=2,
                                                 sort_keys=sort_keys)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_trees, st.booleans())
def test_json_text_matches_stdlib_in_one_part_chunks(obj, sort_keys):
    # the writer hands on its parts after every item: each flush point in
    # both loops is crossed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sscalc, "_CHUNK", 1)
        assert written(obj, sort_keys) == json.dumps(obj, indent=2,
                                                     sort_keys=sort_keys)


class _Level(enum.IntEnum):
    HIGH = 3


class _List(list):
    pass


class _Dict(dict):
    pass


_CONTAINERS = [
    {}, [], (), [[]], {"a": {}}, [{}, [[], {}]], {"a": [(), {"b": []}]},
    {"b": 1, "a": [True, False, None, -0.0, float("nan")]}, "x", 7, None,
    # subclasses are written as their json base type
    _List([1, _Dict(b=2, a=_List())]), _Dict(x=[_Level.HIGH]),
    {"p": collections.namedtuple("Pair", "a b")(1, 2.5)}, _Level.HIGH,
    [np.float64(0.1), np.str_("s")],
]


@pytest.mark.parametrize("obj", _CONTAINERS)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_containers_and_subclasses(obj, sort_keys):
    assert written(obj, sort_keys) == json.dumps(obj, indent=2,
                                                 sort_keys=sort_keys)


@pytest.mark.parametrize("obj", _CONTAINERS)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_containers_and_subclasses_in_one_part_chunks(
        obj, sort_keys, monkeypatch):
    monkeypatch.setattr(sscalc, "_CHUNK", 1)
    assert written(obj, sort_keys) == json.dumps(obj, indent=2,
                                                 sort_keys=sort_keys)


def test_json_write_hands_on_bounded_chunks():
    # 10,000 numbers, each a separator and a digit string, are about
    # 20,000 parts: at least four full chunks and a last one
    obj = {"rows": [list(range(100))] * 100}
    chunks = []
    json_write(obj, chunks.append)
    assert "".join(chunks) == json.dumps(obj, indent=2)
    assert len(chunks) >= 5
    assert max(map(len, chunks)) < len("".join(chunks)) / 4


@pytest.mark.parametrize("obj", [
    Fraction(1, 2), {1, 2}, np.int64(3), [np.int64(3)], {"a": Fraction(1)},
    {1: "a"}, {"a": {2: "b"}}, {(1, 2): 0},
])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_rejects_what_json_cannot_write(obj, sort_keys):
    # int keys: json.dumps would turn them into strings; ssblow never
    # writes them, so the writer refuses rather than guess
    with pytest.raises(TypeError):
        written(obj, sort_keys)
