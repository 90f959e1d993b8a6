"""Exact-algebra engine: canonicalization, derivative rules, order
collection and serialization, checked against their sympy images, and the
immutable int/Fraction value representation."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ssblow.sscalc import (
    CommensurabilityError,
    ProfileRef,
    SsExponent,
    SymEquation,
    SymExpr,
    SymTerm,
    _rat,
    collect_orders,
    diff_r,
    diff_tau,
    diff_z,
    equation_to_json,
    equation_to_latex,
    exponent,
    expr_to_json,
    expr_to_latex,
    geometric_expand,
    lattice_base,
    prof,
    product_terms,
    term,
)
from sympy_oracle import (COORDINATES, R, Z, gamma, profile, r, s, similarity,
                          sympy_of_json, t, tau, z)


def random_terms(rng, kmax=1, nterms=4):
    """The (coeff, g, r, z, factors, tau) arguments of 1..nterms terms."""
    out = []
    for _ in range(rng.integers(1, nterms + 1)):
        factors = []
        for _ in range(rng.integers(0, 3)):
            factors.append(ProfileRef(
                rng.choice(["U", "Omega", "Psi"]),
                int(rng.integers(0, kmax + 1)),
                int(rng.integers(0, 2)),
                int(rng.integers(0, 2)),
            ))
        out.append((
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
            int(rng.integers(0, 3)),
            int(rng.integers(0, 3)),
            int(rng.integers(0, 3)),
            factors,
            exponent(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))),
        ))
    return out


def random_expr(rng, kmax=1, nterms=4):
    return sum((term(*args) for args in random_terms(rng, kmax, nterms)),
               SymExpr.zero())


def image(e: SymExpr):
    """The sympy expression in (R, Z, tau) that e stands for."""
    return sympy_of_json(expr_to_json(e))


# -- canonicalization -------------------------------------------------------


def test_like_terms_merge():
    e = term(r=1) * prof("U") + term(r=1) * prof("U")
    assert len(e.terms) == 1
    assert e.terms[0].coeff == 2


def test_cancellation_gives_zero():
    e = prof("U") - prof("U")
    assert e.is_zero
    assert e == SymExpr.zero()


def test_triple_merge_single_term():
    om = term(tau=exponent(-1)) * prof("Omega")
    e = om + om - om
    assert len(e.terms) == 1
    assert e == om


def test_canonicalize_idempotent_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = random_expr(rng)
        assert SymExpr.from_terms(e.terms) == e
        assert SymExpr.from_terms(reversed(e.terms)) == e


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (random_expr(rng, nterms=3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_scalar_ops():
    e = prof("U")
    assert 0 * e == SymExpr.zero()
    assert 3 * e == e + e + e
    assert -e + e == SymExpr.zero()


# -- truncated products -----------------------------------------------------


def rationals(lo, hi, den):
    """n/d with lo*den <= n <= hi*den and 1 <= d <= den."""
    return st.builds(Fraction, st.integers(lo * den, hi * den),
                     st.sampled_from(range(1, den + 1)))


sym_exprs = st.lists(
    st.builds(
        lambda c, g, r, z, fs, b, gc: term(c, g, r, z, fs, exponent(b, gc)),
        rationals(-3, 3, 3), st.integers(0, 2), st.integers(0, 2),
        st.integers(0, 2),
        st.lists(st.builds(ProfileRef, st.sampled_from(["U", "Omega", "Psi"]),
                           st.integers(0, 2), st.integers(0, 1),
                           st.integers(0, 1)), max_size=2),
        st.integers(-2, 1), rationals(-2, 3, 2)),
    max_size=6,
).map(lambda ts: sum(ts, SymExpr.zero()))


#: the same rationals given as int where integral and as Fraction, so the
#: int fast path and Fraction arithmetic meet in every operation
mixed = st.one_of(st.integers(-3, 3), rationals(-3, 3, 3))

mixed_exprs = st.lists(
    st.builds(
        lambda c, g, r, z, fs, b, gc: term(c, g, r, z, fs, exponent(b, gc)),
        mixed, st.integers(0, 2), st.integers(0, 1), st.integers(0, 1),
        st.lists(st.builds(ProfileRef, st.sampled_from(["U", "Omega", "Psi"]),
                           st.integers(0, 1), st.integers(0, 1),
                           st.integers(0, 1)), max_size=2),
        st.one_of(st.integers(-2, 1), rationals(-2, 1, 2)), mixed),
    max_size=4,
).map(lambda ts: sum(ts, SymExpr.zero()))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(sym_exprs, sym_exprs, rationals(-4, 6, 2))
def test_truncated_product_is_filtered_full_product(a, b, cap):
    full = SymExpr.from_terms(x * y for x in a.terms for y in b.terms)
    want = SymExpr(tuple(t for t in full.terms if t.tau.gamma_coeff <= cap))
    got = SymExpr.from_terms(product_terms(a, b, cap))
    assert got == want
    assert SymExpr.from_terms(product_terms(a, b)) == full == a * b


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(*[rationals(-2, 3, 2)] * 4)
def test_exponent_hash_and_order(b1, g1, b2, g2):
    x, y = exponent(b1, g1), exponent(b2, g2)
    assert (x == y) == ((b1, g1) == (b2, g2))
    if x == y:
        assert hash(x) == hash(y)


def canonical_rationals(e: SymExpr) -> bool:
    """Every coefficient and exponent part is an int, or a Fraction that is
    not integral."""
    values = [x for t in e.terms for x in (t.coeff, t.tau.base,
                                           t.tau.gamma_coeff)]
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in values)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(mixed_exprs, mixed_exprs, mixed_exprs)
def test_ring_axioms_mixed_int_fraction(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a - a == SymExpr.zero()
    assert term(1) * a == a
    for e in (a + b, a * b, a - c, (a + b) * c):
        assert canonical_rationals(e)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(mixed_exprs, mixed_exprs)
def test_leibniz_rule_mixed_int_fraction(a, b):
    for d in (diff_tau, diff_r, diff_z):
        assert d(a * b) == d(a) * b + a * d(b)
        assert d(a + b) == d(a) + d(b)
        assert canonical_rationals(d(a * b))


def _as_fractions(e: SymExpr) -> SymExpr:
    """e rebuilt with every coefficient and exponent part a Fraction."""
    return SymExpr.from_terms(
        SymTerm(Fraction(t.coeff), t.g_pow, t.r_pow, t.z_pow, t.factors,
                SsExponent(Fraction(t.tau.base), Fraction(t.tau.gamma_coeff)))
        for t in e.terms)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(mixed_exprs)
def test_int_and_fraction_built_values_agree(e):
    f = _as_fractions(e)
    assert f == e and hash(f) == hash(e)
    for x, y in zip(f.terms, e.terms):
        assert x == y and hash(x) == hash(y) and str(x) == str(y)
        assert x.tau == y.tau and hash(x.tau) == hash(y.tau)
        assert x.signature() == y.signature()
    assert expr_to_json(f) == expr_to_json(e)
    assert expr_to_latex(f) == expr_to_latex(e)


def test_integral_values_are_held_as_int():
    # 1/2 + 1/2 is held as the int 1, and only 1/2 as a Fraction
    e = term(Fraction(1, 2), tau=exponent(Fraction(-1, 2), Fraction(3, 2)))
    two = e + e
    assert type(two.terms[0].coeff) is int and two.terms[0].coeff == 1
    half = two.terms[0].tau + exponent(Fraction(1, 2), Fraction(1, 2))
    assert (type(half.base), type(half.gamma_coeff)) == (int, int)
    assert type(e.terms[0].coeff) is Fraction
    assert exponent(2, "4/2")._key == (2, 2)
    assert str(two) == "1*tau^(-1/2+3/2g)" and str(e) == "1/2*tau^(-1/2+3/2g)"


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 0.5, 2.0],
                         ids=["inf", "-inf", "nan", "non-integral",
                              "integral"])
def test_rat_rejects_inexact_floats(x):
    with pytest.raises(TypeError, match="not an exact rational"):
        _rat(x)
    with pytest.raises(TypeError, match="not an exact rational"):
        exponent(x)
    with pytest.raises(TypeError, match="not an exact rational"):
        term(x)


# -- immutability -----------------------------------------------------------

VALUES = {
    "SsExponent": exponent(-1, Fraction(1, 2)),
    "ProfileRef": ProfileRef("Psi", 1, 2, 0),
    "SymTerm": term(r=1, factors=(ProfileRef("U", 1, 0, 1),),
                    tau=exponent(-1, 2)).terms[0],
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_immutable(name):
    value = VALUES[name]
    before = (repr(value), hash(value))
    # every field, the cached key and hash included, and a new attribute
    for field in type(value).__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert (repr(value), hash(value)) == before


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_copy_and_pickle(name):
    value = VALUES[name]
    for other in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
    assert repr(value).startswith(name + "(")


# -- derivatives ------------------------------------------------------------


def test_diff_tau_swirl_leading_term():
    # d/dt [tau^(-1+g/2) U] = (1 - g/2) tau^(-2+g/2) U
    #                         + g tau^(-2+g/2) (R U_R + Z U_Z)
    e = term(tau=exponent(-1, Fraction(1, 2))) * prof("U")
    got = diff_tau(e)
    shift = term(tau=exponent(-2, Fraction(1, 2)))
    want = (term(1) - term(Fraction(1, 2), g=1)) * shift * prof("U") \
        + term(g=1) * shift * (term(r=1) * prof("U", dR=1)
                               + term(z=1) * prof("U", dZ=1))
    assert got == want


def test_diff_tau_vorticity_leading_term():
    e = term(tau=exponent(-1)) * prof("Omega")
    got = diff_tau(e)
    shift = term(tau=exponent(-2))
    want = shift * prof("Omega") \
        + term(g=1) * shift * (term(r=1) * prof("Omega", dR=1)
                               + term(z=1) * prof("Omega", dZ=1))
    assert got == want


def test_diff_tau_constant_is_zero():
    assert diff_tau(term(5)).is_zero


def test_diff_z_stream_function():
    e = term(tau=exponent(-1, 2)) * prof("Psi")
    assert diff_z(e) == term(tau=exponent(-1, 1)) * prof("Psi", dZ=1)


def test_diff_r_power_rule():
    assert diff_r(term(r=2)) == term(2, r=1, tau=exponent(0, -1))


def test_mixed_partials_commute():
    rng = np.random.default_rng(23)
    for _ in range(100):
        e = random_expr(rng)
        assert diff_r(diff_z(e)) == diff_z(diff_r(e))


def test_leibniz_rule_random():
    rng = np.random.default_rng(29)
    for d in (diff_tau, diff_r, diff_z):
        for _ in range(60):
            a = random_expr(rng, nterms=2)
            b = random_expr(rng, nterms=2)
            assert d(a * b) == d(a) * b + a * d(b)


# -- geometric expansion ----------------------------------------------------


def test_geometric_expand_orders():
    assert geometric_expand(0) == term(1)
    assert geometric_expand(2) == term(1) - term(r=1, tau=exponent(0, 1)) \
        + term(r=2, tau=exponent(0, 2))
    with pytest.raises(ValueError):
        geometric_expand(-1)
    # with s = tau^gamma, the Taylor polynomial of 1/(1 + R s) in s
    for M in range(7):
        got = image(geometric_expand(M)).subs(tau, s ** (1 / gamma))
        want = sp.series(1 / (1 + R * s), s, 0, M + 1).removeO()
        assert sp.expand(got - want) == 0, M


def test_geometric_expand_numeric_remainder():
    tg, R_val = 0.1, -0.5
    got = image(geometric_expand(4)).subs(tau, s ** (1 / gamma))
    approx = float(got.subs({s: tg, R: R_val}))
    exact = 1.0 / (1.0 + tg * R_val)
    assert abs(approx - exact) <= 0.05 ** 5 / (1 - 0.05) * (1 + 1e-9)


# -- order collection -------------------------------------------------------


def lattice_expr(rng, base=exponent(-2, Fraction(1, 2))):
    """Random expression with tau-exponents base + k*gamma, k in 0..3."""
    out = SymExpr.zero()
    for _ in range(rng.integers(2, 6)):
        k = int(rng.integers(0, 4))
        out = out + term(
            coeff=Fraction(int(rng.integers(-5, 6)) or 1,
                           int(rng.integers(1, 5))),
            g=int(rng.integers(0, 2)),
            r=int(rng.integers(0, 3)),
            z=int(rng.integers(0, 2)),
            factors=(ProfileRef(rng.choice(["U", "Omega", "Psi"]),
                                int(rng.integers(0, 2))),),
            tau=base + exponent(0, k),
        )
    return out


def test_collect_orders_strips_tau_and_reconstructs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        e = lattice_expr(rng)
        eq = SymEquation(e, "rand")
        orders = collect_orders(eq)
        for oeq in orders.values():
            for t in oeq.lhs.terms:
                # every slot, the cached signature, key and hash included,
                # as __init__ builds them for the tau-free term
                ref = SymTerm(t.coeff, t.g_pow, t.r_pow, t.z_pow, t.factors)
                assert [getattr(t, s) for s in SymTerm.__slots__] == \
                    [getattr(ref, s) for s in SymTerm.__slots__]
        # sum_k tau^(base0 + k gamma) order_k is e again
        base = lattice_base(eq)
        back = sum(tau ** (base.base + (base.gamma_coeff + k) * gamma)
                   * image(oeq.lhs) for k, oeq in orders.items())
        assert sp.expand(back - image(e)) == 0


def test_collect_orders_zero_input():
    assert collect_orders(SymEquation(SymExpr.zero())) == {}


def test_commensurability_error_on_mixed_bases():
    e = term(factors=(ProfileRef("U"),), tau=exponent(-1)) \
        + term(factors=(ProfileRef("U"),), tau=exponent(Fraction(-1, 2)))
    with pytest.raises(CommensurabilityError):
        collect_orders(SymEquation(e))


def test_commensurability_error_on_fractional_step():
    e = prof("U") + term(factors=(ProfileRef("U"),),
                         tau=exponent(0, Fraction(1, 2)))
    with pytest.raises(CommensurabilityError):
        collect_orders(SymEquation(e))


# -- the sympy image --------------------------------------------------------


def test_eval_simple_term():
    # 2 R U with U = 1 at R = -1
    e = image(2 * term(r=1) * prof("U"))
    assert e.subs(sp.Function("U0")(R, Z), 1).subs(R, -1) == -2


def test_eval_transport_form_closed_profile():
    # (1 - g/2) U + g (R U_R + Z U_Z) with U = e^{Z-R}, gamma = 2 at (-1, 1)
    e = image((term(1) - term(Fraction(1, 2), g=1)) * prof("U")
              + term(g=1) * (term(r=1) * prof("U", dR=1)
                             + term(z=1) * prof("U", dZ=1)))
    e = e.replace(sp.Function("U0"), sp.Lambda((R, Z), sp.exp(Z - R)))
    assert e.doit().subs({R: -1, Z: 1, gamma: 2}) == 4 * sp.E ** 2


def test_derivatives_match_sympy_chain_rule():
    # d/dt, d/dr and d/dz through R = (r - 1)/tau^gamma, Z = z/tau^gamma
    # and tau = T - t, every partial derivative taken by sympy
    rng = np.random.default_rng(41)
    jacobian = {var: {x: similarity(sp.diff(x_of, var))
                      for x, x_of in COORDINATES.items()}
                for var in (t, r, z)}
    for _ in range(25):
        e = random_expr(rng)
        partials = {x: sp.diff(image(e), x) for x in COORDINATES}
        for d, var in ((diff_tau, t), (diff_r, r), (diff_z, z)):
            want = sum(partials[x] * jacobian[var][x] for x in COORDINATES)
            assert sp.expand(image(d(e)) - want) == 0, (str(e), d.__name__)


# -- serialization ----------------------------------------------------------


def test_json_round_trip_random():
    # the JSON, read into sympy, is the sum of the generating terms
    rng = np.random.default_rng(43)
    for _ in range(50):
        args = random_terms(rng)
        want = sum(c * gamma ** g * R ** rp * Z ** zp
                   * tau ** (ex.base + ex.gamma_coeff * gamma)
                   * sp.Mul(*(profile(f.field, f.series_index, f.dR, f.dZ)
                              for f in fs))
                   for c, g, rp, zp, fs, ex in args)
        e = sum((term(*a) for a in args), SymExpr.zero())
        assert sp.expand(sympy_of_json(expr_to_json(e)) - want) == 0
    eq = SymEquation(random_expr(rng), "label")
    d = equation_to_json(eq)
    assert d == {"label": "label", "lhs": expr_to_json(eq.lhs)}


def test_json_rational_coefficients():
    e = term(Fraction(-3, 7), tau=exponent(-2, Fraction(1, 2)))
    d = expr_to_json(e)
    [t] = d["terms"]
    assert t["coeff"] == "-3/7"
    assert t["tau"] == {"base": "-2", "gamma": "1/2"}


def test_latex_contains_notation():
    e = (term(1) - term(Fraction(1, 2), g=1)) * prof("U") \
        + term(factors=(ProfileRef("Psi", 0, 1),), tau=exponent(-1, 2))
    s = expr_to_latex(e)
    assert "\\gamma" in s
    assert "\\partial_R \\Psi" in s
    assert "\\tau" in s
    assert equation_to_latex(SymEquation(e)).endswith("= 0")


def test_exponent_arithmetic_and_strings():
    a = exponent(-1, Fraction(1, 2))
    b = exponent(0, 1)
    assert a + b == exponent(-1, Fraction(3, 2))
    assert a.to_json() == {"base": "-1", "gamma": "1/2"}
    assert str(exponent(-1, 2)) == "-1+2g"
