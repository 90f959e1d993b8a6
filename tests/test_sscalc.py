"""Exact-algebra engine: canonicalization, derivative rules, order
collection, numeric evaluation, serialization round-trips, and the
immutable int/Fraction value representation."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssblow.profiles import ExpProfile, ProfileBindings, random_bindings
from ssblow.sscalc import (
    CommensurabilityError,
    MissingBinding,
    ProfileRef,
    SsExponent,
    SymEquation,
    SymExpr,
    SymTerm,
    _rat,
    R_var,
    Z_var,
    canonicalize,
    collect_orders,
    diff_r,
    diff_tau,
    diff_z,
    equation_from_json,
    equation_to_json,
    equation_to_latex,
    eval_numeric,
    exponent,
    expr_from_json,
    expr_to_json,
    expr_to_latex,
    gamma_sym,
    geometric_expand,
    lattice_base,
    prof,
    product_terms,
    reconstruct_orders,
    tau_pow,
    term,
)


def random_expr(rng, kmax=1, nterms=4):
    out = SymExpr.zero()
    for _ in range(rng.integers(1, nterms + 1)):
        factors = []
        for _ in range(rng.integers(0, 3)):
            factors.append(ProfileRef(
                rng.choice(["U", "Omega", "Psi"]),
                int(rng.integers(0, kmax + 1)),
                int(rng.integers(0, 2)),
                int(rng.integers(0, 2)),
            ))
        out = out + term(
            coeff=Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
            g=int(rng.integers(0, 3)),
            r=int(rng.integers(0, 3)),
            z=int(rng.integers(0, 3)),
            factors=factors,
            tau=exponent(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))),
        )
    return out


# -- canonicalization -------------------------------------------------------


def test_like_terms_merge():
    e = R_var() * prof("U") + R_var() * prof("U")
    assert len(e.terms) == 1
    assert e.terms[0].coeff == 2


def test_cancellation_gives_zero():
    e = prof("U") - prof("U")
    assert e.is_zero
    assert e == SymExpr.zero()


def test_triple_merge_single_term():
    om = tau_pow(-1) * prof("Omega")
    e = om + om - om
    assert len(e.terms) == 1
    assert e == canonicalize(om)


def test_canonicalize_idempotent_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = random_expr(rng)
        assert canonicalize(e) == e
        assert canonicalize(canonicalize(e)) == canonicalize(e)


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
    assert (x < y) == ((b1, g1) < (b2, g2))
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
    assert exponent(2.0, "4/2")._key == (2, 2)
    assert str(two) == "1*tau^(-1/2+3/2g)" and str(e) == "1/2*tau^(-1/2+3/2g)"


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 0.5],
                         ids=["inf", "-inf", "nan", "non-integral"])
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
    "SymTerm": (tau_pow(-1, 2) * R_var() * prof("U", 1, dZ=1)).terms[0],
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
    e = tau_pow(-1, Fraction(1, 2)) * prof("U")
    got = diff_tau(e)
    shift = tau_pow(-2, Fraction(1, 2))
    want = (term(1) - Fraction(1, 2) * gamma_sym()) * shift * prof("U") \
        + gamma_sym() * shift * (R_var() * prof("U", dR=1)
                                 + Z_var() * prof("U", dZ=1))
    assert got == canonicalize(want)


def test_diff_tau_vorticity_leading_term():
    e = tau_pow(-1) * prof("Omega")
    got = diff_tau(e)
    shift = tau_pow(-2)
    want = shift * prof("Omega") \
        + gamma_sym() * shift * (R_var() * prof("Omega", dR=1)
                                 + Z_var() * prof("Omega", dZ=1))
    assert got == canonicalize(want)


def test_diff_tau_constant_is_zero():
    assert diff_tau(term(5)).is_zero


def test_diff_z_stream_function():
    e = tau_pow(-1, 2) * prof("Psi")
    assert diff_z(e) == canonicalize(tau_pow(-1, 1) * prof("Psi", dZ=1))


def test_diff_r_power_rule():
    assert diff_r(R_var(2)) == canonicalize(2 * tau_pow(0, -1) * R_var())


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
            assert d(a * b) == canonicalize(d(a) * b + a * d(b))


# -- geometric expansion ----------------------------------------------------


def test_geometric_expand_orders():
    assert geometric_expand(0) == term(1)
    assert geometric_expand(2) == canonicalize(
        term(1) - R_var() * tau_pow(0, 1) + R_var(2) * tau_pow(0, 2))
    with pytest.raises(ValueError):
        geometric_expand(-1)


def test_geometric_expand_numeric_remainder():
    tg, R = 0.1, -0.5
    bind = ProfileBindings.constant()
    approx = eval_numeric(geometric_expand(4), bind, (R, 0.0), tg, 1.0)
    exact = 1.0 / (1.0 + tg * R)
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
    return canonicalize(out)


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
        assert reconstruct_orders(orders, lattice_base(eq)) == e


def test_collect_orders_zero_input():
    assert collect_orders(SymEquation(SymExpr.zero())) == {}


def test_commensurability_error_on_mixed_bases():
    e = tau_pow(-1) * prof("U") + tau_pow(Fraction(-1, 2)) * prof("U")
    with pytest.raises(CommensurabilityError):
        collect_orders(SymEquation(e))


def test_commensurability_error_on_fractional_step():
    e = tau_pow(0, 0) * prof("U") + tau_pow(0, Fraction(1, 2)) * prof("U")
    with pytest.raises(CommensurabilityError):
        collect_orders(SymEquation(e))


# -- numeric evaluation -----------------------------------------------------


def test_eval_simple_term():
    # 2 R U with U = 1 at R = -1
    e = 2 * R_var() * prof("U")
    bind = ProfileBindings.constant(1.0)
    assert eval_numeric(e, bind, (-1.0, 0.0), 0.1, 2.0) == -2.0


def test_eval_transport_form_closed_profile():
    # (1 - g/2) U + g (R U_R + Z U_Z) with U = e^{Z-R}, gamma = 2 at (-1, 1)
    e = (term(1) - Fraction(1, 2) * gamma_sym()) * prof("U") \
        + gamma_sym() * (R_var() * prof("U", dR=1)
                         + Z_var() * prof("U", dZ=1))
    bind = ProfileBindings({("U", 0): ExpProfile(-1.0, 1.0)})
    got = eval_numeric(e, bind, (-1.0, 1.0), 1.0, 2.0)
    assert got == pytest.approx(4.0 * math.e ** 2, rel=1e-12)


def test_eval_missing_binding():
    bind = ProfileBindings({("U", 0): ExpProfile(0.1, 0.2)})
    with pytest.raises(MissingBinding):
        eval_numeric(prof("Omega"), bind, (0.0, 0.0), 0.1, 1.0)


def test_symbolic_vs_finite_difference():
    rng = np.random.default_rng(41)
    h = 1e-4
    for _ in range(25):
        e = random_expr(rng)
        bind = random_bindings(rng, kmax=1)
        R, Z = rng.uniform(-2, -0.5), rng.uniform(0.5, 2)
        gamma, tg = 1.5, 0.3
        sym = eval_numeric(diff_z(e), bind, (R, Z), tg, gamma)
        fd = (eval_numeric(e, bind, (R, Z + h), tg, gamma)
              - eval_numeric(e, bind, (R, Z - h), tg, gamma)) / (2 * h)
        # diff_z carries the tau^{-gamma} chain factor
        fd /= tg
        scale = max(abs(sym), abs(fd), 1.0)
        assert abs(sym - fd) / scale <= 1e-6


# -- serialization ----------------------------------------------------------


def test_json_round_trip_random():
    rng = np.random.default_rng(43)
    for _ in range(50):
        e = canonicalize(random_expr(rng))
        assert expr_from_json(expr_to_json(e)) == e
    eq = SymEquation(canonicalize(random_expr(rng)), "label")
    back = equation_from_json(equation_to_json(eq))
    assert back.lhs == eq.lhs and back.label == eq.label


def test_json_rational_coefficients():
    e = term(Fraction(-3, 7), tau=exponent(-2, Fraction(1, 2)))
    d = expr_to_json(e)
    [t] = d["terms"]
    assert t["coeff"] == "-3/7"
    assert t["tau"] == {"base": "-2", "gamma": "1/2"}


def test_latex_contains_notation():
    e = (term(1) - Fraction(1, 2) * gamma_sym()) * prof("U") \
        + tau_pow(-1, 2) * prof("Psi", dR=1)
    s = expr_to_latex(e)
    assert "\\gamma" in s
    assert "\\partial_R \\Psi" in s
    assert "\\tau" in s
    assert equation_to_latex(SymEquation(e)).endswith("= 0")


def test_exponent_arithmetic_and_strings():
    a = exponent(-1, Fraction(1, 2))
    b = exponent(0, 1)
    assert a + b == exponent(-1, Fraction(3, 2))
    assert (a - a).is_zero
    assert SsExponent.from_json(a.to_json()) == a
    assert str(exponent(-1, 2)) == "-1+2g"
