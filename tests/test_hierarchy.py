"""Ansatz substitution, order collection against the hand-entered
reference forms, induction system, and report emission."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ssblow import hierarchy as hy
from ssblow.sscalc import (
    ProfileRef,
    SymEquation,
    SymExpr,
    collect_orders,
    exponent,
    expr_to_json,
    lattice_base,
    prof,
    term,
)
from sympy_oracle import exp_profiles, truncation_errors


# -- comparison -------------------------------------------------------------


def emitted(report, format="json") -> str:
    """The text emit writes for the report, gathered from its parts."""
    parts = []
    hy.emit(report, format, parts.append)
    return "".join(parts)


def verdict(rep, equation, order):
    """The report's verdict on one equation at one order."""
    (v,) = [v for v in rep.verdicts
            if (v.equation, v.order) == (equation, order)]
    return v


@pytest.mark.parametrize("c", [Fraction(-3), Fraction(1, 2), Fraction(1)],
                         ids=["-3", "1/2", "1"])
def test_proportionality_ratio_is_exact(c):
    # integral coefficients are held as int, so a ratio of two of them must
    # still come out as an exact Fraction (int / int would be a float)
    b = 2 * prof("Psi", 0, dR=1) - 4 * term(g=1) * prof("U", 1)
    a = c * b
    assert all(type(t.coeff) is int for t in b.terms)
    ratio = hy.proportionality_ratio(a, b)
    assert type(ratio) is Fraction and ratio == c
    verdict = hy.compare(a, b, "psi", 1)
    want = "match" if c == 1 else "equivalent_zero_set"
    assert verdict.status == want and verdict.to_json()["ratio"] == str(c)
    assert hy.proportionality_ratio(a, b + prof("U")) is None


def test_single_mode_psi_ratio_prints_as_integer():
    rep = hy.derive_hierarchy(hy.AnsatzSpec(mode="single", depth=1))
    v = verdict(rep, "psi", 1)
    assert type(v.ratio) is Fraction and v.ratio == -3
    assert "(ratio -3)" in emitted(rep, "latex")
    assert v.to_json()["ratio"] == "-3"


# -- ansatz and velocities --------------------------------------------------


def test_ansatz_spec_validation():
    with pytest.raises(ValueError):
        hy.AnsatzSpec(mode="bogus")
    with pytest.raises(ValueError):
        hy.AnsatzSpec(mode="generalized", depth=0)
    with pytest.raises(ValueError):
        hy.AnsatzSpec(depth=-1)
    assert hy.AnsatzSpec(mode="single", depth=2).kmax == 0
    assert hy.AnsatzSpec(mode="generalized", depth=2).kmax == 2


def test_build_velocities_single_mode():
    u_r, u_z = hy._velocities(hy._fields((0,))[2])
    rfac = term(1) + term(r=1, tau=exponent(0, 1))
    psi = term(factors=(ProfileRef("Psi"),), tau=exponent(-1, 2))
    want_ur = -(rfac * term(factors=(ProfileRef("Psi", dZ=1),),
                            tau=exponent(-1, 1)))
    want_uz = 2 * psi + rfac * term(factors=(ProfileRef("Psi", dR=1),),
                                    tau=exponent(-1, 1))
    assert u_r == want_ur
    assert u_z == want_uz


def test_build_velocities_zero_stream_function():
    # every term carries a Psi factor, so Psi = 0 gives zero velocity
    u_r, u_z = hy._velocities(hy._fields((0,))[2])
    for e in (u_r, u_z):
        assert e.terms and all(
            any(f.field == "Psi" for f in t.factors) for t in e.terms)


def test_substitute_zero_ansatz_numeric():
    # every term carries a profile factor, so with every profile zero the
    # three equations vanish
    a = hy.AnsatzSpec(mode="generalized", depth=1)
    for eq in hy.substitute(a, 2):
        assert eq.lhs.terms and all(t.factors for t in eq.lhs.terms)


def test_substitute_truncation_guard():
    a = hy.AnsatzSpec(mode="generalized", depth=2)
    with pytest.raises(ValueError):
        hy.substitute(a, 1)


def test_omega_equation_rhs_term():
    # the substituted omega-equation contains -tau^{-2} d_Z(U^2)
    a = hy.AnsatzSpec(mode="single", depth=1)
    eqs = {e.label: e for e in hy.substitute(a, 1)}
    want = -(2 * term(tau=exponent(-2)) * prof("U") * prof("U", dZ=1))
    sigs = {t.signature(): t.coeff for t in eqs["omega"].lhs.terms}
    for t in want.terms:
        assert sigs.get(t.signature()) == t.coeff


# -- hierarchy verdicts -----------------------------------------------------


def test_single_mode_verdicts():
    report = hy.derive_hierarchy(hy.AnsatzSpec(mode="single", depth=1))
    for eq, order in [("u", 0), ("u", 1), ("omega", 0), ("omega", 1),
                      ("psi", 0)]:
        v = verdict(report, eq, order)
        assert v.status == "match", (eq, order, v)
    v = verdict(report, "psi", 1)
    assert v.status == "equivalent_zero_set"
    assert v.ratio == Fraction(-3)
    assert report.all_acceptable


def test_generalized_mode_verdicts():
    report = hy.derive_hierarchy(hy.AnsatzSpec(mode="generalized", depth=1))
    for eq in ("u", "omega", "psi"):
        assert verdict(report, eq, 0).status == "match"
    assert verdict(report, "u", 1).status == "match"
    assert verdict(report, "omega", 1).status == "match"
    v = verdict(report, "psi", 1)
    assert v.status == "mismatch" and v.documented
    diff_terms = [str(t) for t in v.only_derived + v.only_reference]
    assert any("Psi_R" in s for s in diff_terms)
    assert report.all_acceptable


def test_generalized_with_zero_higher_matches_single():
    """Dropping the terms with an index >= 1 profile reduces the
    generalized order-0/1 equations to the single-mode hierarchy."""
    single = hy.derive_hierarchy(hy.AnsatzSpec(mode="single", depth=1))
    general = hy.derive_hierarchy(hy.AnsatzSpec(mode="generalized", depth=1))

    def drop_high(e: SymExpr) -> SymExpr:
        return SymExpr.from_terms(
            t for t in e.terms
            if all(f.series_index == 0 for f in t.factors))

    for eq in ("u", "omega", "psi"):
        for k in (0, 1):
            gen = drop_high(general.orders[eq][k].lhs)
            assert gen == single.orders[eq][k].lhs, (eq, k)


def test_order_zero_psi_is_laplacian():
    report = hy.derive_hierarchy(hy.AnsatzSpec(mode="single", depth=1))
    want = -prof("Psi", dR=2) - prof("Psi", dZ=2) - prof("Omega")
    assert report.orders["psi"][0].lhs == want


def test_order_one_psi_single_mode():
    report = hy.derive_hierarchy(hy.AnsatzSpec(mode="single", depth=1))
    assert report.orders["psi"][1].lhs == -3 * prof("Psi", dR=1)


# -- numeric order-reconstruction invariant ---------------------------------


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
def test_numeric_order_reconstruction_slope(gamma):
    """The PDE residual minus the orders through M decays at least like
    tau^(base0 + (M+1) gamma)."""
    rng = np.random.default_rng(int(10 * gamma) + 3)
    a = hy.AnsatzSpec(mode="single", depth=1)
    M = 1
    eqs = hy.substitute(a, M)
    profiles = exp_profiles(rng)
    point = (-0.6, 0.8)
    for eq in eqs:
        base0 = lattice_base(eq)
        kept = {k: expr_to_json(v.lhs) for k, v in collect_orders(eq).items()
                if k <= M}
        taus = [1e-2, 1e-3, 1e-4, 1e-5]
        errs = truncation_errors(eq.label, kept, (base0.base,
                                 base0.gamma_coeff), profiles, point, gamma,
                                 taus)
        if max(errs) < 1e-14:
            continue  # truncation already exact for this equation
        slope = np.polyfit(np.log(taus), np.log(np.maximum(errs, 1e-300)),
                           1)[0]
        want = float(base0.base) + float(base0.gamma_coeff) * gamma \
            + (M + 1) * gamma
        assert slope >= want - 0.1, (eq.label, slope, want)


# -- truncated substitution ---------------------------------------------------


def _cut(e: SymExpr, cap) -> SymExpr:
    return SymExpr(tuple(t for t in e.terms if t.tau.gamma_coeff <= cap))


@pytest.mark.parametrize("mode", ["single", "generalized"])
@pytest.mark.parametrize("depth", range(1, 7))
@pytest.mark.parametrize("extra", [0, 2])
def test_truncated_hierarchy_matches_full_substitution(mode, depth, extra):
    """derive_hierarchy forms only orders <= depth; they must be the
    orders <= depth of the full substituted equations, whether the 1/r
    factor of the reference is expanded to the depth or beyond it."""
    a = hy.AnsatzSpec(mode=mode, depth=depth)
    M = depth + extra
    report = hy.derive_hierarchy(a)
    for eq in hy.substitute(a, M):
        full = collect_orders(eq)
        assert report.orders[eq.label] == \
            {k: v for k, v in full.items() if k <= depth}, eq.label
        assert report.base0[eq.label] == lattice_base(eq)
    for cut, eq in zip(hy.substitute(a, M, depth), hy.substitute(a, M)):
        base = lattice_base(eq)
        assert cut.lhs == _cut(eq.lhs, base.gamma_coeff + depth)


@pytest.mark.parametrize("k", range(1, 7))
def test_induction_is_order_zero_of_full_index_k_system(k):
    # the filter over the generalized orders equals the index-k-only
    # substitution's dominant order, which no term of the 1/r expansion
    # reaches
    report = hy.derive_hierarchy(hy.AnsatzSpec(mode="generalized", depth=k))
    full = hy._system(*hy._fields((k,)), k + 1)
    for name, e, got in zip(hy.EQ_NAMES, full, report.induction[k]):
        orders = collect_orders(SymEquation(e, name))
        assert got == SymEquation(orders[0].lhs, f"{name}[induction k={k}]")


def test_assemble_raises_when_leading_order_cancels():
    # linear - U*Psi cancels the predicted leading order g0 = 0 of the
    # product U*(Psi + tau^g Omega), so the lattice starts at gamma and a
    # cut counted from g0 would drop a kept order
    U, Psi, Om = prof("U"), prof("Psi"), prof("Omega")
    linear = -(U * Psi) + term(r=1, tau=exponent(0, 2)) \
        + term(z=1, tau=exponent(0, 3))
    products = [(U, Psi + term(tau=exponent(0, 1)) * Om)]
    full = hy._assemble(linear, products, None)
    assert full == linear + products[0][0] * products[0][1]
    assert lattice_base(SymEquation(full)) == exponent(0, 1)
    for order in (0, 1, 2):
        with pytest.raises(ArithmeticError):
            hy._assemble(linear, products, order)
    # nothing survives at all
    with pytest.raises(ArithmeticError):
        hy._assemble(-(U * Psi), [(U, Psi)], 1)


def test_substitute_rejects_negative_order():
    with pytest.raises(ValueError):
        hy.substitute(hy.AnsatzSpec(depth=1), 1, -1)


# -- induction system -------------------------------------------------------


def induction(depth):
    """The report's induction systems of the generalized ansatz."""
    return hy.derive_hierarchy(
        hy.AnsatzSpec(mode="generalized", depth=depth)).induction


def test_induction_u1_coefficient():
    eq_u = induction(1)[1][0]
    coeff = {t.signature(): t.coeff for t in eq_u.lhs.terms}
    u1_plain = prof("U", 1).terms[0]
    assert coeff[u1_plain.signature()] == 1
    g_term = (term(1, g=1, factors=(ProfileRef("U", 1),))).terms[0]
    assert coeff[g_term.signature()] == Fraction(-3, 2)


def test_induction_omega2_coefficient_vanishes_at_half():
    eq_om = induction(2)[2][1]
    om2_plain = prof("Omega", 2).terms[0]
    # the coefficient of Omega_2 with gamma = 1/2 substituted
    coeff = sum(t.coeff * Fraction(1, 2) ** t.g_pow for t in eq_om.lhs.terms
                if t.factors == om2_plain.factors and not t.r_pow + t.z_pow)
    assert coeff == 0


def test_induction_psi_equation_any_k():
    systems = induction(3)
    for k in (1, 2, 3):
        want = -prof("Psi", k, dR=2) - prof("Psi", k, dZ=2) \
            - prof("Omega", k)
        assert systems[k][2].lhs == want


def test_induction_guards():
    orders = hy.derive_hierarchy(
        hy.AnsatzSpec(mode="generalized", depth=1)).orders
    with pytest.raises(ValueError):
        hy.induction_system(orders, 0)
    assert hy.derive_hierarchy(hy.AnsatzSpec(mode="single")).induction == {}


# -- emission ---------------------------------------------------------------


def test_emit_deterministic():
    a = hy.AnsatzSpec(mode="single", depth=1)
    assert emitted(hy.derive_hierarchy(a)) == emitted(hy.derive_hierarchy(a))


@pytest.mark.parametrize("mode", ["single", "generalized"])
@pytest.mark.parametrize("depth", range(1, 13))
def test_emit_json_matches_stdlib_encoder(mode, depth):
    report = hy.derive_hierarchy(hy.AnsatzSpec(mode=mode, depth=depth))
    assert emitted(report) == json.dumps(hy.report_to_json(report),
                                         indent=2, sort_keys=True)


def test_latex_emit_contains_order_zero_coefficient():
    report = hy.derive_hierarchy(hy.AnsatzSpec(mode="single", depth=1))
    tex = emitted(report, "latex")
    assert "U" in tex and "\\gamma" in tex
    assert "\\begin{equation}" in tex
    # order-0 swirl equation carries the 1 - gamma/2 coefficient
    assert "-\\frac{1}{2}" in tex or "\\frac{1}{2}" in tex
