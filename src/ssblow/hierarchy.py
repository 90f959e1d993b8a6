"""Self-similar ansatz substitution and order-by-order profile equations.

Builds the transformed axisymmetric swirl system, substitutes the
single-profile or generalized series ansatz, collects the tau-power
hierarchy, and compares each collected equation against hard-coded
reference forms.  The references are entered by hand, term by term, so
the machine derivation and the reference are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional

from .sscalc import (
    ProfileRef,
    SymEquation,
    SymExpr,
    SymTerm,
    collect_orders,
    diff_r,
    diff_tau,
    diff_z,
    equation_to_json,
    equation_to_latex,
    exponent,
    expr_to_latex,
    geometric_expand,
    json_write,
    lattice_base,
    product_terms,
    prof,
    term,
)

EQ_NAMES = ("u", "omega", "psi")

SCHEMA = "hierarchy/1"

#: Luo-Hou's leading tau-exponents: u1 ~ tau^(-1+gamma/2),
#: omega1 ~ tau^-1 and psi1 ~ tau^(-1+2 gamma)
LEADING = {"U": exponent(-1, Fraction(1, 2)), "Omega": exponent(-1),
           "Psi": exponent(-1, 2)}


@dataclass(frozen=True)
class AnsatzSpec:
    mode: str = "single"  # "single" | "generalized"
    depth: int = 1

    def __post_init__(self):
        if self.mode not in ("single", "generalized"):
            raise ValueError(f"unknown ansatz mode {self.mode!r}")
        if self.mode == "generalized" and self.depth < 1:
            raise ValueError("generalized mode needs depth >= 1")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")

    @property
    def kmax(self) -> int:
        return self.depth if self.mode == "generalized" else 0


# ---------------------------------------------------------------------------
# the physical system and the substituted equations


def _fields(indices) -> tuple:
    """(u1, omega1, psi1) summed over the given series indices."""
    return tuple(
        SymExpr.from_terms(SymTerm(1, factors=(ProfileRef(field, k),),
                                   tau=leading + exponent(0, k))
                           for k in indices)
        for field, leading in LEADING.items())


def _velocities(psi1: SymExpr):
    # u^r = -r d_z psi1, u^z = 2 psi1 + r d_r psi1 with r = 1 + tau^gamma R
    r = term(1) + term(r=1, tau=exponent(0, 1))
    return -(r * diff_z(psi1)), 2 * psi1 + r * diff_r(psi1)


def _system(u1: SymExpr, om1: SymExpr, psi1: SymExpr, M: int,
            order: Optional[int] = None) -> list:
    """lhs of the u, omega and psi equations (lhs = 0 form), with the 3/r
    factor of the psi equation expanded to geometric order M, each cut at
    relative lattice order `order` by _assemble (None: uncut).  The m-th
    expansion term enters the psi equation at relative order m + 1, so
    every M >= order - 1 gives the same cut equations."""
    u_r, u_z = _velocities(psi1)
    dz_u1, dz_psi1 = diff_z(u1), diff_z(psi1)
    # each equation as its linear part and the (a, b) factor pairs of its
    # products; d_z(u1^2) enters as 2 u1 d_z u1
    parts = [
        (diff_tau(u1), [(u_r, diff_r(u1)), (u_z, dz_u1), (-2 * u1, dz_psi1)]),
        (diff_tau(om1),
         [(u_r, diff_r(om1)), (u_z, diff_z(om1)), (-2 * u1, dz_u1)]),
        (-(diff_r(diff_r(psi1)) + diff_z(dz_psi1)) - om1,
         [(-3 * geometric_expand(M), diff_r(psi1))]),
    ]
    return [_assemble(linear, products, order) for linear, products in parts]


def _lowest_gamma(e: SymExpr) -> Fraction:
    return min(t.tau.gamma_coeff for t in e.terms)


def _assemble(linear: SymExpr, products: list,
              order: Optional[int]) -> SymExpr:
    """linear + the sum of a*b over the (a, b) pairs of products.

    With an order, only the terms at lattice orders 0..order are formed,
    counted from the predicted lattice base g0: the smallest leading
    tau^gamma coefficient among the summands.  The term algebra has no
    zero divisors, so a product's leading coefficient is the sum of its
    factors' and g0 is known before anything is multiplied out.  Raises
    ArithmeticError when the summands' leading orders cancel, since g0 is
    then not the lattice base; the fixed ansatz never does that.
    """
    cap = None
    if order is not None:
        g0 = min(sum(_lowest_gamma(f) for f in factors)
                 for factors in [(linear,), *products])
        cap = g0 + order
    kept = SymExpr.from_terms(chain(
        (t for t in linear.terms if cap is None or t.tau.gamma_coeff <= cap),
        *(product_terms(a, b, cap) for a, b in products)))
    if order is not None and (kept.is_zero or _lowest_gamma(kept) != g0):
        raise ArithmeticError(f"the leading order (tau^gamma coefficient "
                              f"{g0}) cancels; cannot cut at order {order}")
    return kept


def substitute(a: AnsatzSpec, M: int, order: Optional[int] = None):
    """The three substituted equations (lhs = 0 form) in (R, Z, tau).

    M is the geometric truncation order of the 1/(1 + tau^gamma R)
    factor of the stream-function equation; it must cover the requested
    hierarchy depth.

    order=None keeps every term: the full substitution, against which the
    cut equations are checked.  An integer order keeps, in each equation,
    exactly the terms that collect_orders puts at k <= order, and never
    forms the others: each equation is the full one minus a remainder
    O(tau^(base + (order+1) gamma)), where tau^base is its lattice_base.
    """
    if M < a.depth:
        raise ValueError("geometric truncation order must cover the depth")
    if order is not None and order < 0:
        raise ValueError("lattice order must be >= 0")
    eqs = _system(*_fields(range(a.kmax + 1)), M, order)
    return [SymEquation(e, name) for name, e in zip(EQ_NAMES, eqs)]


# ---------------------------------------------------------------------------
# reference equations (entered by hand from the stated forms)


def _grad_dot(psi_k: int, f: str, f_k: int) -> SymExpr:
    # perp-gradient of Psi_{psi_k} dotted into the gradient of f_{f_k}
    return (
        -prof("Psi", psi_k, dZ=1) * prof(f, f_k, dR=1)
        + prof("Psi", psi_k, dR=1) * prof(f, f_k, dZ=1)
    )


def _scaling_part(f: str, k: int, lead_coeff: SymExpr) -> SymExpr:
    # lead_coeff * F_k + gamma (R d_R + Z d_Z) F_k
    g = term(g=1)
    return (
        lead_coeff * prof(f, k)
        + g * term(r=1) * prof(f, k, dR=1)
        + g * term(z=1) * prof(f, k, dZ=1)
    )


def _one_minus_half_gamma(extra_k: int = 0) -> SymExpr:
    # 1 - gamma/2 - k gamma
    return term(1) + term(Fraction(-1, 2) - extra_k, g=1)


def _one_minus_k_gamma(k: int) -> SymExpr:
    return term(1) + term(-k, g=1)


def reference_equations(mode: str) -> dict:
    """{(eq_name, order): SymExpr} reference forms for orders 0 and 1."""
    if mode not in ("single", "generalized"):
        raise ValueError(f"unknown mode {mode!r}")
    refs = {
        ("u", 0): _scaling_part("U", 0, _one_minus_half_gamma())
        + _grad_dot(0, "U", 0),
        ("omega", 0): _scaling_part("Omega", 0, term(1))
        + _grad_dot(0, "Omega", 0)
        - 2 * prof("U", 0) * prof("U", 0, dZ=1),
        ("psi", 0): -prof("Psi", 0, dR=2) - prof("Psi", 0, dZ=2)
        - prof("Omega", 0),
        # order 1 of the index-0 profiles: the r = 1 + tau^gamma R
        # corrections of the order-0 forms
        ("u", 1): term(r=1) * _grad_dot(0, "U", 0)
        + 2 * prof("Psi", 0) * prof("U", 0, dZ=1)
        - 2 * prof("U", 0) * prof("Psi", 0, dZ=1),
        ("omega", 1): term(r=1) * _grad_dot(0, "Omega", 0)
        + 2 * prof("Psi", 0) * prof("Omega", 0, dZ=1),
        # stated next-order stream-function term; the machine derivation
        # disagrees on this d_R Psi_0 coefficient and the report must
        # surface that diff rather than resolve it
        ("psi", 1): prof("Psi", 0, dR=1),
    }
    if mode == "generalized":
        # the index-1 profiles enter order 1 linearly and through their
        # coupling with the index-0 profiles
        refs["u", 1] += (_scaling_part("U", 1, _one_minus_half_gamma(1))
                         + _grad_dot(0, "U", 1) + _grad_dot(1, "U", 0))
        refs["omega", 1] += (_scaling_part("Omega", 1, _one_minus_k_gamma(1))
                             + _grad_dot(0, "Omega", 1)
                             + _grad_dot(1, "Omega", 0)
                             - 2 * prof("U", 0) * prof("U", 1, dZ=1)
                             - 2 * prof("U", 1) * prof("U", 0, dZ=1))
        refs["psi", 1] += (-prof("Psi", 1, dR=2) - prof("Psi", 1, dZ=2)
                           - prof("Omega", 1))
    return refs


# ---------------------------------------------------------------------------
# comparison


def proportionality_ratio(a: SymExpr, b: SymExpr) -> Optional[Fraction]:
    """c with a = c*b (c != 0) for canonical a, b, or None when not
    proportional."""
    if a.is_zero and b.is_zero:
        return Fraction(1)
    if a.is_zero or b.is_zero or len(a.terms) != len(b.terms):
        return None
    ratio = None
    for ta, tb in zip(a.terms, b.terms):
        if ta.signature() != tb.signature():
            return None
        r = Fraction(ta.coeff, tb.coeff)
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


@dataclass(frozen=True)
class ComparisonVerdict:
    equation: str
    order: int
    status: str  # "match" | "equivalent_zero_set" | "mismatch"
    documented: bool = False
    ratio: Optional[Fraction] = None
    only_derived: tuple = ()
    only_reference: tuple = ()

    @property
    def acceptable(self) -> bool:
        return self.status != "mismatch" or self.documented

    def to_json(self) -> dict:
        return {
            "equation": self.equation,
            "order": self.order,
            "status": self.status,
            "documented": self.documented,
            "ratio": None if self.ratio is None else str(self.ratio),
            "only_derived": [str(t) for t in self.only_derived],
            "only_reference": [str(t) for t in self.only_reference],
        }


def compare(derived: SymExpr, reference: SymExpr, equation: str, order: int,
            documented: bool = False) -> ComparisonVerdict:
    if derived == reference:
        return ComparisonVerdict(equation, order, "match", documented, Fraction(1))
    ratio = proportionality_ratio(derived, reference)
    if ratio is not None:
        return ComparisonVerdict(equation, order, "equivalent_zero_set",
                                 documented, ratio)
    dsig = {t.signature(): t for t in derived.terms}
    rsig = {t.signature(): t for t in reference.terms}
    only_d = tuple(t for s, t in dsig.items()
                   if s not in rsig or rsig[s].coeff != t.coeff)
    only_r = tuple(t for s, t in rsig.items()
                   if s not in dsig or dsig[s].coeff != t.coeff)
    return ComparisonVerdict(equation, order, "mismatch", documented,
                             None, only_d, only_r)


# ---------------------------------------------------------------------------
# hierarchy derivation


@dataclass
class HierarchyReport:
    mode: str
    depth: int
    geometric_order: int
    base0: dict  # eq name -> SsExponent
    orders: dict  # eq name -> {k: SymEquation}
    verdicts: list
    induction: dict  # k -> [SymEquation, SymEquation, SymEquation]
    truncation_note: str

    @property
    def all_acceptable(self) -> bool:
        return all(v.acceptable for v in self.verdicts)


def induction_system(orders: dict, k: int) -> list:
    """Decoupled equations for (U_k, Omega_k, Psi_k), k >= 1: the terms of
    the collected orders[name][k] whose profile factors all have index k.

    That is the induction hypothesis that every lower-index profile
    vanishes; a higher-index profile first enters above order k, and a
    product of two index-k profiles at order 2k.  Each lower-index Psi_j
    merely constant gives the same system: Psi_j then enters only
    undifferentiated, through u^z = 2 psi + r d_r psi, where at order k
    it multiplies d_Z of a profile of index k - j - 1 < k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []
    for name in EQ_NAMES:
        terms = orders[name].get(k, SymEquation(SymExpr.zero())).lhs.terms
        kept = tuple(t for t in terms
                     if all(f.series_index == k for f in t.factors))
        out.append(SymEquation(SymExpr(kept), f"{name}[induction k={k}]"))
    return out


def derive_hierarchy(a: AnsatzSpec) -> HierarchyReport:
    """The orders 0..depth of the substituted equations, with the 1/r
    factor expanded to geometric order max(depth, 1)."""
    M = max(a.depth, 1)
    eqs = substitute(a, M, a.depth)
    refs = reference_equations(a.mode)
    orders: dict = {}
    base0: dict = {}
    verdicts = []
    for eq in eqs:
        base0[eq.label] = lattice_base(eq)
        orders[eq.label] = by_k = collect_orders(eq)
        for order in range(min(a.depth, 1) + 1):
            derived = by_k.get(order, SymEquation(SymExpr.zero())).lhs
            documented = a.mode == "generalized" and eq.label == "psi" and order == 1
            verdicts.append(compare(derived, refs[eq.label, order], eq.label,
                                    order, documented))

    induction = {k: induction_system(orders, k)
                 for k in range(1, a.kmax + 1)}

    note = (
        f"stream-function equation expanded to geometric order {M}; "
        f"reconstruction is exact modulo a remainder of order "
        f"tau^({lattice_base(eqs[2]).base}+{M + 1}g)"
    )
    return HierarchyReport(a.mode, a.depth, M, base0, orders, verdicts,
                           induction, note)


# ---------------------------------------------------------------------------
# emission


def report_to_json(report: HierarchyReport) -> dict:
    return {
        "schema": SCHEMA,
        "mode": report.mode,
        "depth": report.depth,
        "geometric_order": report.geometric_order,
        "base0": {k: v.to_json() for k, v in report.base0.items()},
        "orders": {
            name: {str(k): equation_to_json(eq) for k, eq in by_k.items()}
            for name, by_k in report.orders.items()
        },
        "verdicts": [v.to_json() for v in report.verdicts],
        "induction": {
            str(k): [equation_to_json(eq) for eq in eqs]
            for k, eqs in report.induction.items()
        },
        "truncation_note": report.truncation_note,
    }


def emit(report: HierarchyReport, format: str,
         write: Callable[[str], object]) -> None:
    """Write the report as JSON or LaTeX through write(str).  JSON goes
    out in json_write's bounded chunks."""
    if format == "json":
        json_write(report_to_json(report), write, sort_keys=True)
    elif format == "latex":
        lines = [
            "% order-by-order profile equations "
            f"({report.mode} ansatz, depth {report.depth})",
        ]
        for name in EQ_NAMES:
            by_k = report.orders.get(name, {})
            for k in sorted(by_k):
                lines += [f"% {name}-equation, order {k}", "\\begin{equation}",
                          equation_to_latex(by_k[k]), "\\end{equation}"]
        for k in sorted(report.induction):
            lines.append(f"% decoupled induction system, index {k}")
            for eq in report.induction[k]:
                lines += ["\\begin{equation}", equation_to_latex(eq),
                          "\\end{equation}"]
        for v in report.verdicts:
            extra = ""
            if v.status == "equivalent_zero_set":
                extra = f" (ratio {v.ratio})"
            if v.status == "mismatch":
                extra = (
                    " (only derived: "
                    + "; ".join(expr_to_latex(SymExpr((t,))) for t in v.only_derived)
                    + " / only reference: "
                    + "; ".join(expr_to_latex(SymExpr((t,))) for t in v.only_reference)
                    + ")"
                )
            lines.append(f"% verdict {v.equation}[{v.order}]: {v.status}{extra}")
        lines.append(f"% {report.truncation_note}")
        write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {format!r}")
