"""Exact symbolic calculus for self-similar substitutions.

Expressions are finite sums of terms

    coeff * gamma^g_pow * R^r_pow * Z^z_pow * (product of profile
    derivatives) * tau^(base + gamma_coeff * gamma)

with exact rational coefficients.  gamma is never given a numeric value
inside the algebra; it appears both as a symbolic factor (g_pow) and in
the affine tau-exponents.  All values are immutable, so canonical forms
are safe to share and hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

__all__ = [
    "CommensurabilityError",
    "MissingBinding",
    "SsExponent",
    "ProfileRef",
    "SymTerm",
    "SymExpr",
    "SymEquation",
    "exponent",
    "term",
    "prof",
    "R_var",
    "Z_var",
    "gamma_sym",
    "tau_pow",
    "canonicalize",
    "diff_tau",
    "diff_r",
    "diff_z",
    "geometric_expand",
    "collect_orders",
    "reconstruct_orders",
    "eval_numeric",
    "expr_to_json",
    "expr_from_json",
    "equation_to_json",
    "equation_from_json",
    "expr_to_latex",
    "equation_to_latex",
]


class CommensurabilityError(ValueError):
    """tau-exponents of an expression do not lie on a base0 + k*gamma lattice."""


class MissingBinding(KeyError):
    """A profile derivative has no numeric evaluator."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    raise TypeError(f"not an exact rational: {x!r}")


# ---------------------------------------------------------------------------
# exponents


@dataclass(frozen=True)
class SsExponent:
    """Formal exponent base + gamma_coeff * gamma of tau = (T - t)."""

    base: Fraction = Fraction(0)
    gamma_coeff: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "base", _rat(self.base))
        object.__setattr__(self, "gamma_coeff", _rat(self.gamma_coeff))

    def __add__(self, other: "SsExponent") -> "SsExponent":
        return SsExponent(self.base + other.base, self.gamma_coeff + other.gamma_coeff)

    def __sub__(self, other: "SsExponent") -> "SsExponent":
        return SsExponent(self.base - other.base, self.gamma_coeff - other.gamma_coeff)

    @property
    def is_zero(self) -> bool:
        return self.base == 0 and self.gamma_coeff == 0

    def sort_key(self):
        return (self.base, self.gamma_coeff)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.base != 0:
            parts.append(str(self.base))
        if self.gamma_coeff != 0:
            if self.gamma_coeff == 1:
                g = "g"
            elif self.gamma_coeff == -1:
                g = "-g"
            else:
                g = f"{self.gamma_coeff}g"
            parts.append(g)
        s = "+".join(parts)
        return s.replace("+-", "-")

    def latex(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.base != 0:
            parts.append(_rat_latex(self.base))
        if self.gamma_coeff != 0:
            if self.gamma_coeff == 1:
                parts.append("\\gamma")
            elif self.gamma_coeff == -1:
                parts.append("-\\gamma")
            else:
                parts.append(_rat_latex(self.gamma_coeff) + "\\gamma")
        s = "+".join(parts)
        return s.replace("+-", "-")

    def to_json(self) -> dict:
        return {"base": str(self.base), "gamma": str(self.gamma_coeff)}

    @staticmethod
    def from_json(d: Mapping) -> "SsExponent":
        return SsExponent(Fraction(d["base"]), Fraction(d["gamma"]))


def exponent(base=0, gamma=0) -> SsExponent:
    return SsExponent(_rat(base), _rat(gamma))


# ---------------------------------------------------------------------------
# profile references

FIELDS = ("U", "Omega", "Psi")


@dataclass(frozen=True)
class ProfileRef:
    """Mixed partial d_R^dR d_Z^dZ of profile <field>_<series_index>."""

    field: str
    series_index: int = 0
    dR: int = 0
    dZ: int = 0

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field tag {self.field!r}")
        if self.series_index < 0 or self.dR < 0 or self.dZ < 0:
            raise ValueError("series_index/dR/dZ must be non-negative")

    def sort_key(self):
        return (FIELDS.index(self.field), self.series_index, self.dR, self.dZ)

    def bump(self, dR=0, dZ=0) -> "ProfileRef":
        return ProfileRef(self.field, self.series_index, self.dR + dR, self.dZ + dZ)

    def to_json(self) -> dict:
        return {"f": self.field, "k": self.series_index, "dR": self.dR, "dZ": self.dZ}

    @staticmethod
    def from_json(d: Mapping) -> "ProfileRef":
        return ProfileRef(d["f"], d["k"], d["dR"], d["dZ"])

    def latex(self) -> str:
        sym = {"U": "U", "Omega": "\\Omega", "Psi": "\\Psi"}[self.field]
        if self.series_index:
            sym = f"{sym}_{{{self.series_index}}}"
        pre = ""
        if self.dR:
            pre += "\\partial_R" if self.dR == 1 else f"\\partial_R^{{{self.dR}}}"
        if self.dZ:
            pre += "\\partial_Z" if self.dZ == 1 else f"\\partial_Z^{{{self.dZ}}}"
        return pre + " " + sym if pre else sym

    def __str__(self) -> str:
        s = self.field if self.field != "Omega" else "Om"
        if self.field == "Psi":
            s = "Psi"
        if self.series_index:
            s += str(self.series_index)
        if self.dR or self.dZ:
            s += "_" + "R" * self.dR + "Z" * self.dZ
        return s


# ---------------------------------------------------------------------------
# terms and expressions


@dataclass(frozen=True)
class SymTerm:
    coeff: Fraction
    g_pow: int = 0
    r_pow: int = 0
    z_pow: int = 0
    factors: tuple = ()
    tau: SsExponent = dc_field(default_factory=SsExponent)

    def __post_init__(self):
        object.__setattr__(self, "coeff", _rat(self.coeff))
        object.__setattr__(
            self, "factors", tuple(sorted(self.factors, key=ProfileRef.sort_key))
        )
        if self.g_pow < 0 or self.r_pow < 0 or self.z_pow < 0:
            raise ValueError("powers must be non-negative")

    def signature(self):
        return (
            tuple(f.sort_key() for f in self.factors),
            self.r_pow,
            self.z_pow,
            self.g_pow,
            self.tau.sort_key(),
        )

    def scaled(self, c) -> "SymTerm":
        return SymTerm(self.coeff * _rat(c), self.g_pow, self.r_pow, self.z_pow,
                       self.factors, self.tau)

    def _replace_coeff(self, c: Fraction) -> "SymTerm":
        return SymTerm(c, self.g_pow, self.r_pow, self.z_pow, self.factors, self.tau)

    def __mul__(self, other: "SymTerm") -> "SymTerm":
        return SymTerm(
            self.coeff * other.coeff,
            self.g_pow + other.g_pow,
            self.r_pow + other.r_pow,
            self.z_pow + other.z_pow,
            self.factors + other.factors,
            self.tau + other.tau,
        )

    def __str__(self) -> str:
        bits = [str(self.coeff)]
        if self.g_pow:
            bits.append("g" if self.g_pow == 1 else f"g^{self.g_pow}")
        if not self.tau.is_zero:
            bits.append(f"tau^({self.tau})")
        if self.r_pow:
            bits.append("R" if self.r_pow == 1 else f"R^{self.r_pow}")
        if self.z_pow:
            bits.append("Z" if self.z_pow == 1 else f"Z^{self.z_pow}")
        bits.extend(str(f) for f in self.factors)
        return "*".join(bits)


@dataclass(frozen=True)
class SymExpr:
    """Canonical sum of SymTerm; construct via from_terms or the builders."""

    terms: tuple = ()

    @staticmethod
    def from_terms(terms: Iterable[SymTerm]) -> "SymExpr":
        merged: dict = {}
        for t in terms:
            sig = t.signature()
            prev = merged.get(sig)
            merged[sig] = t if prev is None else prev._replace_coeff(prev.coeff + t.coeff)
        out = [t for t in merged.values() if t.coeff != 0]
        out.sort(key=SymTerm.signature)
        return SymExpr(tuple(out))

    @staticmethod
    def zero() -> "SymExpr":
        return SymExpr(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "SymExpr":
        other = _as_expr(other)
        return SymExpr.from_terms(self.terms + other.terms)

    def __radd__(self, other) -> "SymExpr":
        return self.__add__(other)

    def __neg__(self) -> "SymExpr":
        return SymExpr(tuple(t.scaled(-1) for t in self.terms))

    def __sub__(self, other) -> "SymExpr":
        return self + (-_as_expr(other))

    def __rsub__(self, other) -> "SymExpr":
        return _as_expr(other) + (-self)

    def __mul__(self, other) -> "SymExpr":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SymExpr.zero()
            return SymExpr(tuple(t.scaled(other) for t in self.terms))
        other = _as_expr(other)
        return SymExpr.from_terms(
            a * b for a in self.terms for b in other.terms
        )

    def __rmul__(self, other) -> "SymExpr":
        return self.__mul__(other)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(str(t) for t in self.terms)


def _as_expr(x) -> SymExpr:
    if isinstance(x, SymExpr):
        return x
    if isinstance(x, SymTerm):
        return SymExpr.from_terms([x])
    if isinstance(x, (int, Fraction)):
        if x == 0:
            return SymExpr.zero()
        return SymExpr((SymTerm(_rat(x)),))
    raise TypeError(f"cannot coerce {x!r} to SymExpr")


@dataclass(frozen=True)
class SymEquation:
    """Equation lhs = 0."""

    lhs: SymExpr
    label: str = ""


# ---------------------------------------------------------------------------
# builders


def term(coeff=1, g=0, r=0, z=0, factors=(), tau=None) -> SymExpr:
    tau = tau if tau is not None else SsExponent()
    return SymExpr.from_terms([SymTerm(_rat(coeff), g, r, z, tuple(factors), tau)])


def prof(field: str, k: int = 0, dR: int = 0, dZ: int = 0) -> SymExpr:
    return term(factors=(ProfileRef(field, k, dR, dZ),))


def R_var(n: int = 1) -> SymExpr:
    return term(r=n)


def Z_var(n: int = 1) -> SymExpr:
    return term(z=n)


def gamma_sym(n: int = 1) -> SymExpr:
    return term(g=n)


def tau_pow(base=0, gamma=0) -> SymExpr:
    return term(tau=exponent(base, gamma))


def canonicalize(e: SymExpr) -> SymExpr:
    """Idempotent: merge like terms, drop zeros, sort by the fixed term order."""
    return SymExpr.from_terms(e.terms)


# ---------------------------------------------------------------------------
# derivatives


def diff_tau(e: SymExpr) -> SymExpr:
    """d/dt with tau = T - t and R, Z carrying the tau^{-gamma} rescaling.

    Rules: d/dt tau^e = -e tau^{e-1};  d/dt R = gamma R / tau (same for Z);
    d/dt F(R,Z) = gamma tau^{-1} (R dF/dR + Z dF/dZ); product rule throughout.
    """
    out = []
    one_less = exponent(-1)
    for t in e.terms:
        shifted = SymTerm(t.coeff, t.g_pow, t.r_pow, t.z_pow, t.factors,
                          t.tau + one_less)
        # -(a + b*gamma) tau^{e-1} from the tau power
        if t.tau.base != 0:
            out.append(shifted.scaled(-t.tau.base))
        if t.tau.gamma_coeff != 0:
            s = shifted.scaled(-t.tau.gamma_coeff)
            out.append(SymTerm(s.coeff, s.g_pow + 1, s.r_pow, s.z_pow, s.factors, s.tau))
        # i*gamma R^i / tau and j*gamma Z^j / tau
        if t.r_pow:
            out.append(SymTerm(t.coeff * t.r_pow, t.g_pow + 1, t.r_pow, t.z_pow,
                               t.factors, t.tau + one_less))
        if t.z_pow:
            out.append(SymTerm(t.coeff * t.z_pow, t.g_pow + 1, t.r_pow, t.z_pow,
                               t.factors, t.tau + one_less))
        # gamma tau^{-1} (R d_R + Z d_Z) on each profile factor
        for i, f in enumerate(t.factors):
            rest = t.factors[:i] + t.factors[i + 1:]
            out.append(SymTerm(t.coeff, t.g_pow + 1, t.r_pow + 1, t.z_pow,
                               rest + (f.bump(dR=1),), t.tau + one_less))
            out.append(SymTerm(t.coeff, t.g_pow + 1, t.r_pow, t.z_pow + 1,
                               rest + (f.bump(dZ=1),), t.tau + one_less))
    return SymExpr.from_terms(out)


def _diff_rz(e: SymExpr, which: str) -> SymExpr:
    """d/dr or d/dz: a tau^{-gamma} times d/dR or d/dZ with the product rule."""
    out = []
    tau_shift = exponent(0, -1)
    for t in e.terms:
        pow_ = t.r_pow if which == "R" else t.z_pow
        if pow_:
            if which == "R":
                out.append(SymTerm(t.coeff * pow_, t.g_pow, t.r_pow - 1, t.z_pow,
                                   t.factors, t.tau + tau_shift))
            else:
                out.append(SymTerm(t.coeff * pow_, t.g_pow, t.r_pow, t.z_pow - 1,
                                   t.factors, t.tau + tau_shift))
        for i, f in enumerate(t.factors):
            rest = t.factors[:i] + t.factors[i + 1:]
            bumped = f.bump(dR=1) if which == "R" else f.bump(dZ=1)
            out.append(SymTerm(t.coeff, t.g_pow, t.r_pow, t.z_pow,
                               rest + (bumped,), t.tau + tau_shift))
    return SymExpr.from_terms(out)


def diff_r(e: SymExpr) -> SymExpr:
    return _diff_rz(e, "R")


def diff_z(e: SymExpr) -> SymExpr:
    return _diff_rz(e, "Z")


def geometric_expand(M: int) -> SymExpr:
    """Truncation sum_{m=0}^{M} (-R tau^gamma)^m of 1/(1 + tau^gamma R).

    The dropped remainder is O(tau^{(M+1) gamma}) uniformly on bounded R.
    """
    if M < 0:
        raise ValueError("truncation order must be >= 0")
    return SymExpr.from_terms(
        SymTerm(Fraction((-1) ** m), 0, m, 0, (), exponent(0, m)) for m in range(M + 1)
    )


# ---------------------------------------------------------------------------
# order collection


def collect_orders(eq: SymEquation) -> dict:
    """Split eq.lhs by tau-order on the lattice {base0 + k*gamma, k in N}.

    Returns {k: SymEquation} with tau stripped from each collected equation.
    Raises CommensurabilityError when the exponents are off-lattice.
    """
    e = canonicalize(eq.lhs)
    if e.is_zero:
        return {}
    bases = {t.tau.base for t in e.terms}
    if len(bases) > 1:
        raise CommensurabilityError(
            f"tau-exponent bases differ in {eq.label or 'equation'}: {sorted(bases)}"
        )
    g0 = min(t.tau.gamma_coeff for t in e.terms)
    buckets: dict = {}
    for t in e.terms:
        step = t.tau.gamma_coeff - g0
        if step.denominator != 1 or step < 0:
            raise CommensurabilityError(
                f"off-lattice tau-exponent {t.tau} in {eq.label or 'equation'}"
            )
        k = int(step)
        stripped = SymTerm(t.coeff, t.g_pow, t.r_pow, t.z_pow, t.factors)
        buckets.setdefault(k, []).append(stripped)
    return {
        k: SymEquation(SymExpr.from_terms(ts), label=f"{eq.label}[k={k}]")
        for k, ts in sorted(buckets.items())
    }


def lattice_base(eq: SymEquation) -> SsExponent:
    e = canonicalize(eq.lhs)
    if e.is_zero:
        return SsExponent()
    base = e.terms[0].tau.base
    g0 = min(t.tau.gamma_coeff for t in e.terms)
    return SsExponent(base, g0)


def reconstruct_orders(orders: Mapping[int, SymEquation], base0: SsExponent) -> SymExpr:
    """Inverse of collect_orders: sum_k tau^{base0 + k*gamma} * order_k."""
    total = SymExpr.zero()
    for k, oeq in orders.items():
        total = total + tau_pow(base0.base, base0.gamma_coeff + k) * oeq.lhs
    return total


# ---------------------------------------------------------------------------
# numeric evaluation

Binding = Callable[[ProfileRef, float, float], float]


def eval_numeric(e: SymExpr, bindings: Binding, point, tau_pow_gamma: float,
                 gamma: float) -> float:
    """Evaluate at (R, Z) with tau^gamma := tau_pow_gamma, tau := tpg^(1/gamma)."""
    R, Z = point
    total = 0.0
    for t in e.terms:
        v = float(t.coeff) * gamma ** t.g_pow * R ** t.r_pow * Z ** t.z_pow
        ev = t.tau
        if ev.base != 0:
            v *= tau_pow_gamma ** (float(ev.base) / gamma)
        if ev.gamma_coeff != 0:
            v *= tau_pow_gamma ** float(ev.gamma_coeff)
        for f in t.factors:
            v *= bindings(f, R, Z)
        total += v
    return total


# ---------------------------------------------------------------------------
# serialization


def _rat_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def term_to_json(t: SymTerm) -> dict:
    d = {
        "coeff": str(t.coeff),
        "gpow": t.g_pow,
        "rpow": t.r_pow,
        "zpow": t.z_pow,
        "factors": [f.to_json() for f in t.factors],
        "tau": t.tau.to_json(),
    }
    return d


def term_from_json(d: Mapping) -> SymTerm:
    return SymTerm(
        Fraction(d["coeff"]),
        d.get("gpow", 0),
        d.get("rpow", 0),
        d.get("zpow", 0),
        tuple(ProfileRef.from_json(f) for f in d.get("factors", ())),
        SsExponent.from_json(d["tau"]),
    )


def expr_to_json(e: SymExpr) -> dict:
    return {"terms": [term_to_json(t) for t in e.terms]}


def expr_from_json(d: Mapping) -> SymExpr:
    return SymExpr.from_terms(term_from_json(t) for t in d["terms"])


def equation_to_json(eq: SymEquation) -> dict:
    return {"label": eq.label, "lhs": expr_to_json(eq.lhs)}


def equation_from_json(d: Mapping) -> SymEquation:
    return SymEquation(expr_from_json(d["lhs"]), d.get("label", ""))


def _term_latex(t: SymTerm) -> str:
    bits = []
    c = t.coeff
    if c == -1 and (t.g_pow or t.r_pow or t.z_pow or t.factors or not t.tau.is_zero):
        bits.append("-")
    elif c != 1 or not (t.g_pow or t.r_pow or t.z_pow or t.factors or not t.tau.is_zero):
        bits.append(_rat_latex(c))
    if t.g_pow:
        bits.append("\\gamma" if t.g_pow == 1 else f"\\gamma^{{{t.g_pow}}}")
    if not t.tau.is_zero:
        bits.append(f"\\tau^{{{t.tau.latex()}}}")
    if t.r_pow:
        bits.append("R" if t.r_pow == 1 else f"R^{{{t.r_pow}}}")
    if t.z_pow:
        bits.append("Z" if t.z_pow == 1 else f"Z^{{{t.z_pow}}}")
    for f in t.factors:
        bits.append(f.latex())
    s = " ".join(bits)
    return s.replace("- ", "-", 1) if s.startswith("- ") else s


def expr_to_latex(e: SymExpr) -> str:
    if e.is_zero:
        return "0"
    out = _term_latex(e.terms[0])
    for t in e.terms[1:]:
        piece = _term_latex(t)
        out += piece if piece.startswith("-") else "+" + piece
    return out


def equation_to_latex(eq: SymEquation) -> str:
    return expr_to_latex(eq.lhs) + " = 0"
