"""Exact symbolic calculus for self-similar substitutions.

Expressions are finite sums of terms

    coeff * gamma^g_pow * R^r_pow * Z^z_pow * (product of profile
    derivatives) * tau^(base + gamma_coeff * gamma)

with exact rational coefficients.  gamma is never given a numeric value
inside the algebra; it appears both as a symbolic factor (g_pow) and in
the affine tau-exponents.  A rational is an int when it is integral and
a Fraction otherwise.  All values are immutable, so canonical forms are
safe to share and hash: assigning to a field raises.

The module imports only the standard library.  It also holds the JSON
and LaTeX writers, among them `json_write`, the package's indented JSON
writer, which hands its text to a sink in bounded chunks, so that the
symbolic commands run without numpy.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable

__all__ = [
    "CommensurabilityError",
    "SsExponent",
    "ProfileRef",
    "SymTerm",
    "SymExpr",
    "SymEquation",
    "exponent",
    "term",
    "prof",
    "diff_tau",
    "diff_r",
    "diff_z",
    "geometric_expand",
    "product_terms",
    "collect_orders",
    "expr_to_json",
    "equation_to_json",
    "expr_to_latex",
    "equation_to_latex",
    "json_write",
]


class CommensurabilityError(ValueError):
    """tau-exponents of an expression do not lie on a base0 + k*gamma lattice."""


def _rat(x):
    """x as an int when integral, else as a Fraction: the two compare, hash
    and print alike, and int arithmetic is several times cheaper."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, (int, str)):
        return _rat(Fraction(x))
    raise TypeError(f"not an exact rational: {x!r}")


_set = object.__setattr__
_key_of, _sig_of = attrgetter("_key"), attrgetter("_sig")


class _Value:
    """Immutable slotted value.  __init__ sets every slot once, _key (what
    == compares) and _hash among them; assignment raises."""

    __slots__ = ()
    _fields: tuple = ()  # the constructor arguments, in order

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


# ---------------------------------------------------------------------------
# exponents


class SsExponent(_Value):
    """Formal exponent base + gamma_coeff * gamma of tau = (T - t)."""

    _fields = ("base", "gamma_coeff")
    __slots__ = _fields + ("_key", "_hash")

    def __init__(self, base=0, gamma_coeff=0):
        key = (_rat(base), _rat(gamma_coeff))
        _set(self, "base", key[0])
        _set(self, "gamma_coeff", key[1])
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def __add__(self, other: "SsExponent") -> "SsExponent":
        return SsExponent(self.base + other.base, self.gamma_coeff + other.gamma_coeff)

    @property
    def is_zero(self) -> bool:
        return self.base == 0 and self.gamma_coeff == 0

    def _format(self, rat: Callable, g: str) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.base != 0:
            parts.append(rat(self.base))
        c = self.gamma_coeff
        if c != 0:
            parts.append(g if c == 1 else "-" + g if c == -1 else rat(c) + g)
        return "+".join(parts).replace("+-", "-")

    def __str__(self) -> str:
        return self._format(str, "g")

    def latex(self) -> str:
        return self._format(_rat_latex, "\\gamma")

    def to_json(self) -> dict:
        return {"base": str(self.base), "gamma": str(self.gamma_coeff)}


_TAU0 = SsExponent()


def exponent(base=0, gamma=0) -> SsExponent:
    return SsExponent(base, gamma)


# ---------------------------------------------------------------------------
# profile references

FIELDS = ("U", "Omega", "Psi")


class ProfileRef(_Value):
    """Mixed partial d_R^dR d_Z^dZ of profile <field>_<series_index>."""

    _fields = ("field", "series_index", "dR", "dZ")
    __slots__ = _fields + ("_key", "_hash")

    def __init__(self, field, series_index=0, dR=0, dZ=0):
        if field not in FIELDS:
            raise ValueError(f"unknown field tag {field!r}")
        if series_index < 0 or dR < 0 or dZ < 0:
            raise ValueError("series_index/dR/dZ must be non-negative")
        key = (FIELDS.index(field), series_index, dR, dZ)
        _set(self, "field", field)
        _set(self, "series_index", series_index)
        _set(self, "dR", dR)
        _set(self, "dZ", dZ)
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def bump(self, dR=0, dZ=0) -> "ProfileRef":
        return ProfileRef(self.field, self.series_index, self.dR + dR, self.dZ + dZ)

    def to_json(self) -> dict:
        return {"f": self.field, "k": self.series_index, "dR": self.dR, "dZ": self.dZ}

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
        if self.series_index:
            s += str(self.series_index)
        if self.dR or self.dZ:
            s += "_" + "R" * self.dR + "Z" * self.dZ
        return s


# ---------------------------------------------------------------------------
# terms and expressions


class SymTerm(_Value):
    _fields = ("coeff", "g_pow", "r_pow", "z_pow", "factors", "tau")
    __slots__ = _fields + ("_sig", "_key", "_hash")

    def __init__(self, coeff, g_pow=0, r_pow=0, z_pow=0, factors=(), tau=_TAU0):
        if g_pow < 0 or r_pow < 0 or z_pow < 0:
            raise ValueError("powers must be non-negative")
        coeff = _rat(coeff)
        factors = tuple(sorted(factors, key=_key_of))
        sig = (tuple(map(_key_of, factors)), r_pow, z_pow, g_pow, tau._key)
        key = (coeff, sig)
        _set(self, "coeff", coeff)
        _set(self, "g_pow", g_pow)
        _set(self, "r_pow", r_pow)
        _set(self, "z_pow", z_pow)
        _set(self, "factors", factors)
        _set(self, "tau", tau)
        _set(self, "_sig", sig)
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def signature(self):
        """Everything but the coefficient: the key that merges like terms and
        sorts them, a tuple of ints and rationals."""
        return self._sig

    def scaled(self, c) -> "SymTerm":
        return self._replace_coeff(self.coeff * _rat(c))

    def _without_tau(self) -> "SymTerm":
        """This term with tau^0: the factors stay sorted, so only the tau
        key of the signature changes and __init__'s sort is skipped."""
        t = object.__new__(SymTerm)
        sig = self._sig[:4] + (_TAU0._key,)
        key = (self.coeff, sig)
        _set(t, "coeff", self.coeff)
        _set(t, "g_pow", self.g_pow)
        _set(t, "r_pow", self.r_pow)
        _set(t, "z_pow", self.z_pow)
        _set(t, "factors", self.factors)
        _set(t, "tau", _TAU0)
        _set(t, "_sig", sig)
        _set(t, "_key", key)
        _set(t, "_hash", hash(key))
        return t

    def _replace_coeff(self, c) -> "SymTerm":
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
            sig = t._sig
            prev = merged.get(sig)
            merged[sig] = t if prev is None else prev._replace_coeff(prev.coeff + t.coeff)
        out = [t for t in merged.values() if t.coeff != 0]
        out.sort(key=_sig_of)
        return SymExpr(tuple(out))

    @staticmethod
    def zero() -> "SymExpr":
        return SymExpr(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymExpr") -> "SymExpr":
        return SymExpr.from_terms(self.terms + other.terms)

    def __neg__(self) -> "SymExpr":
        return SymExpr(tuple(t.scaled(-1) for t in self.terms))

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return self + (-other)

    def __mul__(self, other) -> "SymExpr":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SymExpr.zero()
            return SymExpr(tuple(t.scaled(other) for t in self.terms))
        return SymExpr.from_terms(product_terms(self, other))

    def __rmul__(self, other) -> "SymExpr":
        return self.__mul__(other)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(str(t) for t in self.terms)


def product_terms(a: SymExpr, b: SymExpr, cap=None):
    """The products of a's terms with b's terms, unmerged.

    With a cap, only the pairs whose tau^gamma coefficients sum to at most
    cap are multiplied (truncated power-series multiplication, Knuth, TAOCP
    vol. 2, 4.7): merged, they are a*b with every term above cap dropped,
    and no dropped term is ever formed.
    """
    if cap is None:
        return (x * y for x in a.terms for y in b.terms)
    by_gamma = sorted(b.terms, key=lambda t: t.tau.gamma_coeff)
    return (x * y for x in a.terms
            for y in _upto(by_gamma, cap - x.tau.gamma_coeff))


def _upto(by_gamma: list, cap):
    for t in by_gamma:
        if t.tau.gamma_coeff > cap:
            return
        yield t


@dataclass(frozen=True)
class SymEquation:
    """Equation lhs = 0."""

    lhs: SymExpr
    label: str = ""


# ---------------------------------------------------------------------------
# builders


def term(coeff=1, g=0, r=0, z=0, factors=(), tau=_TAU0) -> SymExpr:
    return SymExpr.from_terms([SymTerm(coeff, g, r, z, factors, tau)])


def prof(field: str, k: int = 0, dR: int = 0, dZ: int = 0) -> SymExpr:
    return term(factors=(ProfileRef(field, k, dR, dZ),))


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
        tau = t.tau + one_less
        # -(a + b*gamma) tau^{e-1} from the tau power
        if t.tau.base != 0:
            out.append(SymTerm(-t.coeff * t.tau.base, t.g_pow, t.r_pow,
                               t.z_pow, t.factors, tau))
        if t.tau.gamma_coeff != 0:
            out.append(SymTerm(-t.coeff * t.tau.gamma_coeff, t.g_pow + 1,
                               t.r_pow, t.z_pow, t.factors, tau))
        # (i + j) gamma R^i Z^j / tau
        if t.r_pow + t.z_pow:
            out.append(SymTerm(t.coeff * (t.r_pow + t.z_pow), t.g_pow + 1,
                               t.r_pow, t.z_pow, t.factors, tau))
        # gamma tau^{-1} (R d_R + Z d_Z) on each profile factor
        for i, f in enumerate(t.factors):
            rest = t.factors[:i] + t.factors[i + 1:]
            out.append(SymTerm(t.coeff, t.g_pow + 1, t.r_pow + 1, t.z_pow,
                               rest + (f.bump(dR=1),), tau))
            out.append(SymTerm(t.coeff, t.g_pow + 1, t.r_pow, t.z_pow + 1,
                               rest + (f.bump(dZ=1),), tau))
    return SymExpr.from_terms(out)


def _diff_rz(e: SymExpr, dR: int, dZ: int) -> SymExpr:
    """d/dr (dR = 1) or d/dz (dZ = 1): a tau^{-gamma} times d/dR or d/dZ
    with the product rule."""
    out = []
    tau_shift = exponent(0, -1)
    for t in e.terms:
        tau = t.tau + tau_shift
        pow_ = t.r_pow * dR + t.z_pow * dZ
        if pow_:
            out.append(SymTerm(t.coeff * pow_, t.g_pow, t.r_pow - dR,
                               t.z_pow - dZ, t.factors, tau))
        for i, f in enumerate(t.factors):
            rest = t.factors[:i] + t.factors[i + 1:]
            out.append(SymTerm(t.coeff, t.g_pow, t.r_pow, t.z_pow,
                               rest + (f.bump(dR, dZ),), tau))
    return SymExpr.from_terms(out)


def diff_r(e: SymExpr) -> SymExpr:
    return _diff_rz(e, 1, 0)


def diff_z(e: SymExpr) -> SymExpr:
    return _diff_rz(e, 0, 1)


def geometric_expand(M: int) -> SymExpr:
    """Truncation sum_{m=0}^{M} (-R tau^gamma)^m of 1/(1 + tau^gamma R).

    The dropped remainder is O(tau^{(M+1) gamma}) uniformly on bounded R.
    """
    if M < 0:
        raise ValueError("truncation order must be >= 0")
    return SymExpr.from_terms(
        SymTerm((-1) ** m, 0, m, 0, (), exponent(0, m)) for m in range(M + 1)
    )


# ---------------------------------------------------------------------------
# order collection


def collect_orders(eq: SymEquation) -> dict:
    """Split eq.lhs by tau-order on the lattice {base0 + k*gamma, k in N}.

    Returns {k: SymEquation} with tau stripped from each collected equation.
    Raises CommensurabilityError when the exponents are off-lattice.  eq.lhs
    must be canonical, as every SymExpr built by this module is.
    """
    e = eq.lhs
    if e.is_zero:
        return {}
    # one pass groups the terms by their tau (SsExponent hashes are
    # cached); the lattice checks then run once per distinct exponent
    by_tau: dict = {}
    for t in e.terms:
        by_tau.setdefault(t.tau, []).append(t)
    base = e.terms[0].tau.base
    if any(tau.base != base for tau in by_tau):
        bases = sorted({tau.base for tau in by_tau})
        raise CommensurabilityError(
            f"tau-exponent bases differ in {eq.label or 'equation'}: {bases}"
        )
    g0 = min(tau.gamma_coeff for tau in by_tau)
    buckets: dict = {}
    for tau, ts in by_tau.items():
        step = tau.gamma_coeff - g0
        if step.denominator != 1 or step < 0:
            raise CommensurabilityError(
                f"off-lattice tau-exponent {tau} in {eq.label or 'equation'}"
            )
        buckets[int(step)] = [t._without_tau() for t in ts]
    # the terms of one bucket share their tau, so stripping it merges none
    # and keeps their canonical order
    return {
        k: SymEquation(SymExpr(tuple(ts)), label=f"{eq.label}[k={k}]")
        for k, ts in sorted(buckets.items())
    }


def lattice_base(eq: SymEquation) -> SsExponent:
    """tau^base0 of collect_orders' k = 0 for a canonical eq.lhs."""
    e = eq.lhs
    if e.is_zero:
        return SsExponent()
    return SsExponent(e.terms[0].tau.base,
                      min(t.tau.gamma_coeff for t in e.terms))


# ---------------------------------------------------------------------------
# serialization


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


#: parts the JSON writer holds before it hands them on, joined, to its sink
_CHUNK = 4096


def json_write(obj, write: Callable[[str], object],
               sort_keys: bool = False) -> None:
    """Write the text of json.dumps(obj, indent=2, sort_keys=sort_keys)
    through write(str), in chunks of at most about _CHUNK parts.

    The stdlib encodes with an indent in pure Python, one generator per
    container; this appends to one list of parts and hands the list on,
    joined, once it holds _CHUNK parts, so a file writer holds a bounded
    piece of the text and not all of it.  Values are str-keyed dicts,
    lists, tuples, str, int, float (subclasses such as np.float64
    included), bool and None; anything else, and a non-str key, raises
    TypeError, possibly after part of the text has been written.
    """
    escape, intstr, chunk = _ESCAPE, int.__repr__, _CHUNK
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
    # call of value() per item, and hand on a full list after each item
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
            if len(parts) >= chunk:
                write("".join(parts))
                parts.clear()
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
            if len(parts) >= chunk:
                write("".join(parts))
                parts.clear()
        put(newline[level - 1] + "}")

    try:
        value(obj, 0)
    finally:
        # the three closures hold each other: emptying their cells frees
        # them, and the parts list, on return instead of at the next
        # cyclic garbage collection
        del value, sequence, mapping
    write("".join(parts))


def _rat_latex(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def term_to_json(t: SymTerm) -> dict:
    return {
        "coeff": str(t.coeff),
        "gpow": t.g_pow,
        "rpow": t.r_pow,
        "zpow": t.z_pow,
        "factors": [f.to_json() for f in t.factors],
        "tau": t.tau.to_json(),
    }


def expr_to_json(e: SymExpr) -> dict:
    return {"terms": [term_to_json(t) for t in e.terms]}


def equation_to_json(eq: SymEquation) -> dict:
    return {"label": eq.label, "lhs": expr_to_json(eq.lhs)}


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
