"""An independent sympy derivation of the self-similar profile hierarchy.

The fields are written out in the physical variables (t, r, z),

    u1   = sum_k tau^(-1 + gamma/2 + k gamma) U_k((r - 1)/tau^gamma, z/tau^gamma)
    om1  = sum_k tau^(-1 + k gamma)           Omega_k(...)
    psi1 = sum_k tau^(-1 + 2 gamma + k gamma) Psi_k(...)

with tau = T - t, and the three residuals of the axisymmetric swirl system
are differentiated by sympy's own chain rule.  Only then are r = 1 + R
tau^gamma and z = Z tau^gamma substituted; each tau^(a + b gamma) becomes
tau^a s^b, the 3/r factor (a placeholder until then) becomes
3 sum_{m <= M} (-R s)^m, and order k of an equation is the coefficient of
s^(g0 + k), counted from its lowest power g0.  Nothing here uses the
package's term algebra: `sympy_of_json` reads what `ssblow derive` wrote.
"""

from collections import defaultdict
from functools import cache

import mpmath
import sympy as sp

t, T, r, z = sp.symbols("t T r z", real=True)
tau, s, gamma = sp.symbols("tau s gamma", positive=True)
R, Z = sp.symbols("R Z", real=True)
#: stands for 3/r until the geometric expansion replaces it
THREE_OVER_R = sp.Symbol("q")

#: each field's leading tau-exponent as (a, b) of tau^(a + b gamma)
LEADING = {"U": (-1, sp.Rational(1, 2)), "Omega": (-1, 0), "Psi": (-1, 2)}
EQ_NAMES = ("u", "omega", "psi")


def profile(field: str, k: int, dR: int = 0, dZ: int = 0):
    """d_R^dR d_Z^dZ of the profile field_k(R, Z), derivatives in R first."""
    f = sp.Function(f"{field}{k}")(R, Z)
    return sp.Derivative(f, (R, dR), (Z, dZ)) if dR or dZ else f


#: R, Z and tau as functions of the physical variables (t, r, z)
COORDINATES = {R: (r - 1) / (T - t) ** gamma, Z: z / (T - t) ** gamma,
               tau: T - t}


def similarity(e):
    """e, an expression in (t, r, z), expanded in (R, Z, tau)."""
    e = e.subs({r: 1 + R * tau ** gamma, z: Z * tau ** gamma})
    return sp.expand(e.subs(t, T - tau).doit())


def residuals(indices):
    """The u, omega and psi residuals in (t, r, z) of the ansatz summed
    over the series indices, with 3/r the placeholder THREE_OVER_R."""
    u, om, psi = (
        sum(tau ** (a + (b + k) * gamma) * profile(field, k)
            for k in indices).subs(COORDINATES, simultaneous=True)
        for field, (a, b) in LEADING.items())
    u_r, u_z = -r * sp.diff(psi, z), 2 * psi + r * sp.diff(psi, r)

    def transport(f):
        return sp.diff(f, t) + u_r * sp.diff(f, r) + u_z * sp.diff(f, z)

    return (transport(u) - 2 * u * sp.diff(psi, z),
            transport(om) - sp.diff(u ** 2, z),
            -(sp.diff(psi, r, 2) + THREE_OVER_R * sp.diff(psi, r)
              + sp.diff(psi, z, 2)) - om)


def _split_power(e, x):
    """(rest, exponent) of a product e = rest * x^exponent."""
    rest, power = e.as_independent(x, as_Add=False)
    exponent = sum(f.as_base_exp()[1] for f in sp.Mul.make_args(power)
                   if f != 1)
    return rest, exponent


def lattice(residual, M: int) -> dict:
    """{(a, b): coefficient} of the residual in similarity variables, the
    coefficient of tau^a s^b, with 3/r expanded to geometric order M."""
    geometric = 3 * sum((-R * s) ** m for m in range(M + 1))
    out = defaultdict(int)
    for term in sp.Add.make_args(similarity(residual)):
        rest, exponent = _split_power(term, tau)
        a, b = exponent.subs(gamma, 0), exponent.coeff(gamma)
        rest = sp.expand(rest.subs(THREE_OVER_R, geometric))
        for piece in sp.Add.make_args(rest):
            c, m = _split_power(piece, s)
            out[a, b + m] += c
    return {key: c for key, c in out.items() if c != 0}


@cache
def orders(indices, M: int, depth: int) -> dict:
    """{eq name: (a, g0, [order 0, ..., order depth])} of the ansatz; the
    result is shared between calls, so callers must not change it."""
    out = {}
    for name, residual in zip(EQ_NAMES, residuals(indices)):
        by_power = lattice(residual, M)
        [a] = {a for a, _ in by_power}
        g0 = min(b for _, b in by_power)
        out[name] = (a, g0, [by_power.get((a, g0 + k), 0)
                             for k in range(depth + 1)])
    return out


def exp_profiles(rng) -> dict:
    """Closed forms c exp(a R + b Z) for U0, Omega0 and Psi0, with random
    a, b in (-0.6, 0.6) and |c| in (0.3, 1.5) from a numpy Generator."""
    out = {}
    for f in ("U0", "Omega0", "Psi0"):
        a, b = rng.uniform(-0.6, 0.6, size=2)
        c = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
        out[f] = sp.Float(c) * sp.exp(sp.Float(a) * R + sp.Float(b) * Z)
    return out


def truncation_errors(name: str, kept: dict, base: tuple, profiles: dict,
                      point, gamma_value: float, taus) -> list:
    """|residual - sum_k tau^(a + (g0 + k) gamma) kept[k]| at each tau,
    for the named residual of the index-0 ansatz with its 3/r exact, where
    base = (a, g0) and kept maps order k to its `expr_to_json` dict.  The
    profiles are the closed forms of `exp_profiles`; the arithmetic has 40
    digits, so a remainder far below the residual's size is resolved."""
    exact = residuals((0,))[EQ_NAMES.index(name)].subs(THREE_OVER_R, 3 / r)
    a, g0 = base
    e = similarity(exact) - sum(
        tau ** (a + (g0 + k) * gamma) * sympy_of_json(d)
        for k, d in kept.items())
    for f, closed in profiles.items():
        e = e.replace(sp.Function(f), sp.Lambda((R, Z), closed))
    f = sp.lambdify((R, Z, tau, gamma), e.doit(), "mpmath")
    with mpmath.workdps(40):
        return [float(abs(f(*point, mpmath.mpf(x), mpmath.mpf(gamma_value))))
                for x in taus]


def sympy_of_json(d: dict):
    """The sympy expression of an `expr_to_json` dict."""
    total = sp.Integer(0)
    for term in d["terms"]:
        x = (sp.Rational(term["coeff"]) * gamma ** term["gpow"]
             * R ** term["rpow"] * Z ** term["zpow"]
             * tau ** (sp.Rational(term["tau"]["base"])
                       + sp.Rational(term["tau"]["gamma"]) * gamma))
        for f in term["factors"]:
            x *= profile(f["f"], f["k"], f["dR"], f["dZ"])
        total += x
    return total


def mismatches(report: dict) -> list:
    """The entries of a `hierarchy.json` report that differ from the sympy
    derivation: (equation, order), (equation, "base0") or (equation,
    "induction k")."""
    depth = report["depth"]
    indices = range(depth + 1) if report["mode"] == "generalized" else (0,)
    bad = []
    for name, (a, g0, derived) in orders(indices, depth, depth).items():
        base = report["base0"][name]
        if (sp.Rational(base["base"]), sp.Rational(base["gamma"])) != (a, g0):
            bad.append((name, "base0"))
        for k, want in enumerate(derived):
            # derive writes no entry for an order that vanishes
            eq = report["orders"][name].get(str(k))
            got = sympy_of_json(eq["lhs"]) if eq else 0
            if sp.expand(got - want) != 0:
                bad.append((name, k))
    for k, eqs in report["induction"].items():
        # a second route to what derive filters out of its orders: the
        # index-k-only ansatz, whose dominant order no term of the 3/r
        # expansion reaches
        dominant = orders((int(k),), 0, 0)
        for name, eq in zip(EQ_NAMES, eqs):
            if sp.expand(sympy_of_json(eq["lhs"]) - dominant[name][2][0]):
                bad.append((name, f"induction {k}"))
    return bad
