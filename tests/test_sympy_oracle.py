"""`ssblow derive` against the independent sympy derivation: every order
0..depth and every decoupled induction system, by exact sympy equality."""

import json

import pytest
import sympy as sp

from ssblow import cli
from ssblow import hierarchy as hy
from ssblow.sscalc import expr_to_json
from sympy_oracle import mismatches, orders, profile, sympy_of_json


def derived(mode, depth, tmp_path):
    assert cli.main(["derive", "--mode", mode, "--depth", str(depth),
                     "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "hierarchy.json").read_text())


@pytest.mark.parametrize("mode", ["single", "generalized"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_derive_matches_sympy_oracle(mode, depth, tmp_path):
    report = derived(mode, depth, tmp_path)
    # generalized depth d carries the induction systems k = 1..d
    want_k = range(1, depth + 1) if mode == "generalized" else ()
    assert sorted(map(int, report["induction"])) == list(want_k)
    assert mismatches(report) == []


def test_oracle_reproduces_documented_psi_discrepancy():
    # the machine's -3 d_R Psi_0 at psi order 1 follows from the PDE alone,
    # while the hand-entered reference keeps its +d_R Psi_0
    a, g0, (_, order1) = orders((0,), 1, 1)["psi"]
    assert (a, g0) == (-1, 0)
    assert sp.expand(order1 + 3 * profile("Psi", 0, dR=1)) == 0
    ref = hy.reference_equations("single")["psi", 1]
    assert sympy_of_json(expr_to_json(ref)) == profile("Psi", 0, dR=1)


@pytest.mark.parametrize("where", ["order", "induction"])
def test_one_coefficient_mutation_is_caught(where, tmp_path):
    report = derived("generalized", 3, tmp_path)
    if where == "order":
        terms = report["orders"]["omega"]["2"]["lhs"]["terms"]
        want = [("omega", 2)]
    else:
        terms = report["induction"]["3"][0]["lhs"]["terms"]
        want = [("u", "induction 3")]
    terms[len(terms) // 2]["coeff"] = str(
        sp.Rational(terms[len(terms) // 2]["coeff"]) + 1)
    assert mismatches(report) == want
