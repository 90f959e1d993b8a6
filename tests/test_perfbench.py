"""The benchmark's hold on the package: every name perfbench's tracer
wraps still exists where the tracer looks it up, its term counter reads a
derivation, and perfbench's direct calls into the package still bind.
perfbench/ is a directory of scripts, so its modules are loaded by path.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ssblow import cylsim, hierarchy, rigidity
from ssblow.gridio import ScalarField2D

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", load("tracer").TARGETS,
                         ids=lambda v: v)
def test_every_traced_name_resolves(module_name, attr):
    # as Tracer.install finds it: the owner's own attribute, so that an
    # inherited one cannot stand in for a removed method
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(leaf))


def test_term_counter_reads_a_derivation():
    tracer, workloads = load("tracer"), load("workloads")
    t = tracer.Tracer()
    report = hierarchy.derive_hierarchy(hierarchy.AnsatzSpec("generalized", 2))
    tracer._count_terms(t, (), report)
    assert t.counters["hierarchy.terms.generalized_d2"] == 86
    assert workloads.GENERALIZED_TERMS[2] == 86


def test_direct_calls_bind():
    def bind(fn, *args, **kwargs):
        inspect.signature(fn).bind(*args, **kwargs)  # TypeError if not

    grid, psi = cylsim.CylGrid(9, 9), object()
    bind(rigidity.psi_endgame, True, rigidity.HalfPlaneGrid(),
         lambda R, Z: 2.0 * R + 1.0, radii=(10.0, 20.0))
    bind(cylsim.CylGrid, 9, 9, z_bc="dirichlet")
    bind(cylsim.reconstruct_velocity, psi, grid)
    bind(cylsim.apply_operator, psi, grid)
    bind(ScalarField2D.from_binary, "psi1_final.bin")
    bind(cylsim.track_blowup, cylsim.BlowupSeries())
