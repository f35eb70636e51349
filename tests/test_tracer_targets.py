"""The benchmark's tracer (perfbench/tracing.py) patches frobkit functions
and methods by name.  Every name in its TARGETS must resolve, and what its
work tallies read of a result must still be there, so that a rename or a
changed return value in src/ fails here and not only in a traced benchmark
run."""
import importlib
import importlib.util
from pathlib import Path

import frobkit.gamma
from frobkit.field import FieldSpec
from frobkit.gamma import GammaSheaf
from frobkit.polyring import Polynomial, QuotientContext, RingContext
from frobkit.session import run_session

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_tracing().TARGETS
    missing = []
    for modname, path, *_ in targets:
        owner = importlib.import_module("frobkit." + modname)
        if "." in path:
            # the tracer replaces the attribute in the class's own namespace
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and attr in vars(cls)
        else:
            found = callable(getattr(owner, path, None))
        if not found:
            missing.append(f"{modname}.{path}")
    assert targets and not missing, missing


def test_tracer_tallies_read_the_results():
    # gen-dim over a quotient, a Cartier image chain over the ambient ring,
    # and one direct three-level iterate
    quotient = {"field": {"p": 2}, "ring": {"vars": ["x"]},
                "ideal": ["x^2"],
                "objects": {"N": {"gamma": {"rank": 1, "matrix": [["1"]]}}},
                "commands": [{"op": "gen-dim", "target": "N"}]}
    ambient = {"field": {"p": 2}, "ring": {"vars": ["x", "y"]},
               "objects": {"M": {"module": {"rank": 1,
                                            "kappa": {"0,1 1": "x*y"}}}},
               "commands": [{"op": "nilpotent", "target": "M"}]}
    ring = RingContext(FieldSpec(3), ("x",))
    n = GammaSheaf.create(QuotientContext.trivial(ring), 1,
                          [[Polynomial.variable(ring, "x")]])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        records = run_session(quotient) + run_session(ambient)
        frobkit.gamma.gamma_iterate(n, 3)
    finally:
        tracer.uninstall()
    assert [r["status"] for r in records] == ["ok", "ok"]
    [metrics] = tracer.rounds
    assert metrics["cartier.chain_levels"][0] >= 1
    assert metrics["gamma.iterate_levels"] == (3, "count")
    assert metrics["session.commands"] == (2, "count")
