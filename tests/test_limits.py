"""The session limits: each flag of ``frobkit run`` bounds the work it names,
the library paths that build Groebner bases obey the limits in force, and no
function takes a limit as a parameter."""
import importlib
import inspect
import json
import pkgutil

import pytest

import frobkit
from frobkit import Limits, use_limits
from frobkit.cartier import (CartierModule, is_nilpotent,
                             restrict_to_principal_open)
from frobkit.cli import main
from frobkit.field import FieldSpec
from frobkit.gamma import GammaSheaf, gamma_structure_violations
from frobkit.polyring import (BudgetExceededError, Polynomial,
                              QuotientContext, RingContext, parse_vector)


def run_cli(tmp_path, capsys, data, *flags):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "reports.jsonl"
    main(["run", str(path), "--out", str(out), *flags])
    capsys.readouterr()
    return [json.loads(line) for line in out.read_text().splitlines()]


def xy_session(objects, commands):
    return {"field": {"p": 2}, "ring": {"vars": ["x", "y"]},
            "objects": objects, "commands": commands}


def test_spair_budget_stops_gb(tmp_path, capsys):
    data = xy_session({}, [{"op": "gb",
                            "polys": ["x^2 + y", "y^2 + x", "x*y + 1"]}])
    [rec] = run_cli(tmp_path, capsys, data, "--spair-budget", "1")
    assert rec["status"] == "error"
    assert rec["error"] == ("S-pair budget 1 exceeded after 3 basis elements, "
                            "1 pairs pending, 1 pairs pruned")


def test_chain_budget_stops_nilpotence(tmp_path, capsys):
    data = xy_session({"M": {"module": {"rank": 1,
                                        "kappa": {"0,1 1": "x*y"}}}},
                      [{"op": "nilpotent", "target": "M"}])
    [rec] = run_cli(tmp_path, capsys, data, "--chain-budget", "1")
    assert rec["result"] == {"verdict": "budget_exceeded"}
    [rec] = run_cli(tmp_path, capsys, data)
    assert rec["result"] == {"verdict": "not_nilpotent"}


def test_guard_stops_artin_schreier(tmp_path, capsys):
    data = xy_session({}, [{"op": "as-kernel", "q": 16}])
    [rec] = run_cli(tmp_path, capsys, data, "--guard", "10")
    assert rec["error"] == "field of size 16 exceeds the guard"


def test_guard_stops_point_enumeration(tmp_path, capsys):
    data = xy_session({"N": {"gamma": {"rank": 1, "matrix": [["1"]]}}},
                      [{"op": "solutions", "target": "N", "m": 3}])
    [rec] = run_cli(tmp_path, capsys, data, "--guard", "10")
    assert rec["error"] == "64 candidate points exceed the guard 10"


def test_every_groebner_path_obeys_the_spair_limit():
    ring = RingContext(FieldSpec(2), ("x", "y"))
    ctx = QuotientContext.trivial(ring)
    x, y = (Polynomial.variable(ring, v) for v in ("x", "y"))
    # the basis of all of P^2 plus these relations takes two S-pairs; the
    # image chain of the zero operator takes none after it
    m = CartierModule.create(ctx, 2, [parse_vector(ring, 2, "[x^2, 0]"),
                                      parse_vector(ring, 2, "[0, x^2]")])
    # the [2]-twists of these relations take two S-pairs
    n = GammaSheaf.create(ctx, 1, [[Polynomial.zero(ring)]],
                          [parse_vector(ring, 1, "x^2 + y"),
                           parse_vector(ring, 1, "x*y + 1")])
    # the first quotient of the saturation takes four
    r = CartierModule.create(ctx, 2, [parse_vector(ring, 2, "[x*y, y]"),
                                      parse_vector(ring, 2, "[0, x^2 + x*y]")])
    assert is_nilpotent(m).is_nilpotent
    assert not gamma_structure_violations(n)
    restrict_to_principal_open(r, x + y)
    with use_limits(Limits(spair=1)):
        assert is_nilpotent(m).status == "budget_exceeded"
        with pytest.raises(BudgetExceededError):
            gamma_structure_violations(n)
        with pytest.raises(BudgetExceededError):
            restrict_to_principal_open(r, x + y)


def test_no_function_takes_a_limit():
    names = {"budget", "guard", "max_levels", "max_rounds"}
    found = []
    for info in pkgutil.iter_modules(frobkit.__path__):
        mod = importlib.import_module(f"frobkit.{info.name}")
        for obj in vars(mod).values():
            # Limits itself is where the limits are named
            if (obj is Limits
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            members = [obj]
            if inspect.isclass(obj):
                members = [getattr(v, "__func__", v)
                           for v in vars(obj).values()]
            for fn in members:
                if inspect.isfunction(fn):
                    found += [f"{fn.__qualname__}({p})"
                              for p in inspect.signature(fn).parameters
                              if p in names]
    assert not found, f"{len(found)} limit parameters: {found}"
