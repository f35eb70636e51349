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
from frobkit.cartier import CartierModule, is_nilpotent
from frobkit.cli import main
from frobkit.field import FieldSpec
from frobkit.gamma import (GammaSheaf, gamma_structure_violations,
                          gen_stable_dimension)
from frobkit.polyring import (BudgetExceededError, FreeVector, Polynomial,
                              QuotientContext, RingContext, parse_vector,
                              saturate)


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


def test_chain_budget_stops_the_kernel_chain(tmp_path, capsys):
    # the unit root of GF(2)[x]/(x^2) has image dimensions 2, 2: the repeat
    # at level 2 ends its kernel chain, one level past a budget of 1
    data = {"field": {"p": 2}, "ring": {"vars": ["x"]}, "ideal": ["x^2"],
            "objects": {"N": {"gamma": {"rank": 1, "matrix": [["1"]]}}},
            "commands": [{"op": "gen-dim", "target": "N"},
                         {"op": "nilpotent", "target": "N"}]}
    recs = run_cli(tmp_path, capsys, data, "--chain-budget", "1")
    assert [r["error"] for r in recs] == [
        "kernel chain did not stop in 1 levels; the last image dimension "
        "was 2 of dim N = 2"] * 2
    gen_dim, nilpotent = run_cli(tmp_path, capsys, data)
    assert gen_dim["result"] == {"dim": 2}
    assert nilpotent["result"] == {"verdict": "not_nilpotent"}
    # over GF(2)[x]/(x^5), N = R/(x) with gamma = x (d = 1) runs all its
    # d + 1 = 2 levels: a budget of 2 is enough, a budget of 1 is not
    ring = RingContext(FieldSpec(2), ("x",))
    x = Polynomial.variable(ring, "x")
    ctx = QuotientContext.from_generators(ring, [x ** 5])
    n = GammaSheaf.create(ctx, 1, [[x]], [FreeVector.unit(ring, 1, 0, x)])
    dim = gen_stable_dimension(n)
    with use_limits(Limits(chain=2)):
        assert gen_stable_dimension(n) == dim
    with use_limits(Limits(chain=1)), pytest.raises(BudgetExceededError):
        gen_stable_dimension(n)


def test_guard_stops_artin_schreier(tmp_path, capsys):
    data = xy_session({}, [{"op": "as-kernel", "q": 16}])
    [rec] = run_cli(tmp_path, capsys, data, "--guard", "10")
    assert rec["error"] == "field of size 16 exceeds the guard"


def test_guard_stops_point_enumeration(tmp_path, capsys):
    data = xy_session({"N": {"gamma": {"rank": 1, "matrix": [["1"]]}}},
                      [{"op": "solutions", "target": "N", "m": 3}])
    [rec] = run_cli(tmp_path, capsys, data, "--guard", "10")
    assert rec["error"] == "64 candidate points exceed the guard 10"


def test_guard_stops_staircase_enumeration(tmp_path, capsys):
    # gen-dim of the unit root lists the staircase of R^1 = R: unguarded, a
    # box of 3000^2 monomials ran past 20 s, and one of 10^8 ran out of memory
    unit = {"N": {"gamma": {"rank": 1, "matrix": [["1"]]}}}
    gen_dim = [{"op": "gen-dim", "target": "N"}]
    square = dict(xy_session(unit, gen_dim), ideal=["x^3000", "y^3000"])
    [rec] = run_cli(tmp_path, capsys, square)
    assert rec["error"] == ("staircase box of 9000000 monomials exceeds the "
                            "guard 1000000")
    line = {"field": {"p": 2}, "ring": {"vars": ["x"]},
            "ideal": ["x^100000000"], "objects": unit, "commands": gen_dim}
    [rec] = run_cli(tmp_path, capsys, line)
    assert rec["error"] == ("staircase box of 100000000 monomials exceeds "
                            "the guard 1000000")
    small = dict(xy_session(unit, gen_dim), ideal=["x^3", "y^3"])
    [rec] = run_cli(tmp_path, capsys, small, "--guard", "9")
    assert rec["result"] == {"dim": 9}
    [rec] = run_cli(tmp_path, capsys, small, "--guard", "8")
    assert rec["error"] == "staircase box of 9 monomials exceeds the guard 8"


def test_every_groebner_path_obeys_the_spair_limit():
    ring = RingContext(FieldSpec(2), ("x", "y"))
    ctx = QuotientContext.trivial(ring)
    x, y = (Polynomial.variable(ring, v) for v in ("x", "y"))
    # each level of the image chain of the zero operator is the basis of
    # these relations, which takes two S-pairs
    m = CartierModule.create(ctx, 1, [parse_vector(ring, 1, t)
                                      for t in ("x^2", "x*y", "y^2")])
    # the [2]-twists of these relations take two S-pairs
    n = GammaSheaf.create(ctx, 1, [[Polynomial.zero(ring)]],
                          [parse_vector(ring, 1, "x^2 + y"),
                           parse_vector(ring, 1, "x*y + 1")])
    # the first quotient of the saturation takes four
    r = CartierModule.create(ctx, 2, [parse_vector(ring, 2, "[x*y, y]"),
                                      parse_vector(ring, 2, "[0, x^2 + x*y]")])
    assert is_nilpotent(m).is_nilpotent
    assert not gamma_structure_violations(n)
    saturate(r.relations, x + y)
    with use_limits(Limits(spair=1)):
        assert is_nilpotent(m).status == "budget_exceeded"
        with pytest.raises(BudgetExceededError):
            gamma_structure_violations(n)
        with pytest.raises(BudgetExceededError):
            saturate(r.relations, x + y)


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


@pytest.mark.parametrize("name", ["spair", "chain", "guard"])
@pytest.mark.parametrize("value", [0, -3, True, 2.0, "5", None])
def test_limits_refuse_what_is_not_a_positive_int(name, value):
    with pytest.raises(ValueError, match=f"limit {name} must be a positive"):
        Limits(**{name: value})
    assert getattr(Limits(**{name: 1}), name) == 1
