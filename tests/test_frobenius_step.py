"""The Frobenius step behind the gamma levels: F acts on R = P/I in one
function, which over a quotient reduces every product of a square-and-
multiply, and each level of F^e*N and of the composite is built from the
one before.  Checked against the unreduced p^e-fold twist of frobkit.verify,
on sessions over GF(2^61 - 1) whose relations twist to degree p, and on the
guard that the residue exponents meet before they are listed."""
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.cli import main
from frobkit.field import FieldSpec, power
from frobkit.frobenius import residue_exponents
from frobkit.gamma import twisted_relations
from frobkit.polyring import (GuardExceededError, Limits, RingContext,
                              use_limits)
from frobkit.session import SessionError, run_session
from frobkit.verify import frobenius_twist_vector
from test_kernel_chain import random_root, roots

P61 = 2 ** 61 - 1


class Tally:
    """A ring element whose products only count: a squaring multiplies an
    element by itself, any other product is one of the result's."""

    def __init__(self, counts):
        self.counts = counts

    def __mul__(self, other):
        self.counts["squarings" if self is other else "products"] += 1
        return Tally(self.counts)


@given(st.integers(0, 2 ** 70))
def test_power_squares_only_while_bits_remain(n):
    counts = {"squarings": 0, "products": 0}
    power(Tally(counts), n, Tally(counts))
    assert counts == {"squarings": max(n.bit_length() - 1, 0),
                      "products": bin(n).count("1")}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(roots, st.integers(0, 3))
def test_relation_levels_match_the_unreduced_twist(case, e):
    seed, (p, names, k, ambient), boxes = case
    n = random_root(seed, p, names, k, len(boxes), ambient, boxes)
    twisted = [frobenius_twist_vector(g, e) for g in n.relations.generators]
    assert twisted_relations(n, e) == n.ctx.module_relations(n.rank, twisted)


def large_p_session(ideal, gamma, commands):
    return {"field": {"p": P61}, "ring": {"vars": ["x", "y"]},
            "ideal": ideal, "objects": {"G": {"gamma": gamma}},
            "commands": commands}


def run_within_a_second(data):
    start = time.perf_counter()
    try:
        return run_session(data)
    finally:
        assert time.perf_counter() - start < 1.0


def test_large_p_relation_twists_in_the_quotient():
    # x^p = x (-3y)^((p-1)/2) mod x^2 + 3y, and x is not in (x^p, x^2 + 3y)
    data = large_p_session(["x^2 + 3*y"], {"rank": 1, "relations": ["[x]"],
                                           "matrix": [["1"]]}, [])
    with pytest.raises(SessionError, match="gamma matrix is inconsistent"):
        run_within_a_second(data)


def test_large_p_zero_root_loads_and_meets_the_guard():
    ops = [{"op": op, "target": "G"}
           for op in ("validate", "gen-dim", "nilpotent")]
    data = large_p_session(["x^2 + 3*y"], {"rank": 1, "relations": ["[x]"],
                                           "matrix": [["0"]]}, ops)
    valid, gen_dim, nilpotent = run_within_a_second(data)
    assert valid["result"] == {"valid": True, "violations": []}
    for rec in (gen_dim, nilpotent):
        assert rec["status"] == "error" and "guard" in rec["error"]


@pytest.mark.parametrize("entry, dim, verdict", [
    ("x", 0, {"verdict": "nilpotent", "index": 2}),
    ("1 + x", 6, {"verdict": "not_nilpotent"}),
])
def test_large_p_free_root_over_a_fat_point(entry, dim, verdict):
    # R = GF(p)[x,y]/(x^2 + 3y, y^3) has dimension 6 and x^6 = 0 in it
    ops = [{"op": op, "target": "G"} for op in ("gen-dim", "nilpotent")]
    data = large_p_session(["x^2 + 3*y", "y^3"],
                           {"rank": 1, "matrix": [[entry]]}, ops)
    gen_dim, nilpotent = run_within_a_second(data)
    assert gen_dim["result"] == {"dim": dim}
    assert nilpotent["result"] == verdict


def test_residue_exponents_meet_the_guard_before_listing():
    ring = RingContext(FieldSpec(10007), ("x", "y"))
    with use_limits(Limits(guard=10 ** 8)):
        with pytest.raises(GuardExceededError,
                           match="100140049 residue exponents exceed the "
                                 "guard 100000000"):
            residue_exponents(ring)
    with use_limits(Limits(guard=10007 ** 2)):
        assert next(residue_exponents(ring)) == (0, 0)


def test_large_p_module_is_a_load_error(tmp_path, capsys):
    data = {"field": {"p": P61}, "ring": {"vars": ["x", "y"]},
            "ideal": ["x"], "objects": {"M": {"module": {"rank": 1,
                                                         "kappa": {}}}},
            "commands": [{"op": "validate", "target": "M"}]}
    path = tmp_path / "session.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "status": "error",
        "error": f"object 'M': {P61 ** 2} residue exponents exceed the "
                 f"guard {Limits.guard}"}
    assert "Traceback" not in err


def test_twist_to_cartier_at_a_large_prime_meets_the_guard():
    data = {"field": {"p": 10007}, "ring": {"vars": ["x", "y"]},
            "objects": {"G": {"gamma": {"rank": 1, "matrix": [["1"]]}}},
            "commands": [{"op": "twist-to-cartier", "target": "G"}]}
    [rec] = run_within_a_second(data)
    assert rec["status"] == "error"
    assert rec["error"].startswith("100140049 residue exponents exceed")
