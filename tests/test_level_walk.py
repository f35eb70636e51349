"""The level walk of gamma.py over an infinite-dimensional N: the nilpotence
search of gamma_is_nilpotent, checked against a loop written out here that
twists the relations without reducing them, and its depth, which the bound
of the command sets and the chain budget does not."""
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobkit.cartier import NilpotenceVerdict
from frobkit.cli import main
from frobkit.field import FieldSpec
from frobkit.gamma import GammaSheaf, gamma_is_nilpotent, gamma_iterate
from frobkit.polyring import (FreeVector, Polynomial, QuotientContext,
                              RingContext, normal_form)
from frobkit.verify import frobenius_twist_vector

MONOMIALS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]


def reference_search(n, e_max):
    """The first e <= e_max whose composite's columns lie in the relations
    of F^e*N, presented by the unreduced [p^e]-twists of N's relations."""
    for e in range(1, e_max + 1):
        twisted = [frobenius_twist_vector(g, e)
                   for g in n.relations.generators]
        tw = n.ctx.module_relations(n.rank, twisted)
        mat = gamma_iterate(n, e)
        cols = [FreeVector(n.ring, (mat[i][j] for i in range(n.rank)))
                for j in range(n.rank)]
        if all(normal_form(c, tw).is_zero() for c in cols):
            return NilpotenceVerdict.nilpotent(e)
    return NilpotenceVerdict.not_nilpotent_up_to(e_max)


def free_root(p, ambient, matrix):
    """N = R^s over P = GF(p)[x,y] or over R = P/(xy), with gamma given by
    entries written as {exponent: coefficient}."""
    ring = RingContext(FieldSpec(p), ("x", "y"))
    if ambient:
        ctx = QuotientContext.trivial(ring)
    else:
        ctx = QuotientContext.from_generators(
            ring, [Polynomial.monomial(ring, (1, 1))])
    rows = [[sum((Polynomial.monomial(ring, m, c)
                  for m, c in entry.items()), Polynomial.zero(ring))
             for entry in row] for row in matrix]
    return GammaSheaf.create(ctx, len(matrix), rows)


entries = st.dictionaries(st.sampled_from(MONOMIALS), st.integers(1, 2),
                          max_size=2)
matrices = st.integers(1, 2).flatmap(
    lambda s: st.lists(st.lists(entries, min_size=s, max_size=s),
                       min_size=s, max_size=s))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.booleans(), matrices, st.integers(0, 4))
# gamma = [[0, y], [x, 0]] over P/(xy): the composite vanishes at e = 2
@example(2, False, [[{}, {(0, 1): 1}], [{(1, 0): 1}, {}]], 4)
# a strictly triangular gamma over P: the composite vanishes at e = 2
@example(3, True, [[{}, {(1, 0): 2}], [{}, {}]], 3)
def test_infinite_search_matches_the_reference(p, ambient, matrix, e_max):
    n = free_root(p, ambient, matrix)
    assert gamma_is_nilpotent(n, e_max) == reference_search(n, e_max)


def test_bound_above_the_chain_budget(tmp_path, capsys):
    # the unit root of N = R over GF(2)[x,y] and over GF(2)[x,y]/(xy) walks
    # all 5 levels of its bound under a chain budget of 2
    for ideal in ([], ["x*y"]):
        data = {"field": {"p": 2}, "ring": {"vars": ["x", "y"]},
                "ideal": ideal,
                "objects": {"N": {"gamma": {"rank": 1, "matrix": [["1"]]}}},
                "commands": [{"op": "nilpotent", "target": "N", "bound": 5}]}
        path = tmp_path / "session.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "reports.jsonl"
        assert main(["run", str(path), "--out", str(out),
                     "--chain-budget", "2"]) == 0
        capsys.readouterr()
        [rec] = [json.loads(line) for line in out.read_text().splitlines()]
        assert rec["result"] == {"verdict": "not_nilpotent_up_to", "bound": 5}
