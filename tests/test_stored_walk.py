"""A gamma-sheaf keeps its walk over the levels F^e*N: validate, gen-dim and
nilpotent on one root share it, so only the first command that needs a
level builds it.  The stored walk answers as a fresh one does: under the
limits in force (a spent S-pair budget gives the same error on every read,
never a shorter chain), and afresh under other limits."""
import sys

import pytest
from hypothesis import given, settings

from frobkit import polyring
from frobkit.field import FieldSpec
from frobkit.gamma import (GammaSheaf, gamma_is_nilpotent,
                           gen_stable_dimension, twisted_relations)
from frobkit.polyring import (BudgetExceededError, FreeVector, Limits,
                              Polynomial, QuotientContext, RingContext,
                              use_limits)
from frobkit.session import Session, run_session
from frobkit.verify import frobenius_twist_vector
from test_kernel_chain import random_root, roots

FAT_POINT = {"field": {"p": 2}, "ring": {"vars": ["x", "y"]},
             "ideal": ["x^3", "y^3"]}
# N = R^2, and N = R/(x), over GF(2)[x,y]/(x^3, y^3)
ROOTS = {"F": {"gamma": {"rank": 2, "matrix": [["1 + x", "y"],
                                               ["x*y", "1"]]}},
         "Q": {"gamma": {"rank": 1, "relations": ["[x]"],
                         "matrix": [["x + x*y"]]}}}
# N = R/(x + y) over GF(2)[x,y]/(x^6, y^6): the presentation of F^2*N,
# (x^4 + y^4, x^6, y^6), needs more than one S-pair, and everything the
# session builds before it needs at most one
SPENT = {"field": {"p": 2}, "ring": {"vars": ["x", "y"]},
         "ideal": ["x^6", "y^6"],
         "objects": {"N": {"gamma": {"rank": 1, "relations": ["[x + y]"],
                                     "matrix": [["x + y"]]}}}}
SPENT_ERROR = ("S-pair budget 1 exceeded after 4 basis elements, 2 pairs "
               "pending, 3 pairs pruned")


@pytest.fixture
def gb_calls(monkeypatch):
    """Counts module_buchberger calls, wherever frobkit calls it from."""
    calls = []
    original = polyring.module_buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "frobkit" or name.startswith("frobkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def alone(data, cmd, limits=None):
    """The record of cmd in a session that holds only that command."""
    [rec] = run_session(dict(data, commands=[cmd]), limits)
    del rec["index"]
    return rec


def test_one_walk_per_root(gb_calls):
    data = dict(FAT_POINT, objects=ROOTS)
    commands = [{"op": op, "target": name} for name in ROOTS
                for op in ("gen-dim", "validate", "nilpotent")]
    with use_limits(Limits()):
        session = Session(data)
        added = []
        for cmd in commands:
            before = len(gb_calls)
            session.run_command(cmd)
            added.append(len(gb_calls) - before)
    # gen-dim builds the walk; validate and nilpotent read it
    assert added[0] > 0 and added[3] > 0
    assert added[1:3] == added[4:6] == [0, 0]
    records = run_session(dict(data, commands=commands))
    assert [r["status"] for r in records] == ["ok"] * 6
    for rec, cmd in zip(records, commands):
        del rec["index"]
        assert rec == alone(data, cmd)


def test_spent_budget_gives_the_same_error_on_every_read():
    # a level is stored only once complete: a walk that could not build
    # level 2 meets the same error again, and never ends at level 1
    commands = [{"op": "gen-dim", "target": "N"},
                {"op": "nilpotent", "target": "N"}]
    limits = Limits(spair=1)
    records = run_session(dict(SPENT, commands=commands), limits)
    assert [r.get("error") for r in records] == [SPENT_ERROR] * 2
    for rec, cmd in zip(records, commands):
        del rec["index"]
        assert rec == alone(SPENT, cmd, limits)
    gen_dim, nilpotent = run_session(dict(SPENT, commands=commands))
    assert gen_dim["result"] == {"dim": 0}
    assert nilpotent["result"]["verdict"] == "nilpotent"
    # it is the presentation of F^2*N that spends the budget
    with use_limits(limits):
        n = Session(dict(SPENT, commands=[])).objects["N"]
        twisted_relations(n, 1)
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match=SPENT_ERROR):
                twisted_relations(n, 2)


def outcome(read, n):
    try:
        return read(n)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("read", [
    gen_stable_dimension, gamma_is_nilpotent,
    lambda n: twisted_relations(n, 2)])
def test_other_limits_read_a_fresh_walk(read):
    ring = RingContext(FieldSpec(2), ("x", "y"))
    x, y = (Polynomial.variable(ring, v) for v in ("x", "y"))
    ctx = QuotientContext.from_generators(ring, [x ** 6, y ** 6])

    def root():
        return GammaSheaf.create(ctx, 1, [[x + y]],
                                 [FreeVector(ring, (x + y,))])

    n = root()
    first = outcome(read, n)
    with use_limits(Limits(spair=1)):
        assert outcome(read, n) == outcome(read, root()) == SPENT_ERROR
    assert outcome(read, n) == first == outcome(read, root())


def free_version(n, ambient, k):
    """The root with n's matrix on N = R^s: over P with no relations, over
    P/(x^k) with the relations x_w^k e_i, which all lie in I."""
    if ambient:
        return GammaSheaf.create(n.ctx, n.rank, n.matrix)
    xs = [Polynomial.variable(n.ring, v) for v in n.ring.vars]
    rels = [FreeVector.unit(n.ring, n.rank, i, x ** k)
            for i in range(n.rank) for x in xs]
    return GammaSheaf.create(n.ctx, n.rank, n.matrix, rels)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(roots)
def test_free_levels_present_r_to_the_s(case):
    # F^e*R^s = R^s: every level of a free N is presented by I e_j, which
    # are N's own relations
    seed, (p, names, k, ambient), boxes = case
    n = free_version(random_root(seed, p, names, k, len(boxes), ambient,
                                 boxes), ambient, k)
    for e in range(4):
        assert twisted_relations(n, e) == n.relations
        twisted = [frobenius_twist_vector(g, e)
                   for g in n.relations.generators]
        assert n.ctx.module_relations(n.rank, twisted) == n.relations
