"""Each output check accepts the program's real output and rejects it once
perturbed.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import copy
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def outputs(workload):
    """(name, output, check) for one round of the workload."""
    return [(name, call(), check) for name, call, check
            in workload.operations()]


def verdict(check, out):
    """(failed, wrong) of a check on the first round's output."""
    _, failed, wrong = check(out, True)
    return failed, wrong


# ---------------------------------------------------------------------------
# unit-roots

@pytest.fixture(scope="module")
def unit_round():
    return {name: (out, check)
            for name, out, check in outputs(workloads.UnitRoots(1))}


def test_unit_roots_accepts_program_output(unit_round):
    for name, (records, check) in unit_round.items():
        assert verdict(check, records) == (0, 0), name


@pytest.mark.parametrize("session,index,path,value", [
    ("quotient-gf2", 0, ["dim"], 31),              # gen-dim of a unit root
    ("quotient-gf2", 1, ["verdict"], "nilpotent"),  # gamma verdict, unit
    ("quotient-gf2", 2, ["module", "rank"], 3),     # twisted module
    ("quotient-gf2", 3, ["verdict"], "nilpotent"),  # Cartier verdict, unit
    ("quotient-gf3", 4, ["dim"], 1),                # gen-dim, nilpotent root
    ("quotient-gf3", 5, ["verdict"], "not_nilpotent"),
    ("quotient-gf3", 7, ["verdict"], "not_nilpotent"),
    ("ambient-gf3", 0, ["equal"], False),           # check-2-14
    ("ambient-gf2", 2, ["det"], "0"),               # transition
])
def test_unit_roots_rejects_perturbed_value(unit_round, session, index, path,
                                            value):
    records, check = unit_round[session]
    bad = copy.deepcopy(records)
    target = bad[index]["result"]
    for key in path[:-1]:
        target = target[key]
    assert target[path[-1]] != value
    target[path[-1]] = value
    assert verdict(check, bad) == (1, 1)


def test_unit_roots_rejects_perturbed_pullback(unit_round):
    records, check = unit_round["ambient-gf3"]
    bad = copy.deepcopy(records)
    matrix = bad[1]["result"]["gamma"]["matrix"]
    matrix[0][0] = "x^9" if matrix[0][0] == "0" else "0"
    assert verdict(check, bad) == (1, 1)


def test_error_record_fails_but_is_not_wrong(unit_round):
    records, check = unit_round["ambient-gf2"]
    bad = copy.deepcopy(records)
    bad[0] = {"index": 0, "op": "check-2-14", "status": "error",
              "error": "boom"}
    assert verdict(check, bad) == (1, 0)


def test_later_round_must_repeat_the_first(unit_round):
    records, check = unit_round["ambient-gf2"]
    assert check(records, True) == (3, 0, 0)
    bad = copy.deepcopy(records)
    bad[2]["result"]["matrix"][0][0] = "7"  # unchecked field, still a change
    assert check(bad, False) == (3, 3, 3)
    assert check(records, False) == (3, 0, 0)


# ---------------------------------------------------------------------------
# ideal-groebner

@pytest.fixture(scope="module")
def katsura3():
    [(name, records, check)] = outputs(workloads.IdealGroebner(1, sizes=(3,)))
    return records, check


def test_groebner_accepts_program_output(katsura3):
    records, check = katsura3
    assert verdict(check, records) == (0, 0)


def test_groebner_rejects_dropped_element(katsura3):
    records, check = katsura3
    bad = copy.deepcopy(records)
    bad[0]["result"]["basis"].pop()
    assert verdict(check, bad) == (1, 1)


def test_groebner_rejects_changed_coefficient(katsura3):
    records, check = katsura3
    bad = copy.deepcopy(records)
    basis = bad[0]["result"]["basis"]
    # add 1 to the constant term of the last element (last term printed)
    last = basis[-1].split(" + ")
    const = last[-1]
    last[-1] = str((int(const) + 1) % workloads.KATSURA_P) \
        if const.isdigit() else const + " + 1"
    basis[-1] = " + ".join(last)
    assert verdict(check, bad) == (1, 1)


def test_groebner_rejects_wrong_staircase():
    names = ["x", "y"]
    p = 7
    inputs = [{(2, 0): 1}, {(0, 2): 1}]
    assert checks.check_groebner(["x^2", "y^2"], inputs, names, p, 4)
    assert not checks.check_groebner(["x^2", "y^2"], inputs, names, p, 8)
    # a basis of a larger ideal: right staircase shape fails on size
    assert not checks.check_groebner(["x", "y^2"], inputs, names, p, 4)


def test_groebner_rejects_basis_missing_an_s_polynomial():
    names = ["x", "y"]
    p = 7
    f = [{(2, 0): 1}, {(0, 2): 1}, {(1, 1): 1, (1, 0): 1}]
    text = [checks.format_poly(g, names) for g in f]
    # the leads x^2, y^2, x*y leave the staircase {1, x, y} of the right
    # size, but S(y^2, x*y + x) = -x*y reduces to x, not to 0
    assert checks.staircase_size([checks.leading(g) for g in f]) == 3
    assert checks.reduce_poly(checks.s_poly(f[1], f[2], p), f, p)
    assert not checks.check_groebner(text, f, names, p, 3)


# ---------------------------------------------------------------------------
# rational-points

@pytest.fixture(scope="module")
def points():
    [(name, records, check)] = outputs(
        workloads.RationalPoints(1, cases=((2, 2, 2),)))
    return records, check


def test_solutions_accept_program_output(points):
    records, check = points
    assert verdict(check, records) == (0, 0)


def _perturb(records, index, edit):
    bad = copy.deepcopy(records)
    edit(bad[index]["result"]["solutions"])
    return bad


@pytest.mark.parametrize("index,edit", [
    (0, lambda rows: rows.pop()),                              # q^2 points
    (0, lambda rows: rows.__setitem__(1, rows[0])),            # distinct
    (1, lambda rows: rows[3].update(dim=1, basis=rows[3]["basis"][:1])),
    (0, lambda rows: rows[0].update(dim=3)),                   # > rank
    (0, lambda rows: rows[0].update(dim=rows[0]["dim"] + 1)),  # basis size
])
def test_solutions_reject_perturbed_rows(points, index, edit):
    records, check = points
    assert verdict(check, _perturb(records, index, edit)) == (1, 1)


def test_solutions_reject_wrong_basis_vector(points):
    records, check = points
    bad = copy.deepcopy(records)
    rows = bad[1]["result"]["solutions"]  # identity root: basis everywhere
    for row in rows:
        row["basis"][0][0] = [1, 1]  # 1 + t in GF(4): (1 + t)^2 = t
    assert verdict(check, bad) == (1, 1)


def test_solutions_reject_dependent_basis(points):
    records, check = points
    bad = copy.deepcopy(records)
    row = bad[1]["result"]["solutions"][5]
    row["basis"][1] = row["basis"][0]  # each vector solves; not a basis
    assert verdict(check, bad) == (1, 1)


def test_solution_vector_equation():
    field = checks.GF(2, checks.first_irreducible(2, 2))
    assert checks.first_irreducible(2, 2) == (1, 1, 1)
    one, zero = (1, 0), (0, 0)
    identity = [[{(0, 0): 1}, {}], [{}, {(0, 0): 1}]]
    # w^2 = w holds on GF(2) and fails on the generator t of GF(4)
    assert checks.check_solution_vector(field, identity, (zero, zero),
                                        [one, zero])
    assert not checks.check_solution_vector(field, identity, (zero, zero),
                                            [(0, 1), zero])


# ---------------------------------------------------------------------------
# pushforward

@pytest.fixture(scope="module")
def pushforward():
    w = workloads.Pushforward(1, grids=((3, (), 2, 2),
                                        (3, workloads.GF9, 2, 3)))
    return w, outputs(w)


def test_pushforward_accepts_program_output(pushforward):
    _, ops = pushforward
    for name, out, check in ops:
        assert verdict(check, out) == (0, 0), name


def _decomposition_verdict(pushforward, edit, grid=0):
    """The decomposition check of one grid after editing its parts."""
    _, ops = pushforward
    name, dec, check = ops[2 * grid]
    parts = {a: dict(g.terms) for a, g in dec.parts.items()}
    edit(parts)
    return verdict(check, SimpleNamespace(
        parts={a: SimpleNamespace(terms=t) for a, t in parts.items()}))


def test_decomposition_rejects_missing_term(pushforward):
    def edit(parts):
        part = parts[(0, 0)]
        part.pop(next(iter(part)))
    assert _decomposition_verdict(pushforward, edit) == (1, 1)


def test_decomposition_rejects_moved_term(pushforward):
    def edit(parts):
        b, c = parts[(0, 0)].popitem()
        parts[(1, 0)][(b[0] + 100, b[1])] = c
    assert _decomposition_verdict(pushforward, edit) == (1, 1)


def test_decomposition_rejects_missing_part(pushforward):
    def edit(parts):
        moved = parts.pop((0, 1))
        parts[(0, 0)].update({(b[0] + 100, b[1]): c
                              for b, c in moved.items()})
    assert _decomposition_verdict(pushforward, edit) == (1, 1)


def test_decomposition_rejects_unrooted_coefficient(pushforward):
    # over GF(9) the part holds c^(1/3); putting c itself there is wrong
    # wherever c is not in GF(3)
    w, ops = pushforward
    f = w.inputs[1][0]

    def edit(parts):
        for a, part in parts.items():
            for b in part:
                e = tuple(3 * x + r for x, r in zip(b, a))
                part[b] = f.terms[e]
    assert _decomposition_verdict(pushforward, edit, grid=1) == (1, 1)


def test_volume_rejects_perturbed_output(pushforward):
    _, ops = pushforward
    name, dec, check_dec = ops[0]
    _, vol, check_vol = ops[1]
    assert verdict(check_dec, dec) == (0, 0)
    fewer = SimpleNamespace(terms=dict(list(vol.terms.items())[1:]))
    assert verdict(check_vol, fewer) == (1, 1)
    assert verdict(check_dec, dec) == (0, 0)
    terms = dict(vol.terms)
    m = next(iter(terms))
    terms[m] = terms[m] + terms[m]  # 2c != c over GF(3)
    assert verdict(check_vol, SimpleNamespace(terms=terms)) == (1, 1)


def test_decomposition_sample_check():
    field = checks.GF(5, (0, 1))
    source = {(0,): (1,), (1,): (2,), (5,): (3,)}
    parts = {(0,): {(0,): (1,), (1,): (3,)}, (1,): {(0,): (2,)}}
    assert checks.check_decomposition(source, parts, field)
    assert checks.check_decomposition(source, parts, field,
                                      sample=[((0,), (1,))])
    parts[(0,)][(1,)] = (4,)
    assert not checks.check_decomposition(source, parts, field,
                                          sample=[((0,), (1,))])
