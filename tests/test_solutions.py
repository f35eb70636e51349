import json
import random

import pytest

from frobkit import linalg, solutions
from frobkit.field import FieldSpec
from frobkit.gamma import GammaSheaf, gamma_is_nilpotent
from frobkit.linalg import prime_field_kernel
from frobkit.polyring import (GuardExceededError, Limits, Polynomial,
                              QuotientContext, RingContext, use_limits)
from frobkit.solutions import (FiberDegenerationError, RationalPoint,
                               _check_fiber, artin_schreier_kernel,
                               enumerate_points, point_field,
                               smallest_irreducible, solutions_at_point)
from frobkit.session import run_session
from frobkit.verify import brute_force_solutions, random_gamma


def ambient(p, *names):
    return QuotientContext.trivial(RingContext(FieldSpec(p), names))


def const_root(ctx, value: int, s: int = 1) -> GammaSheaf:
    mat = [[Polynomial.constant(ctx.ring, value) if i == j
            else Polynomial.zero(ctx.ring) for j in range(s)]
           for i in range(s)]
    return GammaSheaf.create(ctx, s, mat)


def test_smallest_irreducible_is_deterministic_and_monic():
    for p, m in ((2, 2), (2, 3), (3, 2), (5, 2)):
        mod = smallest_irreducible(p, m)
        assert len(mod) == m + 1 and mod[-1] == 1
        assert mod == smallest_irreducible(p, m)
        FieldSpec(p, m, mod)  # accepted as irreducible


def test_point_field_sizes():
    assert point_field(2, 1).size == 2
    assert point_field(2, 3).size == 8
    assert point_field(3, 2).size == 9


def test_enumerate_points():
    ring = RingContext(FieldSpec(2), ("x",))
    x = Polynomial.variable(ring, "x")
    one = Polynomial.one(ring)
    pts = enumerate_points(QuotientContext.from_generators(ring, [x]), 1)
    assert len(pts) == 1 and not pts[0].coords[0]
    pts = enumerate_points(QuotientContext.from_generators(ring, [x * x + x]), 1)
    assert len(pts) == 2
    assert enumerate_points(QuotientContext.from_generators(ring, [one]), 1) == []
    assert len(enumerate_points(QuotientContext.trivial(ring), 3)) == 8


def test_point_field_is_built_once():
    ring = RingContext(FieldSpec(2), ("x",))
    first = enumerate_points(QuotientContext.trivial(ring), 3)
    second = enumerate_points(QuotientContext.trivial(ring), 3)
    assert first[0].spec is second[0].spec


def test_enumerate_guard():
    ring = RingContext(FieldSpec(5), ("x", "y", "z"))
    with use_limits(Limits(guard=10 ** 4)), \
            pytest.raises(GuardExceededError):
        enumerate_points(QuotientContext.trivial(ring), 4)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 3, 9, 27, 81, 5, 25, 49])
def test_artin_schreier_kernel(q):
    assert artin_schreier_kernel(q) == 1


def test_artin_schreier_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        artin_schreier_kernel(6)
    with pytest.raises(ValueError):
        artin_schreier_kernel(12)


@pytest.mark.parametrize("q", [1, 0, -4])
def test_artin_schreier_rejects_sizes_below_two(q):
    with pytest.raises(ValueError, match=f"{q} is not a prime power"):
        artin_schreier_kernel(q)


def test_constant_sheaf_dimension_one_everywhere():
    for p in (2, 3):
        ctx = ambient(p, "x")
        root = const_root(ctx, 1)
        for m in (1, 2, 3):
            for pt in enumerate_points(ctx, m):
                assert solutions_at_point(root, pt).dimension == 1


def test_zero_root_has_no_solutions():
    ctx = ambient(2, "x")
    root = const_root(ctx, 0)
    for pt in enumerate_points(ctx, 2):
        space = solutions_at_point(root, pt)
        assert space.dimension == 0 and space.basis == ()


def test_generator_coefficient_rank_one():
    # w = c w^2 over GF(4) with c a generator: solutions {0, 1/c}, dim 1
    ctx = ambient(2, "x")
    gf4 = point_field(2, 2)
    c = gf4.generator()
    from frobkit.solutions import RationalPoint
    # the base field is GF(2), so realize the coefficient c through the
    # point: A = (x) evaluated at x = c
    root = GammaSheaf.create(ctx, 1, [[Polynomial.variable(ctx.ring, "x")]])
    pt_c = RationalPoint(2, gf4, (c,))
    space = solutions_at_point(root, pt_c)
    assert space.dimension == 1
    sols = {w[0] for w in brute_force_solutions(root, pt_c)}
    assert sols == {gf4.zero(), c.inverse()}


def test_solutions_satisfy_equation_and_match_brute_force():
    rng = random.Random(99)
    for p, m in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
        ctx = ambient(p, "x")
        pts = enumerate_points(ctx, m)
        for _ in range(6):
            s = rng.choice((1, 2))
            root = random_gamma(rng, ctx, s, max_deg=1)
            pt = pts[rng.randrange(len(pts))]
            space = solutions_at_point(root, pt)
            assert space.dimension <= s
            brute = brute_force_solutions(root, pt)
            assert len(brute) == p ** space.dimension
            for w in space.basis:
                assert w in brute


def test_fiber_degeneration_detected():
    ring = RingContext(FieldSpec(2), ("x",))
    x = Polynomial.variable(ring, "x")
    ctx = QuotientContext.from_generators(ring, [x])
    root = const_root(ctx, 1)
    from frobkit.solutions import RationalPoint
    bad = RationalPoint(1, FieldSpec(2), (FieldSpec(2).one(),))
    with pytest.raises(FiberDegenerationError):
        solutions_at_point(root, bad)


def test_nilpotent_root_has_zero_solutions():
    ring = RingContext(FieldSpec(2), ("x",))
    x = Polynomial.variable(ring, "x")
    ctx = QuotientContext.from_generators(ring, [x ** 2])
    root = GammaSheaf.create(ctx, 1, [[x]])
    assert gamma_is_nilpotent(root).is_nilpotent
    for pt in enumerate_points(ctx, 1):
        assert solutions_at_point(root, pt).dimension == 0


def test_solution_profile():
    # the constant sheaf has a one-dimensional stalk at every point over
    # GF(2) and GF(4), the zero root none
    ctx = ambient(2, "x")
    one, zero = const_root(ctx, 1), const_root(ctx, 0)
    for m in (1, 2):
        pts = enumerate_points(ctx, m)
        assert len(pts) == 2 ** m
        for pt in pts:
            assert solutions_at_point(one, pt).dimension == 1
            assert solutions_at_point(zero, pt).dimension == 0


def test_extension_base_field_points():
    gf4 = FieldSpec(2, 2, (1, 1, 1))
    ring = RingContext(gf4, ("x",))
    ctx = QuotientContext.trivial(ring)
    pts = enumerate_points(ctx, 2)
    assert len(pts) == 4
    with pytest.raises(ValueError):
        enumerate_points(ctx, 3)
    root = const_root(ctx, 1)
    for pt in pts:
        assert solutions_at_point(root, pt).dimension == 1


def field_image_basis(root, pt):
    """The solution basis by the construction the integer assembly replaced:
    the image of g^t e_i is a vector of field elements, each entry formed by
    field subtraction, and prime_field_kernel restricts scalars."""
    spec = pt.spec
    s = root.rank
    a_at = _check_fiber(root, pt)
    zero = spec.zero()
    basis_p = [(b, b ** spec.p) for b in spec.power_basis()]
    images = [[(bt if i == j else zero) - a_at[i][j] * btp for j in range(s)]
              for i in range(s) for bt, btp in basis_p]
    return tuple(tuple(w) for w in prime_field_kernel(images, spec))


def assembly_cases():
    """(root, point) pairs of ranks 1-3 in two variables, drawn from one
    seeded generator: random points over GF(4), GF(8), GF(9), GF(25) and
    GF(2^61 - 1), the points of a quotient over GF(9), and the points of
    the ambient plane over the extension base field GF(4).  Each context
    also gets the identity root of rank 3, whose solutions have dimension
    3."""
    rng = random.Random(1729)
    cases = []
    for p, m in ((2, 2), (2, 3), (3, 2), (5, 2), (2 ** 61 - 1, 1)):
        ctx = ambient(p, "x", "y")
        spec = point_field(p, m)
        cases.append((const_root(ctx, 1, 3), RationalPoint(
            m, spec, (spec.generator() if m > 1 else spec.one(),) * 2)))
        for _ in range(12):
            root = random_gamma(rng, ctx, rng.randint(1, 3), max_deg=2)
            coords = tuple(spec.element([rng.randrange(p) for _ in range(m)])
                           for _ in range(2))
            cases.append((root, RationalPoint(m, spec, coords)))
    ring = RingContext(FieldSpec(3), ("x", "y"))
    x, y = Polynomial.variable(ring, "x"), Polynomial.variable(ring, "y")
    quotient = QuotientContext.from_generators(ring, [x ** 3 - x, y ** 2])
    gf4 = FieldSpec(2, 2, (1, 1, 1))
    extension = QuotientContext.trivial(RingContext(gf4, ("x", "y")))
    for ctx in (quotient, extension):
        pts = enumerate_points(ctx, 2)
        cases.append((const_root(ctx, 1, 3), pts[-1]))
        for _ in range(12):
            root = random_gamma(rng, ctx, rng.randint(1, 3), max_deg=2)
            cases.append((root, pts[rng.randrange(len(pts))]))
    return cases


def test_integer_assembly_matches_field_images():
    dims = set()
    for root, pt in assembly_cases():
        space = solutions_at_point(root, pt)
        assert space.basis == field_image_basis(root, pt)
        assert space.dimension == len(space.basis)
        dims.add(space.dimension)
        if pt.spec.size ** root.rank <= 729:
            brute = brute_force_solutions(root, pt)
            assert len(brute) == pt.spec.p ** space.dimension
    assert dims == {0, 1, 2, 3}


def _identity_session(point=None):
    objects = {"I": {"gamma": {"rank": 2, "matrix": [["1", "0"], ["0", "1"]]}}}
    command = {"op": "solutions", "target": "I", "m": 3}
    if point is not None:
        objects["P"] = {"point": {"m": 3, "coords": [point]}}
        command["point"] = "P"
    return {"field": {"p": 2}, "ring": {"vars": ["x"]}, "ideal": [],
            "objects": objects, "commands": [command]}


def test_each_distinct_fiber_is_solved_once_per_command(monkeypatch):
    """The identity root has one fiber at all 8 points of GF(2^3), so a
    solutions command solves one system; a second session solves it again,
    since nothing solved outlives its command."""
    calls = []

    def counted(*args):
        calls.append(args)
        return linalg.nullspace_mod_p(*args)
    monkeypatch.setattr(solutions, "nullspace_mod_p", counted)
    first = run_session(_identity_session())
    assert len(calls) == 1
    rows = first[0]["result"]["solutions"]
    assert len(rows) == 8 and {r["dim"] for r in rows} == {2}
    assert len({json.dumps(r["basis"]) for r in rows}) == 1
    assert run_session(_identity_session()) == first
    assert len(calls) == 2
    point = run_session(_identity_session(point=[0, 1, 0]))
    assert len(calls) == 3
    assert point[0]["result"]["solutions"][0]["basis"] == rows[0]["basis"]


def test_fiber_check_runs_at_every_point_with_a_solved_fiber():
    """The fiber of diag(1, x^4 + x) is diag(1, 0) at x = 0 and at x = a,
    a generator of GF(4), but the relation x^2 + x vanishes only at 0: the
    point a must still be refused, though its fiber was solved at 0."""
    from frobkit.session import run_session

    def session(m):
        return {"field": {"p": 2}, "ring": {"vars": ["x"]}, "ideal": [],
                "objects": {"G": {"gamma": {
                    "rank": 2, "relations": ["[0, x^2 + x]"],
                    "matrix": [["1", "0"], ["0", "x^4 + x"]]}}},
                "commands": [{"op": "validate", "target": "G"},
                             {"op": "solutions", "target": "G", "m": m}]}

    valid, refused = run_session(session(2))
    assert valid["status"] == "ok" and valid["result"]["valid"]
    assert refused["status"] == "error"
    assert refused["error"].endswith("a relation generator does not vanish "
                                     "at the point")
    _, solved = run_session(session(1))
    assert solved["status"] == "ok"
    assert [r["dim"] for r in solved["result"]["solutions"]] == [1, 1]
