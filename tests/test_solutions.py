import random

import pytest

from frobkit.field import FieldSpec
from frobkit.gamma import GammaSheaf, gamma_is_nilpotent
from frobkit.polyring import (Limits, Polynomial, QuotientContext,
                              RingContext, use_limits)
from frobkit.solutions import (FiberDegenerationError, GuardExceededError,
                               artin_schreier_kernel, enumerate_points,
                               point_field, smallest_irreducible,
                               solutions_at_point)
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
