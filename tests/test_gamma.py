import random

import pytest

from frobkit.cartier import (InfiniteDimensionalError, is_nilpotent,
                             kappa_apply, volume_cartier_module)
from frobkit.field import FieldSpec
from frobkit.gamma import (GammaSheaf, gamma_is_nilpotent, gamma_iterate,
                           gamma_structure_violations, gen_stable_dimension,
                           twist_to_cartier, twist_to_gamma)
from frobkit.koszul import ClosedImmersion
from frobkit.polyring import (FreeVector, Polynomial, QuotientContext,
                              RingContext)
from frobkit.verify import (dual_basis_twist, frobenius_twist_root,
                            random_gamma)


def ambient(p, *names):
    return QuotientContext.trivial(RingContext(FieldSpec(p), names))


def quotient(p, power):
    ring = RingContext(FieldSpec(p), ("x",))
    x = Polynomial.variable(ring, "x")
    return QuotientContext.from_generators(ring, [x ** power]), x


def test_gamma_iterate_identity_and_power():
    ctx = ambient(3, "x")
    one = Polynomial.one(ctx.ring)
    n = GammaSheaf.create(ctx, 1, [[one]])
    assert gamma_iterate(n, 4)[0][0] == one
    x = Polynomial.variable(ctx.ring, "x")
    nx = GammaSheaf.create(ctx, 1, [[x]])
    # x^(p^(e-1)) ... x^p x = x^((p^e - 1)/(p - 1))
    assert gamma_iterate(nx, 3)[0][0] == x ** 13


def test_gamma_iterate_reduces_mod_ideal():
    ctx, x = quotient(2, 2)
    n = GammaSheaf.create(ctx, 1, [[x]])
    assert gamma_iterate(n, 2)[0][0].is_zero()  # x^3 = 0 mod x^2


def test_gamma_nilpotence_verdicts():
    ctx, x = quotient(2, 2)
    zero = GammaSheaf.create(ctx, 1, [[Polynomial.zero(ctx.ring)]])
    v = gamma_is_nilpotent(zero)
    assert v.is_nilpotent and v.index == 1
    nx = GammaSheaf.create(ctx, 1, [[x]])
    v = gamma_is_nilpotent(nx)
    assert v.is_nilpotent and v.index == 2
    one = GammaSheaf.create(ctx, 1, [[Polynomial.one(ctx.ring)]])
    assert gamma_is_nilpotent(one).status == "not_nilpotent"


def test_gamma_nilpotence_bounded_on_infinite_context():
    ctx = ambient(2, "x")
    one = GammaSheaf.create(ctx, 1, [[Polynomial.one(ctx.ring)]])
    v = gamma_is_nilpotent(one, e_max=3)
    assert v.status == "not_nilpotent_up_to" and v.bound == 3


def test_validate_gamma_structure():
    ctx, x = quotient(2, 2)
    any_matrix = GammaSheaf.create(ctx, 1, [[x + Polynomial.one(ctx.ring)]])
    # I e_j is part of the twisted relations, so any matrix is consistent here
    assert not gamma_structure_violations(any_matrix)
    # a non-ideal relation constrains the matrix
    ring = ambient(2, "x").ring
    x = Polynomial.variable(ring, "x")
    amb = QuotientContext.trivial(ring)
    rel = FreeVector(ring, (x, -Polynomial.one(ring)))
    ident = [[Polynomial.one(ring), Polynomial.zero(ring)],
             [Polynomial.zero(ring), Polynomial.one(ring)]]
    n = GammaSheaf.create(amb, 2, ident, [rel])
    # gamma(e_0) = e_0, gamma(e_1) = e_1, but x e_0 = e_1 forces
    # x e_0 tensor 1 = e_1 tensor 1, i.e. A rho = (x, -1) not in (x^2, -1) rels
    assert gamma_structure_violations(n) == [0]


def test_twist_anchor_both_ways():
    for p in (2, 3):
        ring = RingContext(FieldSpec(p), ("x", "y"))
        vol = volume_cartier_module(ring)
        n = twist_to_gamma(vol)
        assert n.matrix[0][0] == Polynomial.one(ring)
        m = twist_to_cartier(n)
        assert m.kappa_table == vol.kappa_table


def test_twist_known_value():
    # p=2, n=1, A=(x): kappa(e) = cartier_volume(x) e = e
    ctx = ambient(2, "x")
    x = Polynomial.variable(ctx.ring, "x")
    n = GammaSheaf.create(ctx, 1, [[x]])
    m = twist_to_cartier(n)
    e = FreeVector.unit(ctx.ring, 1, 0)
    assert kappa_apply(m, e) == e


@pytest.mark.parametrize("p", [2, 3])
def test_twist_round_trip_random(p):
    rng = random.Random(p * 31)
    ctx = ambient(p, "x", "y")
    for _ in range(10):
        rank = rng.choice((1, 2))
        n = random_gamma(rng, ctx, rank, max_deg=3)
        m = twist_to_cartier(n)
        n2 = twist_to_gamma(m)
        assert n2.matrix == n.matrix
        assert twist_to_cartier(n2).kappa_table == m.kappa_table


def test_twist_to_gamma_needs_ambient():
    ctx, x = quotient(2, 2)
    from frobkit.cartier import CartierModule
    m = CartierModule.create(ctx, 1)
    with pytest.raises(ValueError):
        twist_to_gamma(m)


def test_twist_methods_agree():
    rng = random.Random(55)
    for p in (2, 3):
        ctx, x = quotient(p, 2)
        im = ClosedImmersion.create(ctx.ring, [x ** 2])
        for _ in range(6):
            n = random_gamma(rng, ctx, 2, max_deg=1)
            a = twist_to_cartier(n, im)
            b = dual_basis_twist(n, [x ** 2])
            assert a.kappa_table == b.kappa_table


def test_twist_sequence_checks():
    ctx, x = quotient(2, 2)
    n = GammaSheaf.create(ctx, 1, [[x]])
    with pytest.raises(ValueError):
        twist_to_cartier(n)  # missing sequence
    with pytest.raises(ValueError):
        # generates (x), not (x^2)
        twist_to_cartier(n, ClosedImmersion.create(ctx.ring, [x]))


def test_nilpotence_matches_crystal_vanishing():
    rng = random.Random(6)
    for p in (2, 3):
        ctx, x = quotient(p, 2)
        im = ClosedImmersion.create(ctx.ring, [x ** 2])
        for _ in range(6):
            n = random_gamma(rng, ctx, 1, max_deg=1)
            g = gamma_is_nilpotent(n)
            c = is_nilpotent(twist_to_cartier(n, im))
            assert g.is_nilpotent == c.is_nilpotent


def test_gen_stable_dimension_values():
    ctx, x = quotient(2, 2)
    nx = GammaSheaf.create(ctx, 1, [[x]])
    assert gen_stable_dimension(nx) == 0
    ctx1, _ = quotient(2, 1)
    for s in (1, 2):
        ident = [[Polynomial.one(ctx1.ring) if i == j
                  else Polynomial.zero(ctx1.ring) for j in range(s)]
                 for i in range(s)]
        n = GammaSheaf.create(ctx1, s, ident)
        assert gen_stable_dimension(n) == s
    amb = ambient(2, "x")
    with pytest.raises(InfiniteDimensionalError):
        gen_stable_dimension(GammaSheaf.create(amb, 1,
                                               [[Polynomial.one(amb.ring)]]))


def test_gen_dimension_zero_iff_nilpotent():
    rng = random.Random(8)
    for p in (2, 3):
        ctx, x = quotient(p, 2)
        for _ in range(8):
            n = random_gamma(rng, ctx, rng.choice((1, 2)), max_deg=1)
            assert (gen_stable_dimension(n) == 0) == \
                gamma_is_nilpotent(n).is_nilpotent


def test_frobenius_twist_root():
    ctx = ambient(3, "x")
    x = Polynomial.variable(ctx.ring, "x")
    n = GammaSheaf.create(ctx, 1, [[x]])
    t = frobenius_twist_root(n)
    assert t.matrix[0][0] == x ** 3
    one = GammaSheaf.create(ctx, 1, [[Polynomial.one(ctx.ring)]])
    assert frobenius_twist_root(one).matrix == one.matrix


def test_twist_root_preserves_gen_dimension():
    rng = random.Random(14)
    for p in (2, 3):
        ctx, x = quotient(p, 2)
        for _ in range(6):
            n = random_gamma(rng, ctx, rng.choice((1, 2)), max_deg=1)
            assert gen_stable_dimension(n) == \
                gen_stable_dimension(frobenius_twist_root(n))
