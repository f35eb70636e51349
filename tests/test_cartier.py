import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit import linalg
from frobkit.cartier import (CartierModule, InfiniteDimensionalError,
                             SemilinearEndo, cartier_structure_violations,
                             hom_commuting, is_crystal_supported_on,
                             is_nilpotent, kappa_apply, kappa_lift,
                             nil_isomorphism_test, semilinear_image_chain,
                             stable_image, volume_cartier_module)
from frobkit.field import FieldSpec, frobenius_root
from frobkit.gamma import twist_to_cartier
from frobkit.koszul import ClosedImmersion
from frobkit.polyring import (FreeVector, Polynomial, QuotientContext,
                              RingContext, normal_form, submodule_equal)
from frobkit.verify import (random_gamma, random_polynomial,
                            semilinear_nilpotent, to_semilinear)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def ring(p, *names):
    return RingContext(FieldSpec(p), names)


def test_volume_module_basics():
    for p in (2, 3):
        r = ring(p, "x")
        vol = volume_cartier_module(r)
        assert not cartier_structure_violations(vol)
        x = Polynomial.variable(r, "x")
        e = FreeVector.unit(r, 1, 0)
        # kappa(x^(p-1) e) = e
        assert kappa_apply(vol, e.scale(x ** (p - 1))) == e
        assert kappa_apply(vol, e).is_zero()


def test_kappa_apply_known_iterates():
    r = ring(2, "x")
    vol = volume_cartier_module(r)
    x = Polynomial.variable(r, "x")
    e = FreeVector.unit(r, 1, 0)
    assert kappa_apply(vol, e.scale(x)) == e
    # x^3 -> x -> 1
    assert kappa_apply(vol, kappa_apply(vol, e.scale(x ** 3))) == e
    r3 = ring(3, "x")
    vol3 = volume_cartier_module(r3)
    x3 = Polynomial.variable(r3, "x")
    e3 = FreeVector.unit(r3, 1, 0)
    assert kappa_apply(vol3, e3.scale(x3 ** 5)) == e3.scale(x3)


def test_semilinearity_random():
    rng = random.Random(42)
    for p in (2, 3):
        r = ring(p, "x", "y")
        ctx = QuotientContext.trivial(r)
        for _ in range(15):
            n = random_gamma(rng, ctx, rng.choice((1, 2)), max_deg=2)
            m = twist_to_cartier(n)
            h = random_polynomial(rng, r, 2, 3, nonzero=True)
            v = FreeVector(r, (random_polynomial(rng, r, 3, 3)
                               for _ in range(m.rank)))
            assert kappa_apply(m, v.scale(h ** p)) == \
                kappa_apply(m, v).scale(h)


def test_validate_rejects_inconsistent_table():
    r = ring(2, "x")
    x = Polynomial.variable(r, "x")
    ctx = QuotientContext.from_generators(r, [x])
    e = FreeVector.unit(r, 1, 0)
    # kappa(e) = e over R = k is fine
    good = CartierModule.create(ctx, 1, table={(0, (0,)): e})
    assert not cartier_structure_violations(good)
    # but kappa(x e) = e is not: x e is a relation, its image must vanish
    bad = CartierModule.create(ctx, 1, table={(0, (1,)): e})
    assert cartier_structure_violations(bad) == [(0, (0,))]


def test_kappa_lift_respects_relations_when_valid():
    rng = random.Random(9)
    r = ring(2, "x")
    x = Polynomial.variable(r, "x")
    im = ClosedImmersion.create(r, [x ** 2])
    for _ in range(10):
        n = random_gamma(rng, im.target, 2, max_deg=1)
        m = twist_to_cartier(n, im)
        assert not cartier_structure_violations(m)
        for rho in m.relations.generators:
            assert m.nf(kappa_lift(m, rho)).is_zero()


def test_stable_image_chain_descends():
    rng = random.Random(13)
    r = ring(2, "x")
    x = Polynomial.variable(r, "x")
    im = ClosedImmersion.create(r, [x ** 3])
    for _ in range(8):
        n = random_gamma(rng, im.target, 1, max_deg=2)
        m = twist_to_cartier(n, im)
        res = stable_image(m)
        for upper, lower in zip(res.chain, res.chain[1:]):
            for g in lower.generators:
                assert normal_form(g, upper).is_zero()
        # one extra level stays put
        assert submodule_equal(res.chain[-1], res.stable)


def test_nilpotence_worked_instances():
    r = ring(2, "x")
    amb = QuotientContext.trivial(r)
    zero = CartierModule.create(amb, 1)
    v = is_nilpotent(zero)
    assert v.is_nilpotent and v.index == 1
    vol = volume_cartier_module(r)
    assert is_nilpotent(vol).status == "not_nilpotent"


def test_crystal_support():
    r = ring(2, "x", "y")
    x = Polynomial.variable(r, "x")
    ctx = QuotientContext.from_generators(r, [x])
    torsion = CartierModule.create(ctx, 1,
                                   table={(0, (0, 0)): FreeVector.unit(r, 1, 0)})
    assert is_crystal_supported_on(torsion, [x])
    vol = volume_cartier_module(r)
    assert not is_crystal_supported_on(vol, [x])
    amb = QuotientContext.trivial(r)
    zero = CartierModule.create(amb, 1)
    assert is_crystal_supported_on(zero, [x])


def test_to_semilinear_shapes():
    r = ring(2, "x")
    x = Polynomial.variable(r, "x")
    ctx = QuotientContext.from_generators(r, [x ** 2])
    zero = CartierModule.create(ctx, 1)
    t = to_semilinear(zero)
    assert t.dim == 2
    assert all(not c for row in t.matrix for c in row)
    amb = QuotientContext.trivial(r)
    with pytest.raises(InfiniteDimensionalError):
        to_semilinear(CartierModule.create(amb, 1))


def test_semilinear_nilpotent_cases():
    f2 = F2
    zero = SemilinearEndo(2, ((f2.zero(),) * 2,) * 2, f2)
    v = semilinear_nilpotent(zero)
    assert v.is_nilpotent and v.index == 1
    ident = SemilinearEndo(2, ((f2.one(), f2.zero()), (f2.zero(), f2.one())),
                           f2)
    assert semilinear_nilpotent(ident).status == "not_nilpotent"
    swap = SemilinearEndo(2, ((f2.zero(), f2.one()), (f2.one(), f2.zero())),
                          f2)
    assert semilinear_nilpotent(swap).status == "not_nilpotent"
    upper = SemilinearEndo(2, ((f2.zero(), f2.one()), (f2.zero(), f2.zero())),
                           f2)
    v = semilinear_nilpotent(upper)
    assert v.is_nilpotent and v.index == 2


def test_tier_agreement_random():
    rng = random.Random(77)
    for p in (2, 3):
        r = ring(p, "x")
        x = Polynomial.variable(r, "x")
        for k in (1, 2):
            im = ClosedImmersion.create(r, [x ** k])
            for _ in range(8):
                n = random_gamma(rng, im.target, rng.choice((1, 2)),
                                 max_deg=k - 1)
                m = twist_to_cartier(n, im)
                a = is_nilpotent(m)
                b = semilinear_nilpotent(to_semilinear(m))
                assert a.is_nilpotent == b.is_nilpotent


def test_semilinear_apply_on_every_shape():
    # d = 0: the empty vector is the whole space and its own image
    empty = SemilinearEndo(0, (), F2)
    assert empty.apply([]) == []
    assert semilinear_image_chain(empty) == [[]]
    # 2 x 2 over GF(4), where the p-th root moves elements: T(v) = U v^(1/2)
    f4 = FieldSpec(2, 2, (1, 1, 1))
    t = f4.element((0, 1))
    u = ((t, f4.one()), (f4.zero(), t * t))
    v = [t, t + f4.one()]
    column = linalg.mat_mul([list(r) for r in u],
                            [[frobenius_root(x)] for x in v])
    assert SemilinearEndo(2, u, f4).apply(v) == [c[0] for c in column]


def test_hom_commuting_dimensions():
    one = SemilinearEndo(1, ((F2.one(),),), F2)
    assert len(hom_commuting(one, one)) == 1
    ident = SemilinearEndo(2, ((F2.one(), F2.zero()),
                               (F2.zero(), F2.one())), F2)
    assert len(hom_commuting(ident, ident)) == 4
    gf4 = FieldSpec(2, 2, (1, 1, 1))
    unit = SemilinearEndo(1, ((gf4.one(),),), gf4)
    # c = c^(1/2) forces c in the prime field: dimension 1
    assert len(hom_commuting(unit, unit)) == 1


def test_hom_commuting_over_gf4_is_the_commuting_set():
    # seeded non-symmetric operators over GF(4): the F_2-span of the basis
    # must be exactly the set of phi with phi U_M = U_N phi^(1/2), found by
    # trying all 4^(dN*dM) matrices
    gf4 = FieldSpec(2, 2, (1, 1, 1))
    els = list(gf4.elements())
    rng = random.Random(11)

    def endo(d):
        while True:
            u = [[rng.choice(els) for _ in range(d)] for _ in range(d)]
            if d == 1 or u[0][1] != u[1][0]:
                return SemilinearEndo(d, tuple(map(tuple, u)), gf4)

    def commutes(phi, m, n):
        return (linalg.mat_mul(phi, m.rows())
                == linalg.mat_mul(n.rows(), linalg.mat_frobenius_root(phi)))

    for dm, dn in ((1, 2), (2, 1), (2, 2)):
        for _ in range(4):
            m, n = endo(dm), endo(dn)
            basis = hom_commuting(m, n)
            assert all(commutes([list(r) for r in phi], m, n)
                       for phi in basis)
            exhaustive = {
                entries for entries in product(els, repeat=dn * dm)
                if commutes([list(entries[r * dm:(r + 1) * dm])
                             for r in range(dn)], m, n)}
            span = {tuple(sum((phi[r][c] for phi, pick in zip(basis, picks)
                               if pick), gf4.zero())
                          for r in range(dn) for c in range(dm))
                    for picks in product((0, 1), repeat=len(basis))}
            assert 2 ** len(basis) == len(exhaustive)
            assert span == exhaustive


def test_nil_isomorphism():
    ident_map = ((F2.one(), F2.zero()), (F2.zero(), F2.one()))
    ident = SemilinearEndo(2, ident_map, F2)
    assert nil_isomorphism_test(ident_map, ident, ident)
    zero_map = ((F2.zero(), F2.zero()), (F2.zero(), F2.zero()))
    # zero map between non-nilpotent objects: kernel operator not nilpotent
    assert not nil_isomorphism_test(zero_map, ident, ident)
    # zero map between nilpotent objects is a nil-isomorphism
    upper = SemilinearEndo(2, ((F2.zero(), F2.one()),
                               (F2.zero(), F2.zero())), F2)
    assert nil_isomorphism_test(zero_map, upper, upper)
    # a zero-dimensional side: 0 -> nilpotent is a nil-isomorphism (its
    # cokernel is nilpotent), 0 -> identity is not, and the same backwards
    empty = SemilinearEndo(0, (), F2)
    nil1 = SemilinearEndo(1, ((F2.zero(),),), F2)
    one1 = SemilinearEndo(1, ((F2.one(),),), F2)
    assert nil_isomorphism_test([[]], empty, nil1)
    assert not nil_isomorphism_test([[]], empty, one1)
    assert nil_isomorphism_test([], nil1, empty)
    assert not nil_isomorphism_test([], one1, empty)
    assert nil_isomorphism_test([], empty, empty)
    # phi must be dN x dM
    for phi, m, n in (([], empty, nil1), ([[]], nil1, empty),
                      ([[F2.one()]], empty, empty),
                      ([[F2.one()]], ident, ident),
                      ([[F2.one(), F2.zero()], [F2.zero()]], ident, ident)):
        with pytest.raises(ValueError, match="map must be a"):
            nil_isomorphism_test(phi, m, n)


def test_nil_isomorphism_requires_commuting():
    ident = SemilinearEndo(2, ((F2.one(), F2.zero()),
                               (F2.zero(), F2.one())), F2)
    upper = SemilinearEndo(2, ((F2.zero(), F2.one()),
                               (F2.zero(), F2.zero())), F2)
    phi = ((F2.one(), F2.zero()), (F2.zero(), F2.one()))
    with pytest.raises(ValueError):
        nil_isomorphism_test(phi, ident, upper)


FIELDS = (F2, F3, FieldSpec(2, 2, (1, 1, 1)))


@st.composite
def commuting_triples(draw):
    """(phi, T_M, T_N) over GF(2), GF(3) or GF(4) in dimensions 0-3, with
    phi a random F_p-combination of the hom_commuting basis.  Entries lean
    to zero and N is often M itself, so that nilpotent operators and
    nonzero maps both occur."""
    spec = draw(st.sampled_from(FIELDS))
    els = list(spec.elements())
    entry = st.one_of(st.just(spec.zero()), st.sampled_from(els))

    def endo(d):
        rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                             min_size=d, max_size=d))
        return SemilinearEndo(d, tuple(map(tuple, rows)), spec)

    m = endo(draw(st.integers(0, 3)))
    n = m if draw(st.booleans()) else endo(draw(st.integers(0, 3)))
    basis = hom_commuting(m, n)
    picks = draw(st.lists(st.integers(0, spec.p - 1), min_size=len(basis),
                          max_size=len(basis)))
    phi = [[sum((spec.from_int(c) * b[r][s] for c, b in zip(picks, basis)),
                spec.zero()) for s in range(m.dim)] for r in range(n.dim)]
    return phi, m, n


def nil_isomorphism_by_definition(phi, m, n) -> bool:
    """Enumerate k^dM and k^dN: T_M^dM kills every v with phi v = 0, and
    T_N^dN maps every w into the image of phi."""
    spec = m.spec

    def power(t, v):
        for _ in range(t.dim):
            v = t.apply(v)
        return v

    def vectors(d):
        return (list(v) for v in product(list(spec.elements()), repeat=d))

    def apply_phi(v):
        return [sum((a * b for a, b in zip(row, v)), spec.zero())
                for row in phi]

    zero_n = [spec.zero()] * n.dim
    image = {tuple(apply_phi(u)) for u in vectors(m.dim)}
    kernel_nilpotent = all(not any(power(m, v)) for v in vectors(m.dim)
                           if apply_phi(v) == zero_n)
    cokernel_nilpotent = all(tuple(power(n, w)) in image
                             for w in vectors(n.dim))
    return kernel_nilpotent and cokernel_nilpotent


@settings(max_examples=300, deadline=None, derandomize=True)
@given(commuting_triples())
def test_nil_isomorphism_matches_the_definition(triple):
    phi, m, n = triple
    assert nil_isomorphism_test(phi, m, n) == \
        nil_isomorphism_by_definition(phi, m, n)
