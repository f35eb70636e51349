import random
from itertools import product

import pytest

from frobkit.field import FieldSpec, frobenius_root
from frobkit.frobenius import (cartier_volume, pth_root_decompose,
                               residue_exponents)
from frobkit.polyring import Polynomial, RingContext
from frobkit.verify import cartier_volume_by_decomposition, recompose

GF9 = FieldSpec(3, 2, (1, 0, 1))


def rand_poly(rng, ctx, max_deg=6, terms=5):
    acc = Polynomial.zero(ctx)
    for _ in range(rng.randint(0, terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ctx.nvars))
        c = rng.randrange(1, ctx.field.size)
        coeffs = []
        for _ in range(ctx.field.e):
            coeffs.append(c % ctx.field.p)
            c //= ctx.field.p
        acc = acc + Polynomial.monomial(ctx, m, ctx.field.element(coeffs))
    return acc


def test_decompose_forced_examples():
    ring = RingContext(FieldSpec(2), ("x", "y"))
    f = Polynomial.monomial(ring, (2, 0)) + Polynomial.monomial(ring, (1, 1))
    dec = pth_root_decompose(f)
    x = Polynomial.variable(ring, "x")
    assert dec.part((0, 0)) == x
    assert dec.part((1, 1)) == Polynomial.one(ring)
    assert dec.part((1, 0)).is_zero()


@pytest.mark.parametrize("spec,n", [(FieldSpec(2), 2), (FieldSpec(3), 1),
                                    (GF9, 2), (FieldSpec(5), 2)])
def test_recompose_round_trip(spec, n):
    ring = RingContext(spec, tuple(f"x{i}" for i in range(n)))
    rng = random.Random(7 * spec.size + n)
    for _ in range(25):
        f = rand_poly(rng, ring)
        dec = pth_root_decompose(f)
        assert recompose(dec) == f
        assert all(all(0 <= e < spec.p for e in a) for a in dec.parts)


def reference_decompose(f):
    """Per-term reference from the docstring of pth_root_decompose: c*x^E
    goes to slot a = E mod p as frobenius_root(c)*x^((E-a)/p)."""
    p = f.ctx.field.p
    parts = {}
    for m, c in f.terms.items():
        a = tuple(e % p for e in m)
        root = tuple((e - r) // p for e, r in zip(m, a))
        parts.setdefault(a, {})[root] = frobenius_root(c)
    return {a: Polynomial(f.ctx, d) for a, d in parts.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3), FieldSpec(5),
                                  GF9, FieldSpec(2 ** 61 - 1)],
                         ids=["GF2", "GF3", "GF5", "GF9", "GF(2^61-1)"])
def test_decompose_matches_per_term_reference(spec, n):
    # over GF(2^61 - 1) the exponents lie on both sides of p, and the
    # residue index of the loop is a big integer
    ring = RingContext(spec, tuple(f"x{i}" for i in range(n)))
    zero = Polynomial.zero(ring)
    assert pth_root_decompose(zero).parts == {}
    assert pth_root_decompose(zero).part((0,) * n).is_zero()
    rng = random.Random(13 * spec.size + n)
    for _ in range(20):
        f = rand_poly(rng, ring, max_deg=3 * spec.p, terms=12)
        parts, ref = pth_root_decompose(f).parts, reference_decompose(f)
        assert parts == ref
        # parts and terms come in the reference's order of first appearance
        assert list(parts) == list(ref)
        assert all(list(parts[a].terms) == list(g.terms)
                   for a, g in ref.items())


def test_decompose_shares_equal_quotients():
    # every exponent below 5^2 in three variables over GF(5): each of the
    # 5^3 quotients occurs in each of the 5^3 parts
    ring = RingContext(FieldSpec(5), ("x", "y", "z"))
    one = ring.field.one()
    f = Polynomial(ring, {m: one for m in product(range(25), repeat=3)})
    dec = pth_root_decompose(f)
    keys = [b for g in dec.parts.values() for b in g.terms]
    assert len(dec.parts) == 125 and len(keys) == 25 ** 3
    assert len({id(b) for b in keys}) == len(set(keys)) == 125
    assert recompose(dec) == f


def test_dual_basis_delta():
    ring = RingContext(FieldSpec(3), ("x", "y"))
    for a in residue_exponents(ring):
        for b in residue_exponents(ring):
            val = pth_root_decompose(Polynomial.monomial(ring, b)).part(a)
            if a == b:
                assert val == Polynomial.one(ring)
            else:
                assert val.is_zero()


def test_dual_basis_shifted():
    ring = RingContext(FieldSpec(2), ("x",))
    x3 = Polynomial.monomial(ring, (3,))
    assert pth_root_decompose(x3).part((1,)) == Polynomial.variable(ring, "x")


def test_cartier_volume_univariate_known_values():
    ring = RingContext(FieldSpec(3), ("x",))
    x = Polynomial.variable(ring, "x")
    assert cartier_volume(x ** 2) == Polynomial.one(ring)
    assert cartier_volume(x).is_zero()
    assert cartier_volume(x ** 5) == x
    assert cartier_volume(Polynomial.one(ring)).is_zero()


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_cartier_volume_two_routes(p, n):
    ring = RingContext(FieldSpec(p), tuple(f"x{i}" for i in range(n)))
    rng = random.Random(100 * p + n)
    for _ in range(30):
        f = rand_poly(rng, ring, max_deg=2 * p)
        assert cartier_volume(f) == cartier_volume_by_decomposition(f)



def reference_volume(f):
    """Per-term reference from the docstring of cartier_volume: c*x^E
    contributes frobenius_root(c)*x^((E+1)/p - 1) when p divides every
    E_i + 1."""
    p = f.ctx.field.p
    return {tuple((e + 1) // p - 1 for e in m): frobenius_root(c)
            for m, c in f.terms.items() if all((e + 1) % p == 0 for e in m)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(3), FieldSpec(5),
                                  GF9], ids=["GF2", "GF3", "GF5", "GF9"])
def test_cartier_volume_matches_per_term_reference(spec, n):
    ring = RingContext(spec, tuple(f"x{i}" for i in range(n)))
    assert cartier_volume(Polynomial.zero(ring)).terms == {}
    p = spec.p
    rng = random.Random(17 * spec.size + n)
    for _ in range(20):
        # random terms, most of which the operator drops, plus terms with
        # every exponent p - 1 mod p, which it keeps
        kept = rand_poly(rng, ring, max_deg=2, terms=6)
        f = rand_poly(rng, ring, max_deg=3 * p, terms=12) + Polynomial(
            ring, {tuple(p * e + p - 1 for e in m): c
                   for m, c in kept.terms.items()})
        assert (list(cartier_volume(f).terms.items())
                == list(reference_volume(f).items()))

@pytest.mark.parametrize("p", [2, 3, 5])
def test_cartier_volume_semilinear_and_surjective(p):
    ring = RingContext(FieldSpec(p), ("x", "y"))
    rng = random.Random(p)
    top = Polynomial.monomial(ring, (p - 1, p - 1))
    for _ in range(20):
        h = rand_poly(rng, ring, 3, 3)
        f = rand_poly(rng, ring, 4, 4)
        assert cartier_volume((h ** p) * f) == h * cartier_volume(f)
        assert cartier_volume(top * h ** p) == h
