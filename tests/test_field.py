import random
import time
from itertools import product

import pytest

from frobkit.field import (PRIME_BOUND, FieldError, FieldSpec,
                           _is_irreducible, _is_prime, _polydiv, frobenius,
                           frobenius_root)

GF4 = FieldSpec(2, 2, (1, 1, 1))          # x^2 + x + 1
GF8 = FieldSpec(2, 3, (1, 1, 0, 1))       # x^3 + x + 1
GF9 = FieldSpec(3, 2, (1, 0, 1))          # x^2 + 1


def test_prime_validation():
    with pytest.raises(FieldError):
        FieldSpec(4)
    with pytest.raises(FieldError):
        FieldSpec(1)
    FieldSpec(2)
    FieldSpec(97)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (1, 0, 1))
    # degree mismatch
    with pytest.raises(FieldError):
        FieldSpec(2, 2, (1, 1, 1, 1))


@pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(5), GF4, GF9, GF8])
def test_field_axioms_on_samples(spec):
    rng = random.Random(20240 + spec.size)
    elems = list(spec.elements())
    for _ in range(30):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == spec.zero()
        assert a * spec.one() == a


@pytest.mark.parametrize("spec", [FieldSpec(3), GF4, GF9, GF8])
def test_inverse(spec):
    for a in spec.elements():
        if not a:
            with pytest.raises(FieldError):
                a.inverse()
            continue
        assert a * a.inverse() == spec.one()
        assert a / a == spec.one()


@pytest.mark.parametrize("spec", [FieldSpec(2), FieldSpec(7), GF4, GF9, GF8])
def test_frobenius_bijection(spec):
    seen = set()
    for a in spec.elements():
        b = frobenius(a)
        assert b == a ** spec.p
        assert frobenius_root(b) == a
        seen.add(b)
    assert len(seen) == spec.size


def test_generator_spans_gf4():
    g = GF4.generator()
    # g satisfies g^2 + g + 1 = 0
    assert g * g + g + GF4.one() == GF4.zero()
    powers = {GF4.one(), g, g * g}
    assert len(powers) == 3


def test_pow_and_order():
    g = GF9.generator()
    assert g ** (GF9.size - 1) == GF9.one()
    assert g ** 0 == GF9.one()
    assert g ** -1 == g.inverse()


def test_element_str():
    assert str(FieldSpec(5).from_int(3)) == "3"
    g = GF4.generator()
    assert "a" in str(g)


@pytest.mark.parametrize("a,b", [
    (FieldSpec(2).one(), GF4.generator()),
    (GF4.generator(), FieldSpec(2).one()),
    (GF8.generator(), FieldSpec(2, 3, (1, 0, 1, 1)).generator()),
    (GF9.one(), FieldSpec(3).one()),
], ids=["GF2+GF4", "GF4+GF2", "GF8-moduli", "GF9+GF3"])
def test_mixed_field_arithmetic_is_an_error(a, b):
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(FieldError, match="different fields"):
            op()


def test_equal_specs_built_apart_mix():
    other = FieldSpec(2, 2, (1, 1, 1))
    assert other is not GF4
    g, h = GF4.generator(), other.generator()
    assert g + h == GF4.zero()
    assert g * h == g * g
    assert g - h == GF4.zero()


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    sieve = bytearray([1]) * 10 ** 5
    sieve[0] = sieve[1] = 0
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, 10 ** 5, d)))
    assert [n for n in range(10 ** 5) if _is_prime(n)] == [
        n for n in range(10 ** 5) if sieve[n]]
    assert all(_is_prime(n) == _trial_division(n)
               for n in range(10 ** 9, 10 ** 9 + 200))


@pytest.mark.parametrize("n", [
    2047,                         # strong pseudoprime to base 2
    3215031751,                   # ... to bases 2, 3, 5, 7
    3825123056546413051,          # ... to the first 11 primes
    318665857834031151167461,     # ... to the first 12 primes
])  # the last is 399165290221 * 798330580441
def test_strong_pseudoprimes_are_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(FieldError, match="not prime"):
        FieldSpec(n)


def test_large_primes_are_decided_at_once():
    start = time.perf_counter()
    for p in (2 ** 61 - 1, 2 ** 31 - 1, 10 ** 9 + 7):
        spec = FieldSpec(p)
        assert spec.from_int(-1).inverse() == spec.from_int(-1)
    assert time.perf_counter() - start < 1.0


def test_primes_past_the_exact_bound_are_refused():
    assert _is_prime(PRIME_BOUND - 1) is False
    for n in (PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(FieldError, match="too large"):
            FieldSpec(n)


def _exhaustive_irreducible(modulus: tuple, p: int) -> bool:
    """The oracle: no monic divisor of degree 1..e//2."""
    e = len(modulus) - 1
    for d in range(1, e // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not _polydiv(list(modulus), list(tail) + [1], p)[1]:
                return False
    return True


# up to degree 4, Rabin's gcd conditions alone decide; a reducible quintic
# or sextic over GF(2) can pass them and fail only x^(p^e) = x
@pytest.mark.parametrize("p,degrees", [(2, (2, 3, 4, 5, 6)), (3, (2, 3, 4)),
                                       (5, (2, 3))])
def test_rabin_agrees_with_exhaustive_search(p, degrees):
    for e in degrees:
        verdicts = [_is_irreducible(tail + (1,), p)
                    for tail in product(range(p), repeat=e)]
        assert verdicts == [_exhaustive_irreducible(tail + (1,), p)
                            for tail in product(range(p), repeat=e)]
        assert any(verdicts) and not all(verdicts)


def test_irreducibility_over_a_large_prime_is_decided_at_once():
    # the exhaustive search would try about 10007^2 divisors for each
    start = time.perf_counter()
    spec = FieldSpec(10007, 4, (6311, 6890, 663, 4242, 1))
    # (x^2 + 1)(x^2 + 2): -1 and -2 are non-residues mod 10007, so it has
    # no root and only quadratic factors
    with pytest.raises(FieldError, match="reducible"):
        FieldSpec(10007, 4, (2, 0, 3, 0, 1))
    assert time.perf_counter() - start < 1.0
    assert spec.generator() ** (spec.size - 1) == spec.one()
