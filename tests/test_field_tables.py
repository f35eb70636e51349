"""The exp/log table route of GF(p^e) against the convolution route.

Fields of at most TABLE_CAP elements multiply, divide, invert and raise to
powers by table lookup; larger ones convolve and reduce by the modulus.  The
oracle is the same field with its tables switched off, so every operation
takes the route that fields above the cap take."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.field import (TABLE_CAP, FieldElement, FieldError, FieldSpec,
                           _conv_mul, frobenius, frobenius_root)
from frobkit.solutions import smallest_irreducible

SMALL = [
    FieldSpec(2, 2, (1, 1, 1)),            # x^2 + x + 1
    FieldSpec(2, 3, (1, 1, 0, 1)),         # x^3 + x + 1
    FieldSpec(3, 2, (1, 0, 1)),            # x^2 + 1: x has order 4 of 8
    FieldSpec(3, 3, (1, 2, 0, 1)),         # x^3 + 2x + 1
    FieldSpec(2, 5, (1, 0, 1, 0, 0, 1)),   # x^5 + x^2 + 1
]
NEAR_CAP = FieldSpec(2, 13, smallest_irreducible(2, 13))    # q = TABLE_CAP
ABOVE_CAP = FieldSpec(97, 2, smallest_irreducible(97, 2))   # q = 9409


def convolution_twin(spec: FieldSpec) -> FieldSpec:
    """An equal field whose tables are switched off."""
    twin = FieldSpec(spec.p, spec.e, spec.modulus)
    twin.__dict__["_tables"] = ()
    return twin


def exponents(q: int) -> list:
    return [-(2 * q + 1), -q, -(q - 1), -2, -1, 0, 1, 2, q - 2, q - 1, q,
            q + 1, 3 * q + 5]


def test_cap_bounds_the_tabled_fields():
    assert NEAR_CAP.size == TABLE_CAP < ABOVE_CAP.size
    assert all(spec.size <= TABLE_CAP for spec in SMALL)


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: f"GF{s.size}")
def test_every_pair_matches_convolution_route(spec):
    twin = convolution_twin(spec)
    elems = list(spec.elements())
    for a in elems:
        ta = FieldElement(twin, a.coeffs)
        for b in elems:
            tb = FieldElement(twin, b.coeffs)
            assert (a * b).coeffs == (ta * tb).coeffs
            if b:
                assert (a / b).coeffs == (ta / tb).coeffs
            else:
                with pytest.raises(FieldError, match="division by zero"):
                    a / b
        for n in exponents(spec.size):
            if a or n >= 0:
                assert (a ** n).coeffs == (ta ** n).coeffs, (a, n)
            else:
                with pytest.raises(FieldError, match="division by zero"):
                    a ** n
        if a:
            assert a.inverse().coeffs == ta.inverse().coeffs
    assert twin._tables == ()
    log, exp, order = spec._tables
    assert order == spec.size - 1 == len(log) == len(exp) // 2


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: f"GF{s.size}")
def test_frobenius_root_inverts_frobenius(spec):
    twin = convolution_twin(spec)
    for a in spec.elements():
        b = frobenius(a)
        assert b.coeffs == frobenius(FieldElement(twin, a.coeffs)).coeffs
        assert frobenius_root(b) == a


@pytest.mark.parametrize("spec", SMALL[:3], ids=lambda s: f"GF{s.size}")
def test_zero_and_one_semantics(spec):
    zero, one = spec.zero(), spec.one()
    assert zero ** 0 == one and one ** 0 == one
    assert zero ** 1 == zero and zero ** (spec.size + 3) == zero
    for n in (-1, -spec.size):
        with pytest.raises(FieldError, match="division by zero"):
            zero ** n
    with pytest.raises(FieldError, match="division by zero"):
        zero.inverse()
    g = spec.generator()
    assert g ** -1 == g.inverse() and g ** -2 == (g * g).inverse()
    assert zero * g == zero and g * zero == zero and zero / g == zero


def test_mixed_fields_are_refused_before_the_zero_test():
    gf8, other = SMALL[1], FieldSpec(2, 3, (1, 0, 1, 1))
    a, b = gf8.generator(), other.generator()
    for op in (lambda: gf8.zero() * b, lambda: a * other.zero(),
               lambda: gf8.zero() / b):
        with pytest.raises(FieldError, match="different fields"):
            op()


def test_tables_are_built_on_first_use_only():
    spec = FieldSpec(2, 4, (1, 1, 0, 0, 1))
    assert "_tables" not in vars(spec)
    spec.one() + spec.generator()
    assert "_tables" not in vars(spec)
    spec.generator() * spec.generator()
    assert len(vars(spec)["_tables"][0]) == 15
    prime = FieldSpec(5)
    prime.from_int(2) * prime.from_int(3)
    assert "_tables" not in vars(prime)


coeffs = st.lists(st.integers(0, 1), min_size=13, max_size=13).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=coeffs, b=coeffs, n=st.integers(-3 * TABLE_CAP, 3 * TABLE_CAP))
def test_near_cap_matches_convolution_route(a, b, n):
    twin = convolution_twin(NEAR_CAP)
    x, y = FieldElement(NEAR_CAP, a), FieldElement(NEAR_CAP, b)
    tx, ty = FieldElement(twin, a), FieldElement(twin, b)
    assert (x * y).coeffs == (tx * ty).coeffs
    if any(b):
        assert (x / y).coeffs == (tx / ty).coeffs
        assert y.inverse().coeffs == ty.inverse().coeffs
    if any(a) or n >= 0:
        assert (x ** n).coeffs == (tx ** n).coeffs
    assert frobenius_root(frobenius(x)) == x


def test_above_cap_runs_the_convolution_route():
    spec = ABOVE_CAP
    assert spec._tables == ()
    a = spec.element((3, 5))
    b = spec.element((96, 41))
    one = spec.one()
    assert (a * b).coeffs == _conv_mul(a.coeffs, b.coeffs, spec.modulus, 97)
    assert a * a.inverse() == one and (a * b) / b == a
    assert a ** (spec.size - 1) == one and a ** -1 == a.inverse()
    assert frobenius_root(frobenius(a)) == a
    assert frobenius(a) != a  # a is not in the prime field
    assert spec._tables == ()
