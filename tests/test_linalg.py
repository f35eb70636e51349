"""The dense linear algebra, checked directly: rref and nullspace on field
elements, nullspace_mod_p on packed rows of ints mod p (one elimination
loop serves all three), and the square-and-multiply behind both __pow__
methods."""
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.field import FieldElement, FieldSpec, power
from frobkit.linalg import (_eliminate, _pack, _width, nullspace,
                            nullspace_mod_p, rref)
from frobkit.polyring import Polynomial, RingContext

PRIMES = (2, 3, 32003, 2 ** 61 - 1)
GF4 = FieldSpec(2, 2, (1, 1, 1))
GF9 = FieldSpec(3, 2, (1, 0, 1))
# x^2 + 1 is irreducible since 10007 = 3 mod 4; too large for log tables
GF10007_2 = FieldSpec(10007, 2, (1, 0, 1))


@st.composite
def int_matrices(draw, min_rows=0):
    """(p, ncols, rows): small entries, so zeros and dependent rows are
    common, and now and then a full-size residue or a negative one."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, 12))
    entry = st.one_of(st.integers(-1, 2), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=12))
    return p, ncols, rows


def eliminate_mod_p(a, ncols, p):
    """_eliminate on the rows of a, packed as nullspace_mod_p packs them,
    with the reduced rows read back as lists of residues."""
    red, pivots = _eliminate(_pack(a, p), ncols, p)
    w = _width(p, len(a))
    return [[(row >> c * w & (1 << w) - 1) % p for c in range(ncols)]
            for row in red], pivots


def gauss_jordan_nullspace(a, ncols, p):
    """The reference: Gauss-Jordan elimination on lists of residues, every
    entry reduced after every step, then one kernel vector per free
    column."""
    mat = [[x % p for x in row] for row in a]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = [(x - row[c] * y) % p for x, y in zip(row, mat[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[f] = 1
        for row, c in zip(mat, pivots):
            x[c] = -row[f] % p
        basis.append(x)
    return basis


@st.composite
def field_matrices(draw):
    spec = draw(st.sampled_from((GF4, GF9)))
    ncols = draw(st.integers(1, 3))
    entry = st.sampled_from(list(spec.elements()))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    return spec, ncols, rows


def assert_reduced(red, pivots, ncols, zero, one):
    """red is in reduced row echelon form with these pivots: each pivot is
    1, with zeros to its left and in the rest of its column."""
    assert pivots == sorted(set(pivots)) and len(red) == len(pivots)
    for r, (row, c) in enumerate(zip(red, pivots)):
        assert len(row) == ncols and row[c] == one
        assert all(x == zero for x in row[:c])
        assert all(other[c] == zero for i, other in enumerate(red) if i != r)


def combination(red, pivots, row, add, scale):
    """The combination of the rows of red with the coefficients that row
    has at the pivot columns; it is row when row lies in their span."""
    acc = None
    for red_row, c in zip(red, pivots):
        term = scale(row[c], red_row)
        acc = term if acc is None else add(acc, term)
    return acc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(int_matrices())
def test_nullspace_mod_p(case):
    p, ncols, a = case
    basis = nullspace_mod_p(a, ncols, p)
    for x in basis:
        assert len(x) == ncols and all(0 <= v < p for v in x)
        assert all(sum(r * v for r, v in zip(row, x)) % p == 0 for row in a)
    red, pivots = eliminate_mod_p(a, ncols, p)
    assert len(red) + len(basis) == ncols
    assert_reduced(red, pivots, ncols, 0, 1)
    for row in a:
        row = [x % p for x in row]
        span = combination(red, pivots, row,
                           lambda u, v: [(x + y) % p for x, y in zip(u, v)],
                           lambda c, v: [c * x % p for x in v])
        assert row == (span or [0] * ncols)
    # the kernel vectors are independent
    independent, _ = eliminate_mod_p(basis, ncols, p)
    assert len(independent) == len(basis)
    if p ** ncols <= 243:
        kernel = sum(all(sum(r * v for r, v in zip(row, x)) % p == 0
                         for row in a)
                     for x in product(range(p), repeat=ncols))
        assert kernel == p ** len(basis)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(int_matrices())
def test_nullspace_mod_p_agrees_with_gauss_jordan(case):
    p, ncols, a = case
    assert nullspace_mod_p(a, ncols, p) == gauss_jordan_nullspace(a, ncols, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("nrows,ncols", ((12, 12), (12, 5), (5, 12), (1, 1)))
def test_dense_p_minus_one_matrices(p, nrows, ncols):
    """Entry p - 1 off the diagonal and 0 on it: in the 12 x 12 case every
    row is updated at 10 or 11 of the 12 pivots.  With every entry p - 1
    the rank is 1."""
    a = [[p - 1 if i != j else 0 for j in range(ncols)] for i in range(nrows)]
    assert nullspace_mod_p(a, ncols, p) == gauss_jordan_nullspace(a, ncols, p)
    dense = [[p - 1] * ncols for _ in range(nrows)]
    assert (nullspace_mod_p(dense, ncols, p)
            == gauss_jordan_nullspace(dense, ncols, p))


@pytest.mark.parametrize("p", PRIMES)
def test_packed_entry_takes_the_most_updates(p):
    """Rows e_k + (p - 1) e_10 for k < 10, then (1, ..., 1, p - 1, 1): the
    last row is updated at each of the 10 pivots with factor p - 1 against
    an entry p - 1, so its entry in column 10 reaches p - 1 + 10 (p - 1)^2
    before it is read, and the free column 11 is read after it.  A width
    one bit short of what _width's bound needs gives a wrong kernel here."""
    a = [[0] * 12 for _ in range(10)]
    for k, row in enumerate(a):
        row[k], row[10] = 1, p - 1
    a.append([1] * 10 + [p - 1, 1])
    assert nullspace_mod_p(a, 12, p) == gauss_jordan_nullspace(a, 12, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(field_matrices())
def test_rref_and_nullspace_over_extension_fields(case):
    spec, ncols, a = case
    zero, one = spec.zero(), spec.one()
    red, pivots = rref(a)
    basis = nullspace(a, spec)
    assert len(red) + len(basis) == ncols
    assert_reduced(red, pivots, ncols, zero, one)
    for row in a:
        span = combination(red, pivots, row,
                           lambda u, v: [x + y for x, y in zip(u, v)],
                           lambda c, v: [c * x for x in v])
        assert row == (span or [zero] * ncols)
    for x in basis:
        assert all(sum((r * v for r, v in zip(row, x)), zero) == zero
                   for row in a)
    assert len(rref(basis)[0]) == len(basis)
    kernel = sum(all(sum((r * v for r, v in zip(row, x)), zero) == zero
                     for row in a)
                 for x in product(list(spec.elements()), repeat=ncols))
    assert kernel == spec.size ** len(basis)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(int_matrices(min_rows=1))
def test_rref_over_a_prime_field_agrees_with_nullspace_mod_p(case):
    p, ncols, a = case
    spec = FieldSpec(p)
    fa = [[FieldElement(spec, (x % p,)) for x in row] for row in a]
    red, pivots = rref(fa)
    ired, ipivots = eliminate_mod_p(a, ncols, p)
    assert pivots == ipivots
    assert [[x.coeffs[0] for x in row] for row in red] == ired
    assert ([[x.coeffs[0] for x in v] for v in nullspace(fa, spec)]
            == nullspace_mod_p(a, ncols, p))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from((GF4, GF9, FieldSpec(32003), FieldSpec(2 ** 61 - 1),
                        GF10007_2)),
       st.data(), st.integers(0, 40))
def test_power_is_repeated_multiplication(spec, data, n):
    x = FieldElement(spec, tuple(data.draw(st.integers(0, spec.p - 1))
                                 for _ in range(spec.e)))
    expected = spec.one()
    for _ in range(n):
        expected = expected * x
    assert power(x, n, spec.one()) == expected
    assert x ** n == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(1, 2)), max_size=3),
       st.integers(0, 6))
def test_polynomial_power_is_repeated_multiplication(terms, n):
    ring = RingContext(FieldSpec(3), ("x", "y"))
    f = Polynomial.zero(ring)
    for a, b, c in terms:
        f = f + Polynomial.monomial(ring, (a, b), c)
    expected = Polynomial.one(ring)
    for _ in range(n):
        expected = expected * f
    assert power(f, n, Polynomial.one(ring)) == expected
    assert f ** n == expected
