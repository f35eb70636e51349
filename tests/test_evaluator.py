"""The compiled Evaluator against a term-by-term reference: several
polynomials at once, sharing monomials, with the zero polynomial and
constants among them, at points over small and large, table and non-table
point fields, and over the extension base field GF(4)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.field import TABLE_CAP, FieldError, FieldSpec
from frobkit.polyring import Evaluator, Polynomial, RingContext
from frobkit.solutions import point_field

GF4 = FieldSpec(2, 2, (1, 1, 1))
# (base field, point field): prime bases under GF(4), GF(8), GF(9), GF(25),
# GF(2^14) (above TABLE_CAP, so without exp/log tables), the large prime
# field over itself, and the extension base GF(4) with points over itself
CASES = [(FieldSpec(2), point_field(2, 2)), (FieldSpec(2), point_field(2, 3)),
         (FieldSpec(3), point_field(3, 2)), (FieldSpec(5), point_field(5, 2)),
         (FieldSpec(2), point_field(2, 14)),
         (FieldSpec(2 ** 61 - 1), FieldSpec(2 ** 61 - 1)), (GF4, GF4)]
NAMES = ("x", "y", "z")


def reference(f: Polynomial, coords, target):
    """Each term on its own: the coefficient embedded by its coefficients
    (padded with zeros from the prime field), each power formed by repeated
    multiplication, and the terms summed from the target's zero."""
    acc = target.zero()
    for mono, c in f.terms.items():
        term = target.element(c.coeffs + (0,) * (target.e - c.spec.e))
        for x, e in zip(coords, mono):
            for _ in range(e):
                term = term * x
        acc = acc + term
    return acc


def element(draw, spec, nonzero=False):
    """A nonzero element, or zero one time in four unless ``nonzero``: the
    base-p digits of a drawn integer below the field's size."""
    if not nonzero and draw(st.integers(0, 3)) == 0:
        return spec.zero()
    n = draw(st.integers(1, spec.size - 1))
    return spec.element([n // spec.p ** k % spec.p for k in range(spec.e)])


@st.composite
def cases(draw):
    base, target = draw(st.sampled_from(CASES))
    ring = RingContext(base, NAMES[:draw(st.integers(1, 3))])
    n = ring.nvars
    # a shared pool of monomials, so that the polynomials share some
    pool = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1,
                         max_size=6, unique=True))
    polys = [Polynomial.zero(ring),
             Polynomial.constant(ring, element(draw, base, nonzero=True))]
    for _ in range(draw(st.integers(1, 4))):
        monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                              unique=True))
        polys.append(Polynomial(ring, {m: element(draw, base, nonzero=True)
                                       for m in monos}))
    order = draw(st.permutations(range(len(polys))))
    polys = [polys[k] for k in order]
    points = [tuple(element(draw, target) for _ in range(n))
              for _ in range(draw(st.integers(1, 3)))]
    return ring, target, polys, points


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases())
def test_evaluator_matches_term_by_term_reference(case):
    ring, target, polys, points = case
    values = Evaluator(ring, polys, target)
    for coords in points:
        got = values(coords)
        assert got == [reference(f, coords, target) for f in polys]
        assert all(v.spec == target for v in got)
        # a one-point evaluation is a one-polynomial Evaluator
        assert [f.evaluate(coords, target) for f in polys] == got


def test_cases_cover_the_fields_of_the_reference():
    sizes = {target.size for _, target in CASES}
    assert sizes == {4, 8, 9, 25, 2 ** 14, 2 ** 61 - 1}
    assert any(target.e > 1 and target.size > TABLE_CAP for _, target in CASES)
    assert (GF4, GF4) in CASES


def test_evaluator_checks_fields_once_and_coordinates_at_each_point():
    x = Polynomial.variable(RingContext(GF4, ("x",)), "x")
    f = x + Polynomial.constant(x.ctx, GF4.generator())
    for foreign in (FieldSpec(2), point_field(2, 4)):
        with pytest.raises(ValueError, match="extension base fields"):
            Evaluator(x.ctx, [f], foreign)
    gf5 = RingContext(FieldSpec(5), ("x", "y"))
    with pytest.raises(ValueError, match="another characteristic"):
        Evaluator(gf5, [], point_field(3, 2))
    values = Evaluator(gf5, [Polynomial.variable(gf5, "x")], point_field(5, 2))
    with pytest.raises(ValueError, match="1 coordinates for 2 variables"):
        values((point_field(5, 2).one(),))
    # "x" at a point over another field would hand back that coordinate
    with pytest.raises(FieldError, match="not in the point field"):
        values((point_field(5, 3).one(),) * 2)
