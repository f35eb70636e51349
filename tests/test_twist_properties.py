"""Property tests of the dualizing twist on random roots over GF(2), GF(3)
and GF(4) in one or two variables: the round trip through the inverse twist
over P, and the library route against the dual-basis oracle of verify over P
and over P/(x^k)."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.field import FieldSpec
from frobkit.gamma import twist_to_cartier, twist_to_gamma
from frobkit.koszul import ClosedImmersion
from frobkit.polyring import Polynomial, QuotientContext, RingContext
from frobkit.verify import dual_basis_twist, random_gamma

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, (1, 1, 1))]

roots = st.tuples(st.sampled_from(FIELDS),
                  st.sampled_from([("x",), ("x", "y")]),
                  st.integers(1, 2),  # rank
                  st.integers(0, 3),  # k: the ring is P/(x^k), P when 0
                  st.integers(0, 2 ** 32))  # seed of the matrix entries


def draw_root(case, ambient=False):
    field, names, rank, k, seed = case
    ring = RingContext(field, names)
    seq = [] if ambient or not k else [Polynomial.variable(ring, "x") ** k]
    ctx = (QuotientContext.from_generators(ring, seq) if seq
           else QuotientContext.trivial(ring))
    return random_gamma(random.Random(seed), ctx, rank, max_deg=3), seq


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roots)
def test_twist_round_trip_over_p(case):
    n, _ = draw_root(case, ambient=True)
    assert twist_to_gamma(twist_to_cartier(n)).matrix == n.matrix


@settings(max_examples=200, deadline=None, derandomize=True)
@given(roots)
def test_twist_matches_dual_basis_oracle(case):
    n, seq = draw_root(case)
    im = ClosedImmersion.create(n.ring, seq) if seq else None
    assert (twist_to_cartier(n, im).kappa_table
            == dual_basis_twist(n, seq).kappa_table)
