"""A spent limit says which limit it was and how far the work got: the
guard with the size it refused, a level or round budget with the generator
count of the last level it built."""
import pytest

from frobkit import Limits, use_limits
from frobkit.cartier import CartierModule, stable_image
from frobkit.field import FieldSpec
from frobkit.gamma import GammaSheaf
from frobkit.polyring import (BudgetExceededError, FreeVector,
                              GuardExceededError, Polynomial,
                              QuotientContext, RingContext, module_buchberger,
                              parse_vector, saturate)
from frobkit.solutions import RationalPoint, resolve_point_field
from frobkit.verify import brute_force_solutions

RING = RingContext(FieldSpec(2), ("x", "y"))
X, Y = (Polynomial.variable(RING, v) for v in ("x", "y"))


def test_brute_force_solutions_names_the_candidates():
    ctx = QuotientContext.trivial(RING)
    one, zero = Polynomial.one(RING), Polynomial.zero(RING)
    root = GammaSheaf.create(ctx, 2, [[one, zero], [zero, one]])
    spec = resolve_point_field(RING.field, 3)
    point = RationalPoint(3, spec, (spec.zero(), spec.zero()))
    with use_limits(Limits(guard=10)), pytest.raises(
            GuardExceededError,
            match="^64 candidate solutions exceed the guard 10$"):
        brute_force_solutions(root, point)


def test_stable_image_names_its_last_level():
    # the image chain of kappa(y e) = x*y e is stable from level 2 on, which
    # its third level shows
    m = CartierModule.create(QuotientContext.trivial(RING), 1, [],
                             {(0, (0, 1)): parse_vector(RING, 1, "x*y")})
    with use_limits(Limits(chain=2)), pytest.raises(
            BudgetExceededError,
            match="^image chain did not stabilize in 2 levels; the last "
                  "level had 1 generators$"):
        stable_image(m)
    with use_limits(Limits(chain=3)):
        assert stable_image(m).index == 2


def test_saturation_names_its_last_quotient():
    # (x^3 y : x^infinity) = (y) takes three quotients and a fourth to see
    # that they stopped
    n = module_buchberger([FreeVector.unit(RING, 1, 0, X ** 3 * Y)], 1,
                          RING)
    with use_limits(Limits(chain=3)), pytest.raises(
            BudgetExceededError,
            match="^saturation did not stabilize within 3 rounds; the last "
                  "quotient had 1 generators$"):
        saturate(n, X)
    with use_limits(Limits(chain=4)):
        assert saturate(n, X).generators == (FreeVector.unit(RING, 1, 0, Y),)
