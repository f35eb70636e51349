import ast
import importlib
import pkgutil
import random
from pathlib import Path

import pytest

import frobkit
from frobkit.cartier import (CartierModule, cartier_structure_violations,
                             kappa_apply, volume_cartier_module)
from frobkit.field import FieldSpec
from frobkit.gamma import GammaSheaf, twist_to_cartier
from frobkit.koszul import (ClosedImmersion, cartier_pullback,
                            check_pullback_twist_commutes, dualizing_module,
                            gamma_pullback, transition_factor)
from frobkit.polyring import (FreeVector, Polynomial, QuotientContext,
                              RingContext, buchberger)
from frobkit.verify import random_gamma


def ring(p, *names):
    return RingContext(FieldSpec(p), names)


def test_immersion_requires_regular_sequence():
    r = ring(2, "x", "y")
    x = Polynomial.variable(r, "x")
    with pytest.raises(ValueError):
        ClosedImmersion.create(r, [x, x])
    with pytest.raises(ValueError):
        ClosedImmersion.create(r, [Polynomial.one(r)])


@pytest.mark.parametrize("p", [2, 3])
def test_pullback_of_volume_along_x(p):
    r = ring(p, "x")
    x = Polynomial.variable(r, "x")
    im = ClosedImmersion.create(r, [x])
    m = cartier_pullback(volume_cartier_module(r), im)
    e = FreeVector.unit(r, 1, 0)
    # kappa'(e) = kappa(x^(p-1) e) = e
    assert kappa_apply(m, e) == e
    assert not cartier_structure_violations(m)


def test_pullback_zero_table():
    r = ring(2, "x")
    x = Polynomial.variable(r, "x")
    im = ClosedImmersion.create(r, [x])
    zero = CartierModule.create(QuotientContext.trivial(r), 1)
    assert not cartier_pullback(zero, im).kappa_table


def test_dualizing_full_sequence_is_identity_on_k():
    for p in (2, 3):
        r = ring(p, "x", "y")
        x = Polynomial.variable(r, "x")
        y = Polynomial.variable(r, "y")
        d = dualizing_module(ClosedImmersion.create(r, [x, y]))
        e = FreeVector.unit(r, 1, 0)
        assert d.kappa_table == {(0, (0,) * 2): e}


def test_dualizing_fat_point():
    r = ring(2, "x")
    x = Polynomial.variable(r, "x")
    d = dualizing_module(ClosedImmersion.create(r, [x ** 2]))
    e = FreeVector.unit(r, 1, 0)
    # kappa(e) = cartier_volume(x^2) = 0; kappa(x e) = cartier_volume(x^3) = x
    assert (0, (0,)) not in d.kappa_table
    assert d.table_value(0, (1,)) == e.scale(x)
    assert not cartier_structure_violations(d)


def test_pullbacks_compose():
    rng = random.Random(21)
    r = ring(2, "x", "y")
    x = Polynomial.variable(r, "x")
    y = Polynomial.variable(r, "y")
    amb = QuotientContext.trivial(r)
    im_x = ClosedImmersion.create(r, [x])
    im_y = ClosedImmersion.create(r, [y])
    im_xy = ClosedImmersion.create(r, [x, y])
    for _ in range(6):
        n = random_gamma(rng, amb, 1, max_deg=2)
        m = twist_to_cartier(n)
        two_steps = cartier_pullback(cartier_pullback(m, im_x), im_y)
        one_step = cartier_pullback(m, im_xy)
        assert two_steps.kappa_table == one_step.kappa_table
        assert two_steps.relations.generators == one_step.relations.generators


def assert_transition_identity(tr, f_seq, g_seq):
    for row, g in zip(tr.matrix, g_seq):
        acc = Polynomial.zero(g.ctx)
        for c, f in zip(row, f_seq):
            acc = acc + c * f
        assert acc == g


def test_transition_factor_examples():
    for p in (2, 3):
        r = ring(p, "x", "y")
        x = Polynomial.variable(r, "x")
        y = Polynomial.variable(r, "y")
        im = ClosedImmersion.create(r, [x, y])
        swap = transition_factor(im, [y, x])
        assert swap.det == Polynomial.constant(r, -1)
        same = transition_factor(im, [x, y])
        assert same.det == Polynomial.one(r)
        shear = transition_factor(im, [x, x + y])
        assert shear.det == Polynomial.one(r)
        assert_transition_identity(swap, [x, y], [y, x])
        assert_transition_identity(shear, [x, y], [x, x + y])


def test_transition_factor_codim_three():
    r = ring(3, "x", "y", "z")
    x, y, z = (Polynomial.variable(r, v) for v in "xyz")
    f_seq = [x, y, z]
    g_seq = [z, x + y * z, 2 * y + x ** 2]
    tr = transition_factor(ClosedImmersion.create(r, f_seq), g_seq)
    assert_transition_identity(tr, f_seq, g_seq)
    # C = [[0, 0, 1], [1, z, 0], [x, 2, 0]] is one choice; expanding along
    # the first row, det C = 2 - x*z, which is 2 modulo (x, y, z)
    assert tr.det == Polynomial.constant(r, 2)


def test_transition_factor_non_monomial_sequence():
    # lex with y > x: the reduced basis of (x^2 + y, y^3) is (y + x^2, x^6),
    # so the module basis is not read off f directly
    r = RingContext(FieldSpec(3), ("y", "x"), "lex")
    x, y = Polynomial.variable(r, "x"), Polynomial.variable(r, "y")
    f_seq = [x ** 2 + y, y ** 3]
    assert buchberger(f_seq, r).polys == [x ** 6, y + x ** 2]
    f1, f2 = f_seq
    g_seq = [x * f1 + f2, (Polynomial.one(r) + x * y) * f1 + y * f2]
    tr = transition_factor(ClosedImmersion.create(r, f_seq), g_seq)
    assert_transition_identity(tr, f_seq, g_seq)
    # C = [[x, 1], [1 + x*y, y]] gives det C = x*y - (1 + x*y) = -1
    assert tr.det == Polynomial.constant(r, 2)


def test_transition_factor_rejects_different_ideals():
    r = ring(2, "x", "y")
    x = Polynomial.variable(r, "x")
    y = Polynomial.variable(r, "y")
    with pytest.raises(ValueError):
        transition_factor(ClosedImmersion.create(r, [x, y]), [x, y * y])


def test_transition_factor_rejects_non_regular_sequence():
    # x*z and y*z^2 share the factor z; two valid matrices C for this pair
    # have determinants 1 and y*z + 1 mod (f), so no determinant is reported
    r = ring(2, "x", "y", "z")
    x, y, z = (Polynomial.variable(r, v) for v in "xyz")
    f_seq = [x * z, y * z ** 2]
    g_seq = [y * z ** 2, x * y * z ** 2 + y * z ** 2 + x * z]
    with pytest.raises(ValueError, match="sequence is not regular"):
        transition_factor(ClosedImmersion.create(r, f_seq), g_seq)


def test_raw_pullbacks_and_determinant():
    # products x*y and y*x coincide, so the raw structures agree on the nose,
    # while the transition determinant is -1; the mult-by-det map intertwines
    for p in (2, 3):
        r = ring(p, "x", "y")
        x = Polynomial.variable(r, "x")
        y = Polynomial.variable(r, "y")
        im_f = ClosedImmersion.create(r, [x, y])
        im_g = ClosedImmersion.create(r, [y, x])
        vol = volume_cartier_module(r)
        mf = cartier_pullback(vol, im_f)
        mg = cartier_pullback(vol, im_g)
        assert mf.kappa_table == mg.kappa_table
        det = transition_factor(im_f, [y, x]).det
        u = det.terms[(0, 0)]
        # kappa_g(u m) = u kappa_f(m) for the prime-field unit u
        e = FreeVector.unit(r, 1, 0)
        assert kappa_apply(mg, e.scale(u)) == kappa_apply(mf, e).scale(u)


def test_commutation_anchor_and_zero():
    r = ring(3, "x", "y")
    x = Polynomial.variable(r, "x")
    amb = QuotientContext.trivial(r)
    im = ClosedImmersion.create(r, [x])
    one = GammaSheaf.create(amb, 1, [[Polynomial.one(r)]])
    cert = check_pullback_twist_commutes(one, im)
    assert cert.equal and not cert.discrepancies
    # both routes equal the dualizing module of the immersion
    route = cartier_pullback(twist_to_cartier(one), im)
    assert route.kappa_table == dualizing_module(im).kappa_table
    zero = GammaSheaf.create(amb, 1, [[Polynomial.zero(r)]])
    assert check_pullback_twist_commutes(zero, im).equal


@pytest.mark.parametrize("p", [2, 3])
def test_commutation_random(p):
    rng = random.Random(p * 17)
    r = ring(p, "x", "y")
    x = Polynomial.variable(r, "x")
    y = Polynomial.variable(r, "y")
    amb = QuotientContext.trivial(r)
    for seq in ([x], [y], [x, y]):
        im = ClosedImmersion.create(r, seq)
        for _ in range(5):
            n = random_gamma(rng, amb, rng.choice((1, 2)), max_deg=2)
            assert check_pullback_twist_commutes(n, im).equal


def test_gamma_pullback_reduces_matrix():
    r = ring(2, "x", "y")
    x = Polynomial.variable(r, "x")
    y = Polynomial.variable(r, "y")
    amb = QuotientContext.trivial(r)
    n = GammaSheaf.create(amb, 1, [[x + y]])
    im = ClosedImmersion.create(r, [x])
    assert gamma_pullback(n, im).matrix[0][0] == y
    nq = gamma_pullback(n, im)
    with pytest.raises(ValueError):
        gamma_pullback(nq, im)  # no longer over the ambient ring


# ---------------------------------------------------------------------------
# one regularity proof per sequence

def test_regularity_is_proven_only_by_the_immersion():
    callers = []
    for path in sorted(Path(frobkit.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = scope + (child.name,)
                if isinstance(child, ast.Call):
                    fn = child.func
                    name = getattr(fn, "id", getattr(fn, "attr", None))
                    if name == "is_regular_sequence":
                        callers.append(".".join((path.stem,) + scope))
                walk(child, inner)

        walk(tree, ())
    assert callers == ["koszul.ClosedImmersion.create"]


def test_immersion_carries_the_proof(monkeypatch):
    calls = []

    def counting(original):
        def is_regular_sequence(seq, ctx):
            calls.append(seq)
            return original(seq, ctx)
        return is_regular_sequence

    for info in pkgutil.iter_modules(frobkit.__path__):
        mod = importlib.import_module(f"frobkit.{info.name}")
        if hasattr(mod, "is_regular_sequence"):
            monkeypatch.setattr(mod, "is_regular_sequence",
                                counting(mod.is_regular_sequence))
    r = ring(2, "x", "y")
    x = Polynomial.variable(r, "x")
    y = Polynomial.variable(r, "y")
    im = ClosedImmersion.create(r, [x, y])
    im_x, im_x2 = (ClosedImmersion.create(r, [x ** k]) for k in (1, 2))
    assert len(calls) == 3
    calls.clear()
    n = GammaSheaf.create(QuotientContext.trivial(r), 1, [[x + y]])
    assert check_pullback_twist_commutes(n, im).equal
    over_x = GammaSheaf.create(im_x.target, 1, [[y]])
    with pytest.raises(ValueError, match="does not generate"):
        twist_to_cartier(over_x)         # a quotient without an immersion
    with pytest.raises(ValueError, match="does not generate"):
        twist_to_cartier(n, im)          # an immersion over P
    with pytest.raises(ValueError, match="does not generate"):
        twist_to_cartier(over_x, im_x2)  # the immersion of another ideal
    assert not calls
