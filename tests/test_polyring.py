import hashlib
import heapq
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobkit import polyring
from frobkit.field import FieldSpec
from frobkit.polyring import (BudgetExceededError, FreeVector, Limits,
                              ParseError, Polynomial, QuotientContext,
                              RingContext, _int_view, _interreduce,
                              _reduce_vector, _spair, buchberger,
                              current_limits, format_polynomial, format_vector,
                              is_regular_sequence, module_buchberger,
                              module_quotient, module_staircase,
                              normal_form, parse_polynomial, parse_vector,
                              saturate, submodule_equal, use_limits)
from frobkit.solutions import point_field


@pytest.fixture
def ring2():
    return RingContext(FieldSpec(2), ("x", "y"))


@pytest.fixture
def ring3():
    return RingContext(FieldSpec(3), ("x", "y"))


def rand_poly(rng, ctx, max_deg=4, terms=5):
    acc = Polynomial.zero(ctx)
    for _ in range(rng.randint(0, terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ctx.nvars))
        acc = acc + Polynomial.monomial(ctx, m, rng.randrange(1, ctx.field.p))
    return acc


# ---------------------------------------------------------------------------
# arithmetic and parsing

def test_ring_arithmetic(ring3):
    rng = random.Random(1)
    for _ in range(40):
        f, g, h = (rand_poly(rng, ring3) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert (f - f).is_zero()
        assert f ** 2 == f * f


def test_parse_format_round_trip(ring3):
    # GF(3), and GF(4) with coefficients in its prime subfield GF(2)
    gf4 = RingContext(FieldSpec(2, 2, (1, 1, 1)), ("x", "y"))
    rng = random.Random(2)
    for ring in (ring3, gf4):
        for _ in range(40):
            f = rand_poly(rng, ring)
            assert parse_polynomial(ring, format_polynomial(f)) == f


@pytest.mark.parametrize("text,expected_terms", [
    ("0", 0),
    ("x^2*y - 3*y^3", 2),
    ("2*x + x", 1),          # 3x = 0 over GF(3)? no: ring fixture is per test
    ("x*x*y", 1),
])
def test_parse_shapes(ring2, text, expected_terms):
    f = parse_polynomial(ring2, text)
    assert len(f.terms) <= max(expected_terms, 2)


def test_parse_errors(ring2):
    for bad in ("x +", "z^2", "x^", "x**2", "[x"):
        with pytest.raises(ParseError):
            parse_polynomial(ring2, bad)
    with pytest.raises(ParseError):
        parse_vector(ring2, 2, "x + y")  # rank-2 needs brackets
    with pytest.raises(ParseError):
        parse_vector(ring2, 2, "[x]")


def test_vector_round_trip(ring2):
    v = parse_vector(ring2, 2, "[x^2 + y, 1]")
    assert parse_vector(ring2, 2, format_vector(v)) == v


def test_monomial_orders():
    lex = RingContext(FieldSpec(2), ("x", "y"), "lex")
    grev = RingContext(FieldSpec(2), ("x", "y"), "grevlex")
    x2 = (2, 0)
    y3 = (0, 3)
    assert lex.monomial_key(x2) > lex.monomial_key(y3)
    assert grev.monomial_key(y3) > grev.monomial_key(x2)
    # the heap key orders monomials as monomial_key does, reversed, and the
    # cached leading term is the largest term by monomial_key
    rng = random.Random(6)
    monos = [m for m in product(range(5), repeat=3) if sum(m) <= 4]
    for order in ("lex", "grevlex"):
        ctx = RingContext(FieldSpec(3), ("x", "y", "z"), order)
        assert (sorted(monos, key=ctx.descending_key)
                == sorted(monos, key=ctx.monomial_key, reverse=True))
        for _ in range(30):
            f = rand_poly(rng, ctx, 4, 6)
            if f:
                m = max(f.terms, key=ctx.monomial_key)
                assert f.leading() == (m, f.terms[m])
                assert f.leading() == (m, f.terms[m])  # from the cache



def naive_evaluate(f, coords, target):
    """Reference for Polynomial.evaluate: every coefficient embedded by
    from_int (or kept, over the point field itself), every power formed by
    repeated multiplication, and the terms summed from the target's zero."""
    same = f.ctx.field == target
    acc = target.zero()
    for m, c in f.terms.items():
        cv = c if same else target.from_int(c.coeffs[0])
        for x, e in zip(coords, m):
            for _ in range(e):
                cv = cv * x
        acc = acc + cv
    return acc


def test_evaluate_matches_naive_loop():
    gf9 = point_field(3, 2)
    gf9_copy = FieldSpec(3, 2, gf9.modulus)  # equal to gf9, not the same
    big = FieldSpec(2 ** 61 - 1)
    cases = [(FieldSpec(3), FieldSpec(3)), (FieldSpec(3), point_field(3, 3)),
             (FieldSpec(2), point_field(2, 2)), (big, big), (gf9, gf9),
             (gf9, gf9_copy)]
    rng = random.Random(31)

    def element(spec):
        return spec.element([rng.randrange(spec.p) for _ in range(spec.e)])

    exponents = set()
    for base, target in cases:
        ring = RingContext(base, ("x", "y", "z"))
        coords = tuple(element(target) for _ in range(3))
        zero = Polynomial.zero(ring).evaluate(coords, target)
        assert zero == target.zero() and zero.spec == target
        for _ in range(40):
            f = Polynomial.zero(ring)
            for _ in range(rng.randint(1, 5)):
                m = tuple(rng.randint(0, 3) for _ in range(3))
                f = f + Polynomial.monomial(ring, m, element(base))
            coords = tuple(element(target) for _ in range(3))
            got = f.evaluate(coords, target)
            assert got == naive_evaluate(f, coords, target)
            assert got.spec == target
            assert f.evaluate(coords) == got  # the coordinates' field
            exponents.update(e for m in f.terms for e in m)
    assert exponents == {0, 1, 2, 3}
    # coefficients outside the prime field need points over the base field
    x = Polynomial.variable(RingContext(gf9, ("x",)), "x")
    f = x + Polynomial.constant(x.ctx, gf9.generator())
    for foreign in (FieldSpec(3), point_field(3, 4)):
        with pytest.raises(ValueError, match="extension base fields"):
            f.evaluate((foreign.one(),), foreign)
    with pytest.raises(ValueError, match="another characteristic"):
        Polynomial.variable(RingContext(FieldSpec(5), ("x",)), "x").evaluate(
            (FieldSpec(3).one(),))

# ---------------------------------------------------------------------------
# Groebner bases

def test_buchberger_katsura_like(ring2):
    x = Polynomial.variable(ring2, "x")
    y = Polynomial.variable(ring2, "y")
    gb = buchberger([x * x + y, x * y + Polynomial.one(ring2)])
    # membership of combinations
    f = (x * x + y) * y + (x * y + Polynomial.one(ring2)) * x
    assert normal_form(f, gb).is_zero()
    assert not normal_form(x, gb).is_zero()


def test_reduced_gb_is_canonical(ring3):
    rng = random.Random(3)
    for _ in range(10):
        gens = [rand_poly(rng, ring3, 3, 3) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb1 = buchberger(gens, ring3)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        gb2 = buchberger(shuffled, ring3)
        assert gb1.generators == gb2.generators


@st.composite
def generator_sets(draw):
    """A ring GF(p)[x,y] in either order, 2-3 generators of 2-4 terms of
    degree at most 3 in each variable, and one multiplier of degree at most
    1 for each generator."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ctx = RingContext(FieldSpec(p), ("x", "y"),
                      draw(st.sampled_from(["grevlex", "lex"])))

    def polys(degree, count):
        terms = st.lists(st.tuples(
            st.tuples(st.integers(0, degree), st.integers(0, degree)),
            st.integers(1, p - 1)), min_size=2, max_size=4)
        return [sum((Polynomial.monomial(ctx, m, c) for m, c in t),
                    Polynomial.zero(ctx))
                for t in draw(st.lists(terms, min_size=count[0],
                                       max_size=count[1]))]

    gens = [g for g in polys(3, (2, 3)) if g] or [Polynomial.one(ctx)]
    return ctx, gens, polys(1, (len(gens), len(gens)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(generator_sets(), st.data())
def test_reduced_basis_is_canonical(case, data):
    ctx, gens, multipliers = case
    p = ctx.field.p

    def reduced(polys):
        return [format_polynomial(g) for g in buchberger(polys, ctx).polys]

    expected = reduced(gens)
    order = data.draw(st.permutations(range(len(gens))))
    assert reduced([gens[i] for i in order]) == expected
    scalars = data.draw(st.lists(st.integers(1, p - 1), min_size=len(gens),
                                 max_size=len(gens)))
    assert reduced([g.scale(c)
                    for g, c in zip(gens, scalars)]) == expected
    member = sum((m * g for m, g in zip(multipliers, gens)),
                 Polynomial.zero(ctx))
    assert reduced(gens + [member]) == expected


# ---------------------------------------------------------------------------
# oracles: the max-scan division and the all-pairs Buchberger loop

def max_scan_reduce(v: FreeVector, gens: list) -> FreeVector:
    """Remainder of ``v`` against monic ``gens``: at every step the largest
    pending term of the first nonzero position is found by a max over
    monomial_key, and the first generator whose lead divides it reduces it."""
    ctx = v.ctx
    key = ctx.monomial_key
    leads = [g.leading() for g in gens]
    work = [dict(c.terms) for c in v.comps]
    rem = [dict() for _ in v.comps]
    while any(work):
        j = next(j for j, terms in enumerate(work) if terms)
        m = max(work[j], key=key)
        c = work[j][m]
        for g, (gpos, gm, _) in zip(gens, leads):
            if gpos == j and all(x <= y for x, y in zip(gm, m)):
                shift = tuple(x - y for x, y in zip(m, gm))
                for pos, comp in enumerate(g.comps):
                    tgt = work[pos]
                    for mm, cc in comp.terms.items():
                        mmm = tuple(x + y for x, y in zip(mm, shift))
                        prod = cc * c
                        if mmm in tgt:
                            s = tgt[mmm] - prod
                            if s:
                                tgt[mmm] = s
                            else:
                                del tgt[mmm]
                        else:
                            tgt[mmm] = -prod
                break
        else:
            rem[j][m] = c
            del work[j][m]
    return FreeVector(ctx, (Polynomial(ctx, d) for d in rem))


def all_pairs_buchberger(vectors: list, rank: int, ctx: RingContext):
    """Buchberger's loop over every pair with equal lead positions, popped by
    (lcm degree, i, j), pruned by the product criterion in rank 1 only, with
    max-scan division; the basis is then reduced by the library."""
    basis, leads, pairs = [], [], []

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def add(v):
        pos, m, _ = v.leading()
        for k, (kpos, km) in enumerate(leads):
            if kpos == pos:
                heapq.heappush(pairs, (sum(lcm(km, m)), k, len(basis)))
        basis.append(v)
        leads.append((pos, m))

    for v in vectors:
        if v:
            add(v.monic())
    budget, spent = current_limits().spair, 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        mi, mj = leads[i][1], leads[j][1]
        if rank == 1 and lcm(mi, mj) == tuple(x + y for x, y in zip(mi, mj)):
            continue
        spent += 1
        if spent > budget:
            raise BudgetExceededError(f"S-pair budget {budget} exceeded")
        r = max_scan_reduce(_spair(basis[i], basis[j]), basis)
        if r:
            add(r.monic())
    return _interreduce(basis, ctx, rank)


# the fields of the module cases: small primes, a prime near 2^15, the
# Mersenne prime 2^61 - 1 (large ints in the int division loop) and GF(4),
# GF(9) (the FieldElement loop of extension fields)
MODULE_FIELDS = (FieldSpec(2), FieldSpec(3), FieldSpec(32003),
                 FieldSpec(2 ** 61 - 1), FieldSpec(2, 2, (1, 1, 1)),
                 FieldSpec(3, 2, (1, 0, 1)))


@st.composite
def module_cases(draw):
    """A ring over one of MODULE_FIELDS in 2-3 variables in either order, a
    rank 1-3, one to three generators and a dividend.  A generator is zero
    before a drawn position and has up to five terms of degree at most 2 at
    that position and at each later one.  The dividend has up to six terms
    of degree at most 4 at every position.  Coefficients are any nonzero
    field elements."""
    field = draw(st.sampled_from(MODULE_FIELDS))
    nvars = draw(st.integers(2, 3))
    ctx = RingContext(field, ("x", "y", "z")[:nvars],
                      draw(st.sampled_from(["lex", "grevlex"])))
    rank = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(0, field.p - 1), min_size=field.e,
                      max_size=field.e).filter(any).map(field.element)

    def vector(first, degree, size):
        monos = [m for m in product(range(degree + 1), repeat=nvars)
                 if sum(m) <= degree]
        terms = st.dictionaries(st.sampled_from(monos), coeffs,
                                max_size=size)
        return FreeVector(ctx, (
            Polynomial.zero(ctx) if j < first else Polynomial(ctx, draw(terms))
            for j in range(rank)))

    gens = [vector(draw(st.integers(0, rank - 1)), 2, 5)
            for _ in range(draw(st.integers(1, 3)))]
    return ctx, rank, [g for g in gens if g], vector(0, 4, 6)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(module_cases())
def test_division_matches_max_scan(case):
    _, _, gens, v = case
    gens = [g.monic() for g in gens]
    assert _reduce_vector(v, gens) == max_scan_reduce(v, gens)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(module_cases())
def test_buchberger_matches_all_pairs(case):
    ctx, rank, gens, _ = case
    assume(gens)
    with use_limits(Limits(spair=200)):
        try:
            expected = all_pairs_buchberger(gens, rank, ctx)
        except BudgetExceededError:
            assume(False)
        got = module_buchberger(gens, rank, ctx)
    assert ([format_vector(g) for g in got.generators]
            == [format_vector(g) for g in expected.generators])


# Katsura-4 over GF(32003), as the benchmark's ideal-groebner workload builds
# it before rescaling
KATSURA_4 = ["2*x4^2 + 2*x3^2 + 2*x2^2 + 2*x1^2 + 32002*x0 + x0^2",
             "2*x3*x4 + 2*x2*x3 + 32002*x1 + 2*x1*x2 + 2*x0*x1",
             "32002*x2 + 2*x2*x4 + 2*x1*x3 + x1^2 + 2*x0*x2",
             "32002*x3 + 2*x1*x4 + 2*x1*x2 + 2*x0*x3",
             "32002 + 2*x4 + 2*x3 + 2*x2 + 2*x1 + x0"]


def katsura_4_basis():
    ring = RingContext(FieldSpec(32003), tuple(f"x{i}" for i in range(5)))
    return ring, buchberger([parse_polynomial(ring, t) for t in KATSURA_4],
                            ring)


def basis_digest(gb) -> str:
    text = "\n".join(format_vector(g) for g in gb.generators)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_bases():
    """Two reduced bases, byte for byte: grevlex Katsura-4 and one rank-2
    module of relations over GF(2)[x,y]/(x^4,y^4)."""
    _, gb = katsura_4_basis()
    assert len(gb.generators) == 13
    assert basis_digest(gb) == ("1ea72285b0d7f83998852a03d60ea4cd"
                                "8bd9888b091e6f283686a94c7b28183d")
    r2 = RingContext(FieldSpec(2), ("x", "y"))
    q = QuotientContext.from_generators(
        r2, [parse_polynomial(r2, "x^4"), parse_polynomial(r2, "y^4")])
    gb = q.module_relations(2, [parse_vector(r2, 2, "[x*y, x^2 + y^3]"),
                                parse_vector(r2, 2, "[y^2 + x, x*y^2]")])
    assert [format_vector(g) for g in gb.generators] == [
        "[y^2 + x, x*y^2]", "[x*y, y^3 + x^2]", "[x^2, 0]", "[0, x^2*y]",
        "[0, y^4]", "[0, x*y^3 + x^3]", "[0, x^4]"]
    assert basis_digest(gb) == ("2ad9cecb95b9dd36a53bd09441ceb561"
                                "de0081b18586f06d200f49dcd957d3b0")


def test_division_never_writes_into_its_inputs():
    """Division copies the dividend and reads each divisor's cached int view
    without writing into it: dividing twice gives the same remainder, a
    basis element divided by its own basis gives zero, and no term dict or
    cached view of a divisor changes."""
    ring, gb = katsura_4_basis()
    r2 = RingContext(FieldSpec(2), ("x", "y"))
    module = module_buchberger([parse_vector(r2, 2, "[x*y, x^2 + y^3]"),
                                parse_vector(r2, 2, "[y^2 + x, x*y^2]"),
                                parse_vector(r2, 2, "[x^4, 0]"),
                                parse_vector(r2, 2, "[0, y^4]")], 2)
    cases = [(list(gb.generators), FreeVector(ring, (parse_polynomial(
                 ring, "x0^3*x1 + 5*x2^2*x4 + x3^4 + 7*x1*x2 + 11"),))),
             (list(module.generators),
              parse_vector(r2, 2, "[x^3*y^2 + y^5 + x, x^2*y^3 + x*y + 1]"))]
    for gens, v in cases:
        terms = [[dict(c.terms) for c in g.comps] for g in gens]
        v_terms = [dict(c.terms) for c in v.comps]
        first = _reduce_vector(v, gens)
        views = [tuple(dict(d) for d in g._ints) for g in gens]
        assert _reduce_vector(v, gens) == first
        assert first
        for g in gens:
            assert g._ints is not None
            assert not _reduce_vector(g, gens)
        assert [dict(c.terms) for c in v.comps] == v_terms
        assert [[dict(c.terms) for c in g.comps] for g in gens] == terms
        assert [tuple(dict(d) for d in g._ints) for g in gens] == views
        assert [g._ints for g in gens] == [_int_view(g) for g in gens]


def test_int_view_is_built_once_per_basis_element(monkeypatch):
    """During one buchberger call every basis element, the S-pair remainders
    and the elements of the interreduction alike, is converted to ints at
    most once, however many reductions it serves.  Views are counted by
    value, so a vector rebuilt with the same terms counts again."""
    built = Counter()

    def counting(v):
        built[v] += 1
        return _int_view(v)

    monkeypatch.setattr(polyring, "_int_view", counting)
    _, gb = katsura_4_basis()
    assert len(gb.generators) == 13
    assert len(built) > 13
    assert max(built.values()) == 1


def test_normal_form_is_idempotent(ring2):
    rng = random.Random(4)
    x = Polynomial.variable(ring2, "x")
    y = Polynomial.variable(ring2, "y")
    gb = buchberger([x ** 3 + y, y ** 2 + x * y])
    for _ in range(30):
        f = rand_poly(rng, ring2, 6)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r
        assert normal_form(f - r, gb).is_zero()


def test_module_gb_position_over_term(ring2):
    x = Polynomial.variable(ring2, "x")
    e0 = FreeVector.unit(ring2, 2, 0)
    v1 = FreeVector(ring2, (x, Polynomial.one(ring2)))
    gb = module_buchberger([v1, e0.scale(x ** 2)], 2)
    assert normal_form(v1.scale(x ** 2), gb).is_zero()
    assert not normal_form(e0, gb).is_zero()


def test_submodule_equal(ring2):
    x = Polynomial.variable(ring2, "x")
    y = Polynomial.variable(ring2, "y")
    a = buchberger([x, y])
    b = buchberger([x + y, y])
    c = buchberger([x])
    assert submodule_equal(a, b)
    assert not submodule_equal(a, c)


# ---------------------------------------------------------------------------
# quotients, saturation, regularity

def test_module_quotient_in_rank_two(ring2):
    # N = <(x, y), (0, x)>: x*(x, 0) = x*(x, y) - y*(0, x) and x*(0, 1) lie
    # in N, so (N : x) = <(x, 0), (0, 1)>, which contains N
    n = module_buchberger([parse_vector(ring2, 2, "[x, y]"),
                           parse_vector(ring2, 2, "[0, x]")], 2)
    q = module_quotient(n, parse_polynomial(ring2, "x"))
    assert [format_vector(v) for v in q.generators] == ["[x, 0]", "[0, 1]"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3]), st.data())
def test_module_quotient_properties(rank, p, data):
    ctx = RingContext(FieldSpec(p), ("x", "y"))
    monos = [m for m in product(range(3), repeat=2) if sum(m) <= 2]

    def poly(min_size):
        terms = data.draw(st.dictionaries(
            st.sampled_from(monos), st.integers(1, p - 1),
            min_size=min_size, max_size=3))
        return Polynomial(ctx, {m: ctx.field.from_int(c)
                                for m, c in terms.items()})

    def vectors():
        return [FreeVector(ctx, [poly(0) for _ in range(rank)])
                for _ in range(data.draw(st.integers(1, 2)))]

    h = poly(1)
    n = module_buchberger(vectors(), rank, ctx)
    q = module_quotient(n, h)
    assert all(normal_form(g, q).is_zero() for g in n.generators)
    assert all(normal_form(g.scale(h), n).is_zero() for g in q.generators)
    # P^rank has no torsion, so h*v in h*M only for v in M
    m = module_buchberger(vectors(), rank, ctx)
    hm = module_buchberger([g.scale(h) for g in m.generators], rank, ctx)
    assert submodule_equal(module_quotient(hm, h), m)


def contain_each_other(a, b) -> bool:
    """Double containment: every generator of each basis lies in the
    submodule of the other."""
    return (all(normal_form(g, b).is_zero() for g in a.generators)
            and all(normal_form(g, a).is_zero() for g in b.generators))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3]), st.data())
def test_submodule_equal_matches_double_containment(rank, p, data):
    ctx = RingContext(FieldSpec(p), ("x", "y"))
    monos = [m for m in product(range(3), repeat=2) if sum(m) <= 2]

    def poly(min_size):
        terms = data.draw(st.dictionaries(
            st.sampled_from(monos), st.integers(1, p - 1),
            min_size=min_size, max_size=3))
        return Polynomial(ctx, {m: ctx.field.from_int(c)
                                for m, c in terms.items()})

    gens = [FreeVector(ctx, [poly(0) for _ in range(rank)])
            for _ in range(data.draw(st.integers(1, 3)))]
    h = poly(1)
    n = module_buchberger(gens, rank, ctx)
    # the same submodule from more generators, a nearby one with a constant
    # added to one generator, and quotients and saturations of n
    more = gens + [gens[0].scale(poly(0)) + gens[-1]]
    bump = FreeVector.unit(ctx, rank, data.draw(st.integers(0, rank - 1)),
                           Polynomial.one(ctx))
    near = [gens[0] + bump] + gens[1:]
    sat = saturate(n, h)
    bases = [n, module_buchberger(more, rank, ctx),
             module_buchberger(near, rank, ctx), module_quotient(n, h), sat,
             module_quotient(sat, h)]
    for a in bases:
        for b in bases:
            assert submodule_equal(a, b) == contain_each_other(a, b)


def test_ideal_quotient_and_saturation(ring2):
    x = Polynomial.variable(ring2, "x")
    y = Polynomial.variable(ring2, "y")
    i = buchberger([x * y, y * y])
    q = module_quotient(i, y)
    # (xy, y^2) : y = (x, y)
    assert submodule_equal(q, buchberger([x, y]))
    # y^2 lies in the ideal, so every f has f*y^2 in I: saturation is (1)
    s = saturate(i, y)
    assert s.is_unit_ideal()
    # saturating (xy) by y recovers (x)
    s2 = saturate(buchberger([x * y]), y)
    assert submodule_equal(s2, buchberger([x]))


def test_regular_sequences(ring2):
    x = Polynomial.variable(ring2, "x")
    y = Polynomial.variable(ring2, "y")
    one = Polynomial.one(ring2)
    assert is_regular_sequence([x, y], ring2)
    assert is_regular_sequence([x, x + y], ring2)
    assert not is_regular_sequence([x, x], ring2)
    assert not is_regular_sequence([x * y, x], ring2)  # zero divisor mod xy
    assert not is_regular_sequence([one], ring2)       # unit ideal
    assert not is_regular_sequence([], ring2)


def test_quotient_context_and_staircase():
    ring = RingContext(FieldSpec(3), ("x",))
    x = Polynomial.variable(ring, "x")
    ctx = QuotientContext.from_generators(ring, [x ** 4])
    assert ctx.dimension() == 4
    assert ctx.nf(x ** 5).is_zero()  # x^4 divides x^5
    assert ctx.nf(x ** 3) == x ** 3
    assert ctx.contains(x ** 4 * (x + Polynomial.one(ring)))
    amb = QuotientContext.trivial(ring)
    assert amb.staircase() is None


def test_module_staircase(ring2):
    x = Polynomial.variable(ring2, "x")
    y = Polynomial.variable(ring2, "y")
    gb = module_buchberger(
        [FreeVector.unit(ring2, 2, j, f) for j in range(2) for f in (x ** 2, y)],
        2)
    st = module_staircase(gb, 2)
    assert st is not None and len(st) == 4  # {e_j, x e_j}
    # infinite quotient: no relation in position 1
    gb2 = module_buchberger([FreeVector.unit(ring2, 2, 0, x)], 2)
    assert module_staircase(gb2, 2) is None
