"""Built-in verification battery: seeded, deterministic property checks over
small instances of every layer (decomposition, semilinearity, twists, Koszul
pullbacks, nilpotence tiers, solution spaces, Hom dimensions).  Used by the
command line front end; the test suite runs larger versions of the same
properties.  The independent second routes the checks compare against (the
dual-basis twist, the dense nilpotence tier, the brute-force solver, the
decomposition volume operator and the unreduced Frobenius twists of a
relation and of a root) are defined here and nowhere in the library."""
from __future__ import annotations

import math
import random
from itertools import product

from . import linalg
from .cartier import (CartierModule, InfiniteDimensionalError,
                      NilpotenceVerdict, SemilinearEndo,
                      cartier_structure_violations, hom_commuting,
                      is_nilpotent, kappa_apply, nil_isomorphism_test,
                      semilinear_image_chain, volume_cartier_module)
from .field import FieldSpec
from .frobenius import cartier_volume, pth_root_decompose, residue_exponents
from .gamma import GammaSheaf, twist_to_cartier, twist_to_gamma
from .koszul import (ClosedImmersion, check_pullback_twist_commutes,
                     transition_factor)
from .polyring import (FreeVector, GuardExceededError, Polynomial,
                       QuotientContext, RingContext, current_limits,
                       module_staircase)
from .solutions import (RationalPoint, _check_fiber, artin_schreier_kernel,
                        enumerate_points, solutions_at_point)


def random_polynomial(rng: random.Random, ctx: RingContext, max_deg: int = 3,
                      max_terms: int = 4, nonzero: bool = False) -> Polynomial:
    acc = Polynomial.zero(ctx)
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ctx.nvars))
        c = rng.randrange(ctx.field.size)
        coeffs = []
        for _ in range(ctx.field.e):
            coeffs.append(c % ctx.field.p)
            c //= ctx.field.p
        acc = acc + Polynomial.monomial(ctx, mono, ctx.field.element(coeffs))
    if nonzero and acc.is_zero():
        return Polynomial.one(ctx)
    return acc


def random_gamma(rng: random.Random, ctx: QuotientContext, rank: int,
                 max_deg: int = 3) -> GammaSheaf:
    mat = [[random_polynomial(rng, ctx.ring, max_deg) for _ in range(rank)]
           for _ in range(rank)]
    return GammaSheaf.create(ctx, rank, mat)


def dual_basis_twist(n: GammaSheaf, seq=()) -> CartierModule:
    """Oracle for twist_to_cartier by the dual-basis route: the e_i component
    of kappa(x^a e_j) is the part at x^(p-1-a) of the decomposition of
    (f_1...f_c)^(p-1) A_ij over {x^b}.  The table is normalised by
    CartierModule.create, as the library route's is.  The sequence is not
    checked."""
    ring = n.ring
    p = ring.field.p
    factor = math.prod(seq, start=Polynomial.one(ring)) ** (p - 1)
    top = tuple(p - 1 for _ in range(ring.nvars))
    table = {}
    for j in range(n.rank):
        decomposed = [pth_root_decompose(factor * n.matrix[i][j])
                      for i in range(n.rank)]
        for a in residue_exponents(ring):
            slot = tuple(t - x for t, x in zip(top, a))
            table[(j, a)] = FreeVector(ring, (dec.part(slot)
                                              for dec in decomposed))
    return CartierModule.create(n.ctx, n.rank, n.relations.generators, table)


class InvalidStructureError(ValueError):
    """A kappa table is inconsistent with the module relations."""


def to_semilinear(m: CartierModule) -> SemilinearEndo:
    """Oracle tier of the nilpotence test: the matrix of kappa on the
    monomial staircase basis of P^s / relations.  Requires a finite
    staircase."""
    st = module_staircase(m.relations, m.rank)
    if st is None:
        raise InfiniteDimensionalError("quotient module is not a finite "
                                       "dimensional k-space")
    spec = m.ring.field
    index = {bm: t for t, bm in enumerate(st)}
    d = len(st)
    cols = []
    for (j, b) in st:
        image = kappa_apply(m, FreeVector.unit(m.ring, m.rank, j,
                                               Polynomial.monomial(m.ring, b)))
        col = [spec.zero()] * d
        for pos, comp in enumerate(image.comps):
            for mono, c in comp.terms.items():
                t = index.get((pos, mono))
                if t is None:
                    raise InvalidStructureError("normal form escaped the "
                                                "staircase")
                col[t] = col[t] + c
        cols.append(col)
    matrix = tuple(tuple(cols[t][r] for t in range(d)) for r in range(d))
    return SemilinearEndo(d, matrix, spec)


def semilinear_nilpotent(t: SemilinearEndo) -> NilpotenceVerdict:
    """Dense nilpotence of T on k^d: nilpotent iff its image chain ends in
    zero, with index the number of strict descents to get there."""
    chain = semilinear_image_chain(t)
    if chain[-1]:
        return NilpotenceVerdict.not_nilpotent()
    return NilpotenceVerdict.nilpotent(len(chain) - 1)


def brute_force_solutions(root: GammaSheaf, pt: RationalPoint) -> list[tuple]:
    """Oracle for solutions_at_point: try every w in (point field)^s against
    the defining equation."""
    spec = pt.spec
    s = root.rank
    p = spec.p
    if spec.size ** s > current_limits().guard:
        raise GuardExceededError("solution enumeration exceeds the guard")
    a_at = _check_fiber(root, pt)
    out = []
    for w in product(list(spec.elements()), repeat=s):
        ok = True
        for j in range(s):
            rhs = spec.zero()
            for i in range(s):
                if a_at[i][j]:
                    rhs = rhs + a_at[i][j] * w[i] ** p
            if w[j] != rhs:
                ok = False
                break
        if ok:
            out.append(w)
    return out


def cartier_volume_by_decomposition(f: Polynomial) -> Polynomial:
    """Oracle for cartier_volume through the full decomposition: the
    (p-1,...,p-1) part."""
    p = f.ctx.field.p
    top = (p - 1,) * f.ctx.nvars
    return pth_root_decompose(f).part(top)


def frobenius_twist_vector(v: FreeVector, e: int = 1) -> FreeVector:
    """Oracle for the relation levels of gamma.twisted_relations: the
    [p^e]-twist of v over P, each component raised to the p^e-th power by e
    twists and never reduced mod I."""
    comps = v.comps
    for _ in range(e):
        comps = [c.frobenius_twist() for c in comps]
    return FreeVector(v.ctx, comps)


def frobenius_twist_root(n: GammaSheaf) -> GammaSheaf:
    """(F*N, F*gamma): twist the relations and the matrix entrywise by [p]."""
    rels = [frobenius_twist_vector(g) for g in n.relations.generators]
    mat = [[x.frobenius_twist() for x in row] for row in n.matrix]
    return GammaSheaf.create(n.ctx, n.rank, mat, rels)


def _ambient(p: int, vars=("x",), e: int = 1, modulus=()) -> QuotientContext:
    return QuotientContext.trivial(RingContext(FieldSpec(p, e, modulus), vars))


# ---------------------------------------------------------------------------
# individual checks

def check_volume_agreement(rng: random.Random, quick: bool):
    cases = [(2, 2, 8), (3, 1, 27)] if quick else [(2, 2, 8), (3, 1, 27),
                                                   (3, 2, 9), (5, 1, 25)]
    for p, n, bound in cases:
        ctx = RingContext(FieldSpec(p), tuple(f"x{i}" for i in range(n)))
        for exps in product(range(bound), repeat=n):
            f = Polynomial.monomial(ctx, exps, rng.randrange(1, p))
            if cartier_volume(f) != cartier_volume_by_decomposition(f):
                return False, f"disagreement at p={p}, exponents={exps}"
    return True, f"{len(cases)} grids checked"


def check_semilinearity(rng: random.Random, quick: bool):
    count = 5 if quick else 20
    for p in (2, 3):
        ctx = _ambient(p, ("x", "y"))
        for _ in range(count):
            n = random_gamma(rng, ctx, rng.choice((1, 2)), max_deg=2)
            m = twist_to_cartier(n)
            h = random_polynomial(rng, ctx.ring, 2, 3, nonzero=True)
            v = FreeVector(ctx.ring, (random_polynomial(rng, ctx.ring, 3, 3)
                                      for _ in range(m.rank)))
            lhs = kappa_apply(m, v.scale(h ** p))
            rhs = kappa_apply(m, v).scale(h)
            if m.nf(lhs - rhs):
                return False, f"semilinearity failed at p={p}"
    return True, f"{2 * count} instances"


def check_twist_round_trip(rng: random.Random, quick: bool):
    count = 4 if quick else 12
    for p in (2, 3):
        ctx = _ambient(p, ("x", "y"))
        anchor = volume_cartier_module(ctx.ring)
        back = twist_to_gamma(anchor)
        if back.matrix[0][0] != Polynomial.one(ctx.ring):
            return False, "volume anchor does not return the unit matrix"
        for _ in range(count):
            rank = rng.choice((1, 2))
            n = random_gamma(rng, ctx, rank, max_deg=3)
            m = twist_to_cartier(n)
            n2 = twist_to_gamma(m)
            if n2.matrix != n.matrix:
                return False, f"matrix round trip failed at p={p}"
            m2 = twist_to_cartier(n2)
            if m2.kappa_table != m.kappa_table:
                return False, f"table round trip failed at p={p}"
    return True, f"{2 * count} round trips plus the volume anchor"


def check_dual_vs_projection(rng: random.Random, quick: bool):
    count = 4 if quick else 10
    for p in (2, 3):
        for ideal_pow in (0, 2):
            ring = RingContext(FieldSpec(p), ("x",))
            x = Polynomial.variable(ring, "x")
            im = (ClosedImmersion.create(ring, [x ** ideal_pow])
                  if ideal_pow else None)
            ctx = im.target if im else QuotientContext.trivial(ring)
            for _ in range(count):
                n = random_gamma(rng, ctx, rng.choice((1, 2)), max_deg=2)
                a = twist_to_cartier(n, im)
                b = dual_basis_twist(n, im.seq if im else ())
                if a.kappa_table != b.kappa_table:
                    return False, f"routes disagree at p={p}"
    return True, f"{4 * count} table comparisons"


def check_koszul_commutation(rng: random.Random, quick: bool):
    count = 2 if quick else 6
    for p in (2, 3):
        ctx = _ambient(p, ("x", "y"))
        x = Polynomial.variable(ctx.ring, "x")
        y = Polynomial.variable(ctx.ring, "y")
        tr = transition_factor(ClosedImmersion.create(ctx.ring, [x, y]),
                               [y, x])
        if tr.det != Polynomial.constant(ctx.ring, -1):
            return False, f"swap determinant wrong at p={p}"
        for seq in ([x], [y], [x, y]):
            im = ClosedImmersion.create(ctx.ring, seq)
            for _ in range(count):
                n = random_gamma(rng, ctx, rng.choice((1, 2)), max_deg=2)
                cert = check_pullback_twist_commutes(n, im)
                if not cert.equal:
                    return False, (f"square does not commute at p={p}, "
                                   f"codim {len(seq)}")
    return True, f"{2 * 3 * count} squares plus 2 determinants"


def check_nilpotence_tiers(rng: random.Random, quick: bool):
    count = 4 if quick else 12
    for p in (2, 3):
        ring = RingContext(FieldSpec(p), ("x",))
        x = Polynomial.variable(ring, "x")
        for k in (1, 2):
            im = ClosedImmersion.create(ring, [x ** k])
            for _ in range(count):
                n = random_gamma(rng, im.target, rng.choice((1, 2)),
                                 max_deg=k - 1)
                m = twist_to_cartier(n, im)
                if cartier_structure_violations(m):
                    return False, "pullback failed validation"
                chain = is_nilpotent(m)
                dense = semilinear_nilpotent(to_semilinear(m))
                if chain.is_nilpotent != dense.is_nilpotent:
                    return False, f"tier disagreement at p={p}, k={k}"
    return True, f"{4 * count} instances"


def check_artin_schreier(rng: random.Random, quick: bool):
    qs = [2, 4, 3, 9] if quick else [2, 4, 8, 16, 3, 9, 27, 5, 25]
    for q in qs:
        if artin_schreier_kernel(q) != 1:
            return False, f"kernel dimension wrong at q={q}"
    fields = [(2, 1), (2, 2), (3, 1)] if quick else [(2, 1), (2, 2), (2, 3),
                                                     (3, 1), (3, 2), (5, 1)]
    for p, m in fields:
        ctx = _ambient(p)
        one = GammaSheaf.create(ctx, 1, [[Polynomial.one(ctx.ring)]])
        for pt in enumerate_points(ctx, m):
            space = solutions_at_point(one, pt)
            if space.dimension != 1:
                return False, f"constant-sheaf stalk wrong at p={p}, m={m}"
        for _ in range(2 if quick else 4):
            s = rng.choice((1, 2))
            root = random_gamma(rng, ctx, s, max_deg=1)
            pts = enumerate_points(ctx, m)
            pt = pts[rng.randrange(len(pts))]
            linear = solutions_at_point(root, pt)
            brute = brute_force_solutions(root, pt)
            if len(brute) != pt.spec.p ** linear.dimension:
                return False, f"solver vs enumeration mismatch at p={p}"
    return True, f"{len(qs)} kernels, {len(fields)} field layers"


def check_hom_dimensions(rng: random.Random, quick: bool):
    del rng, quick
    f2 = FieldSpec(2)
    one = SemilinearEndo(1, ((f2.one(),),), f2)
    if len(hom_commuting(one, one)) != 1:
        return False, "rank-1 Hom dimension is not 1"
    ident = SemilinearEndo(2, ((f2.one(), f2.zero()),
                               (f2.zero(), f2.one())), f2)
    if len(hom_commuting(ident, ident)) != 4:
        return False, "rank-2 identity Hom dimension is not 4"
    # neither anchor is nilpotent, so the identity is a nil-isomorphism and
    # the zero map is not (its kernel carries the anchor's operator)
    for endo in (one, ident):
        if not nil_isomorphism_test(linalg.identity(f2, endo.dim), endo, endo):
            return False, f"rank-{endo.dim} identity is no nil-isomorphism"
        if nil_isomorphism_test(linalg.zeros(f2, endo.dim, endo.dim), endo,
                                endo):
            return False, f"rank-{endo.dim} zero map is a nil-isomorphism"
    return True, "dimensions 1 and 4 confirmed"


_CHECKS = [
    ("volume-agreement", check_volume_agreement),
    ("semilinearity", check_semilinearity),
    ("twist-round-trip", check_twist_round_trip),
    ("dual-vs-projection", check_dual_vs_projection),
    ("koszul-commutation", check_koszul_commutation),
    ("nilpotence-tiers", check_nilpotence_tiers),
    ("artin-schreier", check_artin_schreier),
    ("hom-dimensions", check_hom_dimensions),
]

_QUICK_SUBSET = {"volume-agreement", "twist-round-trip", "artin-schreier",
                 "hom-dimensions"}


def run_verify(seed: int = 0, quick: bool = False) -> list[dict]:
    results = []
    for name, fn in _CHECKS:
        if quick and name not in _QUICK_SUBSET:
            continue
        rng = random.Random((seed, name).__repr__())
        try:
            ok, detail = fn(rng, quick)
        except Exception as exc:
            ok, detail = False, f"exception: {exc}"
        results.append({"name": name, "ok": ok, "detail": detail})
    return results
