"""Gamma-sheaves: modules N = P^s/relations over R = P/I with a linear
structural map gamma: N -> F*N recorded as an s x s matrix A of polynomials
(gamma(e_j) = sum_i A_ij tensor e_i).  Provides iteration and nilpotence of
gamma, the dualizing twist to and from Cartier modules, and the stable
dimension of the unit module generated by a root.
"""
from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Optional

from .cartier import (CartierModule, InfiniteDimensionalError,
                      NilpotenceVerdict)
from .field import power
from .frobenius import cartier_volume, residue_exponents
from .polyring import (BudgetExceededError, FreeVector, GroebnerBasis,
                       Polynomial, QuotientContext, RankMismatchError,
                       RingContext, current_limits, module_buchberger,
                       module_staircase, normal_form)

if TYPE_CHECKING:  # koszul imports this module
    from .koszul import ClosedImmersion


class GammaSheaf:
    """The data (N, gamma) with N = P^s/relations (relations contain I e_j)
    and gamma given by the matrix A with entries in normal form mod I."""

    __slots__ = ("ctx", "rank", "relations", "matrix")

    def __init__(self, ctx: QuotientContext, rank: int,
                 relations: GroebnerBasis, matrix: tuple):
        self.ctx = ctx
        self.rank = rank
        self.relations = relations
        self.matrix = matrix

    @classmethod
    def create(cls, ctx: QuotientContext, rank: int, matrix,
               relation_vectors=()) -> "GammaSheaf":
        if len(matrix) != rank or any(len(row) != rank for row in matrix):
            raise RankMismatchError(f"matrix must be {rank}x{rank}")
        relations = ctx.module_relations(rank, relation_vectors)
        mat = tuple(tuple(ctx.nf(entry) for entry in row) for row in matrix)
        return cls(ctx, rank, relations, mat)

    @property
    def ring(self) -> RingContext:
        return self.ctx.ring


def _frobenius(ctx: QuotientContext, f: Polynomial) -> Polynomial:
    """f^p in normal form mod I, the one action of F on R = P/I: the twist
    over P, and over P/I square-and-multiply reducing every product mod I,
    so that no power of degree p is divided by I (Katzman, Schwede 2012)."""
    if ctx.is_ambient:
        return f.frobenius_twist()
    return power(f, ctx.ring.field.p, Polynomial.one(ctx.ring),
                 lambda g, h: ctx.nf(g * h))


def _relation_levels(n: GammaSheaf):
    """The nonzero normal forms mod I of the relations' [p^e]-twists, for
    e = 0, 1, ... each the Frobenius of the one before; with I e_j they
    present F^e*N.  Level 0 is empty exactly when N = R^s."""
    level = [FreeVector(n.ring, (n.ctx.nf(c) for c in g.comps))
             for g in n.relations.generators]
    while True:
        level = [v for v in level if v]
        yield level
        level = [FreeVector(n.ring, (_frobenius(n.ctx, c) for c in v.comps))
                 for v in level]


def twisted_relations(n: GammaSheaf, level: int) -> GroebnerBasis:
    """Presentation of the level-fold Frobenius pullback F^(level)*N: the
    relations' level from _relation_levels together with I e_j."""
    return n.ctx.module_relations(
        n.rank, next(islice(_relation_levels(n), level, None)))


def gamma_structure_violations(n: GammaSheaf) -> list[int]:
    """Well-definedness of gamma on the presentation: for every relation
    rho the image vector (A rho)_i = sum_j A_ij rho_j must lie in the twisted
    relation module of F*N.  Returns the positions of the relation generators
    for which it does not; gamma is well defined when the list is empty."""
    tw = twisted_relations(n, 1)
    violations = []
    for gi, rho in enumerate(n.relations.generators):
        comps = []
        for i in range(n.rank):
            acc = Polynomial.zero(n.ring)
            for j in range(n.rank):
                acc = acc + n.matrix[i][j] * rho.comps[j]
            comps.append(acc)
        image = FreeVector(n.ring, comps)
        if not normal_form(image, tw).is_zero():
            violations.append(gi)
    return violations


def _iterates(n: GammaSheaf):
    """The composite matrices at levels 1, 2, ...: the one at level e + 1 is
    the Frobenius of the one at level e times A, reduced mod I."""
    mat = n.matrix
    while True:
        yield mat
        tw = [[_frobenius(n.ctx, x) for x in row] for row in mat]
        mat = tuple(tuple(n.ctx.nf(sum((tw[i][t] * n.matrix[t][j]
                                        for t in range(n.rank)),
                                       Polynomial.zero(n.ring)))
                          for j in range(n.rank)) for i in range(n.rank))


def gamma_iterate(n: GammaSheaf, e: int) -> tuple:
    """The matrix of F^(e-1)*gamma o ... o F*gamma o gamma, read from
    _iterates.  The library does not call it; it stays because
    perfbench/tracing.py times it and the tests check the chain against it."""
    if e < 1:
        raise ValueError("level must be >= 1")
    return next(islice(_iterates(n), e - 1, None))


def _columns(n: GammaSheaf, mat: tuple) -> list:
    return [FreeVector(n.ring, (mat[i][j] for i in range(n.rank)))
            for j in range(n.rank)]


def _image_dimension(n: GammaSheaf, rels: GroebnerBasis, mat: tuple) -> int:
    """k-dimension of the image of the composite in F^e*N = P^s/rels:
    dim(P^s/rels) - dim(P^s/(columns + rels))."""
    amb = module_staircase(rels, n.rank)
    if amb is None:
        raise InfiniteDimensionalError("twisted relations are not "
                                       "finite dimensional")
    joint = module_buchberger(list(rels.generators) + _columns(n, mat),
                              n.rank, n.ring)
    return len(amb) - len(module_staircase(joint, n.rank))


def _kernel_chain(n: GammaSheaf) -> Optional[list]:
    """(level, composite, image dimension) for e = 1, 2, ... over a
    finite-dimensional N, up to the stopping rule and the limit of
    gen_stable_dimension; None when N is infinite dimensional."""
    if (staircase := module_staircase(n.relations, n.rank)) is None:
        return None
    d = len(staircase)
    relations = _relation_levels(n)
    stop_on_repeat = not next(relations) or n.ctx.is_ambient  # pops level 0
    levels = max(1, d) + 1
    limit = current_limits().chain
    chain = []
    for level, mat, rels in zip(range(1, levels + 1), _iterates(n),
                                relations):
        r = _image_dimension(n, n.ctx.module_relations(n.rank, rels), mat)
        chain.append((level, mat, r))
        if r == 0 or (stop_on_repeat and level > 1 and r == chain[-2][2]):
            break
        if level >= limit and level < levels:
            raise BudgetExceededError(
                f"kernel chain did not stop in {limit} levels; the last "
                f"image dimension was {r} of dim N = {d}")
    return chain


def gamma_is_nilpotent(n: GammaSheaf, e_max: int = 16) -> NilpotenceVerdict:
    """Smallest e with the e-fold composite vanishing into F^e*N.  When N is
    a finite-dimensional k-space ``e_max`` is not used: the index is the
    level of the first image dimension 0 under the stopping rule of
    gen_stable_dimension (over P, and for free N, a repeated value means
    equal kernels from then on, hence not nilpotent; see there for why).
    When N is infinite dimensional the search runs over e = 1, ..., e_max."""
    if (chain := _kernel_chain(n)) is not None:
        level, _, r = chain[-1]
        return (NilpotenceVerdict.nilpotent(level) if r == 0
                else NilpotenceVerdict.not_nilpotent())
    for level, mat, rels in zip(range(1, e_max + 1), _iterates(n),
                                islice(_relation_levels(n), 1, None)):
        tw = n.ctx.module_relations(n.rank, rels)
        if all(normal_form(col, tw).is_zero() for col in _columns(n, mat)):
            return NilpotenceVerdict.nilpotent(level)
    return NilpotenceVerdict.not_nilpotent_up_to(e_max)


# ---------------------------------------------------------------------------
# the dualizing twist

def twist_to_cartier(n: GammaSheaf,
                     im: Optional[ClosedImmersion] = None) -> CartierModule:
    """The Cartier structure on N tensor omega.  Over the ambient ring (``im``
    None) the table is kappa(x^a e_j) = sum_i cartier_volume(A_ij x^a) e_i;
    over a quotient the immersion ``im`` presenting it supplies the Koszul
    dualizing factor (f_1...f_c)^(p-1), which multiplies in."""
    ring = n.ring
    ideal = im.target.ideal_gb if im else GroebnerBasis(ring, 1, ())
    # reduced bases are unique, so this one comparison refuses a quotient
    # without an immersion, an immersion over P and one of another ideal
    if ideal != n.ctx.ideal_gb:
        raise ValueError("sequence does not generate the quotient ideal")
    factor = im.dualizing_factor() if im else Polynomial.one(ring)
    table: dict = {}
    for j in range(n.rank):
        scaled = [factor * n.matrix[i][j] for i in range(n.rank)]
        for a in residue_exponents(ring):
            xa = Polynomial.monomial(ring, a)
            v = FreeVector(ring, (cartier_volume(g * xa) for g in scaled))
            if v:
                table[(j, a)] = v
    return CartierModule.create(n.ctx, n.rank, n.relations.generators, table)


def twist_to_gamma(m: CartierModule) -> GammaSheaf:
    """Inverse twist over the ambient ring: the unique matrix A with
    kappa(f e_j tensor dx) = sum_i cartier_volume(A_ij f) e_i, recovered from
    the table as A_ij = sum_a (c_ij^(a))^[p] x^(p-1-a) with c the e_i
    component of kappa(x^a e_j)."""
    if not m.ctx.is_ambient:
        raise ValueError("inverse twist is only defined over the ambient "
                         "polynomial ring")
    ring = m.ring
    p = ring.field.p
    top = tuple(p - 1 for _ in range(ring.nvars))
    one = ring.field.one()
    rows = [[Polynomial.zero(ring) for _ in range(m.rank)]
            for _ in range(m.rank)]
    for (j, a), v in m.kappa_table.items():
        shift = tuple(t - x for t, x in zip(top, a))
        for i, comp in enumerate(v.comps):
            if comp:
                rows[i][j] = rows[i][j] + comp.frobenius_twist().term_mul(
                    shift, one)
    return GammaSheaf.create(m.ctx, m.rank, rows, m.relations.generators)


def gen_stable_dimension(n: GammaSheaf) -> int:
    """k-dimension of the unit module generated by the root: the eventual
    dimension r_e of the image of the e-fold composite N -> F^e*N, read for
    e = 1, 2, ... up to the first 0 or, at the latest, e = d + 1
    (d = dim N).  The kernels K_e grow with e.  Over P Frobenius is flat
    (Kunz 1969), so K_(e+1) = gamma^-1(F*K_e), and two equal consecutive
    values mean equal kernels from then on: there the first repeated value
    is returned.  Over a quotient P/I the repeat rule is used only for free
    N (relations I e_j); where P/I is not regular, Frobenius is not flat and
    the rule is observed there but unproven.  Other N over a quotient run on
    to e = d + 1, which can still be too early where P/I is not regular.
    Raises BudgetExceededError after ``current_limits().chain`` levels that
    have not reached one of these stops."""
    if (chain := _kernel_chain(n)) is None:
        raise InfiniteDimensionalError("gen dimension needs a finite "
                                       "dimensional context")
    return chain[-1][2]
