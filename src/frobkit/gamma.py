"""Gamma-sheaves: modules N = P^s/relations over R = P/I with a linear
structural map gamma: N -> F*N recorded as an s x s matrix A of polynomials
(gamma(e_j) = sum_i A_ij tensor e_i).  Provides iteration and nilpotence of
gamma, the dualizing twist to and from Cartier modules, and the stable
dimension of the unit module generated by a root.
"""
from __future__ import annotations

from itertools import count, islice
from typing import TYPE_CHECKING, Optional

from .cartier import (CartierModule, InfiniteDimensionalError,
                      NilpotenceVerdict)
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


def _twist_vector(v: FreeVector, k: int) -> FreeVector:
    return FreeVector(v.ctx, (c.frobenius_twist(k) for c in v.comps))


def twisted_relations(n: GammaSheaf, level: int) -> GroebnerBasis:
    """Presentation of the level-fold Frobenius pullback F^(level)*N: the
    [p^level]-twists of the relations together with I e_j.  A member of
    I P^s twists into I P^s, so only the relations' normal forms mod I that
    are not zero are twisted."""
    return n.ctx.module_relations(
        n.rank, (_twist_vector(v, level) for v in _reduced_relations(n)))


def _reduced_relations(n: GammaSheaf) -> list[FreeVector]:
    """The normal forms mod I of the relation generators that are not zero:
    none exactly when the relations are I P^s, that is when N = R^s."""
    reduced = (FreeVector(n.ring, (n.ctx.nf(c) for c in g.comps))
               for g in n.relations.generators)
    return [v for v in reduced if v]


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
    A^[p^e] times the one at level e, reduced mod I."""
    mat = n.matrix
    for level in count(1):
        yield mat
        tw = tuple(tuple(x.frobenius_twist(level) for x in row)
                   for row in n.matrix)
        nxt = []
        for i in range(n.rank):
            row = []
            for j in range(n.rank):
                acc = Polynomial.zero(n.ring)
                for t in range(n.rank):
                    acc = acc + tw[i][t] * mat[t][j]
                row.append(n.ctx.nf(acc))
            nxt.append(tuple(row))
        mat = tuple(nxt)


def gamma_iterate(n: GammaSheaf, e: int) -> tuple:
    """The matrix of F^(e-1)*gamma o ... o F*gamma o gamma alone.  The
    library reads the composites from _iterates as it goes; this entry point
    stays because perfbench/tracing.py times it as ``gamma.iterate`` and
    tests/test_kernel_chain.py checks the chain against it."""
    if e < 1:
        raise ValueError("level must be >= 1")
    return next(islice(_iterates(n), e - 1, None))


def _columns(n: GammaSheaf, mat: tuple) -> list:
    return [FreeVector(n.ring, (mat[i][j] for i in range(n.rank)))
            for j in range(n.rank)]


def _image_dimension(n: GammaSheaf, level: int, mat: tuple) -> int:
    """k-dimension of the image of the composite in F^e*N:
    dim(P^s/rels_e) - dim(P^s/(columns + rels_e))."""
    rels = twisted_relations(n, level)
    amb = module_staircase(rels, n.rank)
    if amb is None:
        raise InfiniteDimensionalError("twisted relations are not "
                                       "finite dimensional")
    joint = module_buchberger(list(rels.generators) + _columns(n, mat),
                              n.rank, n.ring)
    return len(amb) - len(module_staircase(joint, n.rank))


def _kernel_chain(n: GammaSheaf) -> list:
    """(level, composite, image dimension) for e = 1, 2, ... over a
    finite-dimensional N, up to the stopping rule and the limit of
    gen_stable_dimension."""
    d = len(module_staircase(n.relations, n.rank))
    stop_on_repeat = n.ctx.is_ambient or not _reduced_relations(n)
    levels = max(1, d) + 1
    limit = current_limits().chain
    chain = []
    for level, mat in enumerate(islice(_iterates(n), levels), 1):
        r = _image_dimension(n, level, mat)
        chain.append((level, mat, r))
        if r == 0 or (stop_on_repeat and level > 1 and r == chain[-2][2]):
            break
        if level >= limit and level < levels:
            raise BudgetExceededError(
                f"kernel chain did not stop in {limit} levels; the last "
                f"image dimension was {r} of dim N = {d}")
    return chain


def _columns_vanish(n: GammaSheaf, level: int, mat: tuple) -> bool:
    tw = twisted_relations(n, level)
    return all(normal_form(col, tw).is_zero() for col in _columns(n, mat))


def gamma_is_nilpotent(n: GammaSheaf, e_max: int = 16) -> NilpotenceVerdict:
    """Smallest e with the e-fold composite vanishing into F^e*N.  When N is
    a finite-dimensional k-space ``e_max`` is not used: the index is the
    level of the first image dimension 0 under the stopping rule of
    gen_stable_dimension (over P, and for free N, a repeated value means
    equal kernels from then on, hence not nilpotent; see there for why).
    When N is infinite dimensional the search runs over e = 1, ..., e_max."""
    if module_staircase(n.relations, n.rank) is not None:
        level, _, r = _kernel_chain(n)[-1]
        return (NilpotenceVerdict.nilpotent(level) if r == 0
                else NilpotenceVerdict.not_nilpotent())
    for level, mat in enumerate(islice(_iterates(n), e_max), 1):
        if _columns_vanish(n, level, mat):
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
    if module_staircase(n.relations, n.rank) is None:
        raise InfiniteDimensionalError("gen dimension needs a finite "
                                       "dimensional context")
    return _kernel_chain(n)[-1][2]
