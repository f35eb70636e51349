"""Gamma-sheaves: modules N = P^s/relations over R = P/I with a linear
structural map gamma: N -> F*N recorded as an s x s matrix A of polynomials
(gamma(e_j) = sum_i A_ij tensor e_i).  Provides iteration and nilpotence of
gamma, the dualizing twist to and from Cartier modules, and the stable
dimension of the unit module generated by a root.
"""
from __future__ import annotations

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
    and gamma given by the matrix A with entries in normal form mod I.

    It keeps its walk over the levels F^e*N (_walk), extended only when a
    reader needs more: 1. every read replays the stopping rule and the chain
    limit from e = 1; 2. the walk is kept for the Limits it was computed
    under and started afresh under others, so each answer is a function of
    the object and the limits; 3. a level is stored only once complete, so
    a limit spent within one leaves it to be built again, to the same error;
    4. relations all zero present R^s: by I e_j, built at most once per
    walk, or by N's own relations when N is free."""

    __slots__ = ("ctx", "rank", "relations", "matrix", "_walk")

    def __init__(self, ctx: QuotientContext, rank: int,
                 relations: GroebnerBasis, matrix: tuple):
        self.ctx = ctx
        self.rank = rank
        self.relations = relations
        self.matrix = matrix
        self._walk = None

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


def _walk(n: GammaSheaf) -> tuple[list, list]:
    """The levels kept on n for the limits in force, or level 0 alone if
    kept for others.  Level e is (the nonzero normal forms mod I of the
    relations' [p^e]-twists, the e-fold composite, F^e*N presented by these
    and I e_j); level 0 is empty exactly when N = R^s.  dims[e] is the
    e-fold composite's image dimension, dims[0] = dim N (_kernel_chain)."""
    limits = current_limits()
    if n._walk is None or n._walk[0] != limits:
        rels = [FreeVector(n.ring, (n.ctx.nf(c) for c in g.comps))
                for g in n.relations.generators]
        n._walk = (limits, [([v for v in rels if v], None, n.relations)], [])
    return n._walk[1], n._walk[2]


def _level(n: GammaSheaf, e: int) -> tuple:
    """Level e, each missing level built by one Frobenius step from the one
    before: its relations' step, and the composite (level e)^[p] A mod I.
    Relations all zero after a level with none keep its presentation."""
    levels = _walk(n)[0]
    while len(levels) <= e:
        rels, mat, tw = levels[-1]
        step = [FreeVector(n.ring, (_frobenius(n.ctx, c) for c in v.comps))
                for v in rels]
        if mat is None:
            mat = n.matrix
        else:
            fm = [[_frobenius(n.ctx, x) for x in row] for row in mat]
            mat = tuple(tuple(n.ctx.nf(sum((fm[i][t] * n.matrix[t][j]
                                            for t in range(n.rank)),
                                           Polynomial.zero(n.ring)))
                              for j in range(n.rank)) for i in range(n.rank))
        levels.append(([v for v in step if v], mat,
                       n.ctx.module_relations(n.rank, step) if rels else tw))
    return levels[e]


def twisted_relations(n: GammaSheaf, level: int) -> GroebnerBasis:
    """Presentation of the Frobenius pullback F^(level)*N, from the walk."""
    return _level(n, level)[2]


def gamma_structure_violations(n: GammaSheaf) -> list[int]:
    """Well-definedness of gamma on the presentation: for every relation
    rho the image vector (A rho)_i = sum_j A_ij rho_j must lie in the twisted
    relation module of F*N.  Returns the positions of the relation generators
    for which it does not; gamma is well defined when the list is empty."""
    tw = twisted_relations(n, 1)
    violations = []
    for gi, rho in enumerate(n.relations.generators):
        image = FreeVector(n.ring, (sum((n.matrix[i][j] * rho.comps[j]
                                         for j in range(n.rank)),
                                        Polynomial.zero(n.ring))
                                    for i in range(n.rank)))
        if not normal_form(image, tw).is_zero():
            violations.append(gi)
    return violations


def gamma_iterate(n: GammaSheaf, e: int) -> tuple:
    """The matrix of F^(e-1)*gamma o ... o F*gamma o gamma, read from the
    walk.  The library does not call it; it stays because
    perfbench/tracing.py times it and the tests check the chain against it."""
    if e < 1:
        raise ValueError("level must be >= 1")
    return _level(n, e)[1]


def _kernel_chain(n: GammaSheaf,
                  e_max: Optional[int] = None) -> Optional[list]:
    """The one walk over the levels: (level, composite, image dimension r)
    for e = 1, 2, ...  Each level first reduces the composite's columns
    modulo F^e*N, and r = 0 when all vanish; only a nonzero image of a
    finite-dimensional N lists staircases (F^e*N has the support of N, so
    it is finite too).  Over a finite-dimensional N the walk obeys the
    stopping rule and the limit of gen_stable_dimension and ignores
    ``e_max``.  Over an infinite-dimensional N a nonzero image records None
    and the walk runs to e_max, or is None without one.  Stored levels are
    read from e = 1 under the rule and the limit in force (rules 1-4 of
    GammaSheaf): the same chain, or error, as a fresh walk gives."""
    levels, dims = _walk(n)
    if not dims:
        staircase = module_staircase(n.relations, n.rank)
        dims.append(None if staircase is None else len(staircase))
    d = dims[0]
    if d is None and e_max is None:
        return None
    top, limit = ((e_max, e_max) if d is None
                  else (max(1, d) + 1, current_limits().chain))
    stop_on_repeat = not levels[0][0] or n.ctx.is_ambient
    chain = []
    for level in range(1, top + 1):
        _, mat, tw = _level(n, level)
        if level == len(dims):
            cols = [FreeVector(n.ring, (mat[i][j] for i in range(n.rank)))
                    for j in range(n.rank)]
            r = None if any(normal_form(c, tw) for c in cols) else 0
            if r is None and d is not None:
                joint = module_buchberger(list(tw.generators) + cols, n.rank,
                                          n.ring)
                r = ((d if tw is n.relations
                      else len(module_staircase(tw, n.rank)))
                     - len(module_staircase(joint, n.rank)))
            dims.append(r)
        r = dims[level]
        chain.append((level, mat, r))
        if r == 0 or (stop_on_repeat and r and level > 1
                      and r == chain[-2][2]):
            break
        if limit <= level < top:
            raise BudgetExceededError(
                f"kernel chain did not stop in {limit} levels; the last "
                f"image dimension was {r} of dim N = {d}")
    return chain


def gamma_is_nilpotent(n: GammaSheaf, e_max: int = 16) -> NilpotenceVerdict:
    """Smallest e with the e-fold composite vanishing into F^e*N, read from
    the last level of _kernel_chain.  When N is a finite-dimensional k-space
    ``e_max`` is not used: the index is the level of the first image
    dimension 0 under the stopping rule of gen_stable_dimension (over P, and
    for free N, a repeated value means equal kernels from then on, hence not
    nilpotent; see there for why).  When N is infinite dimensional the
    search runs over e = 1, ..., e_max."""
    chain = _kernel_chain(n, e_max)
    r = chain[-1][2] if chain else None
    if r == 0:
        return NilpotenceVerdict.nilpotent(chain[-1][0])
    return (NilpotenceVerdict.not_nilpotent() if r
            else NilpotenceVerdict.not_nilpotent_up_to(e_max))


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
