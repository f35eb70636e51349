"""Cartier modules over R = P/I: a module presented by relations inside a free
module P^s together with a p^(-1)-linear operator kappa given by its value
table on the F_* generators {x^a e_j}.  Provides application and iteration of
kappa, the descending image chain and its stable limit, nilpotence and
crystal-level tests (support on V(J) through the saturation of the
relations), and a finite-dimensional tier of p^(-1)-linear operators on k^d:
their image chain, the maps that commute with two of them, and the
nil-isomorphism test.  The image chain starts at M, whose preimage in P^s
is all of P^s with the unit vectors as reduced basis, so that level needs no
Groebner basis computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .field import FieldElement, FieldSpec, frobenius_root
from .frobenius import pth_root_decompose, residue_exponents
from .polyring import (BudgetExceededError, FreeVector, GroebnerBasis,
                       Monomial, Polynomial, QuotientContext,
                       RankMismatchError, RingContext, current_limits,
                       module_buchberger, normal_form,
                       saturate, submodule_equal)


class InfiniteDimensionalError(ValueError):
    """The operation needs a finite k-dimensional quotient."""


@dataclass(frozen=True)
class NilpotenceVerdict:
    """Outcome of a nilpotence test.  ``index`` is the stabilization (or
    vanishing) step when meaningful; ``bound`` the search depth for the
    inconclusive bounded search."""

    status: str  # nilpotent | not_nilpotent | not_nilpotent_up_to | budget_exceeded
    index: Optional[int] = None
    bound: Optional[int] = None

    @classmethod
    def nilpotent(cls, index: int) -> "NilpotenceVerdict":
        return cls("nilpotent", index=index)

    @classmethod
    def not_nilpotent(cls) -> "NilpotenceVerdict":
        return cls("not_nilpotent")

    @classmethod
    def not_nilpotent_up_to(cls, bound: int) -> "NilpotenceVerdict":
        return cls("not_nilpotent_up_to", bound=bound)

    @classmethod
    def budget_exceeded(cls) -> "NilpotenceVerdict":
        return cls("budget_exceeded")

    @property
    def is_nilpotent(self) -> bool:
        return self.status == "nilpotent"

    def to_json(self) -> dict:
        out = {"verdict": self.status}
        if self.index is not None:
            out["index"] = self.index
        if self.bound is not None:
            out["bound"] = self.bound
        return out


class CartierModule:
    """M = P^s / relations with kappa determined by kappa(x^a e_j) for
    a in [0,p)^n.  Relations always contain I e_j for the quotient ideal I;
    table values are stored in normal form."""

    __slots__ = ("ctx", "rank", "relations", "kappa_table")

    def __init__(self, ctx: QuotientContext, rank: int,
                 relations: GroebnerBasis, kappa_table: dict):
        self.ctx = ctx
        self.rank = rank
        self.relations = relations
        self.kappa_table = kappa_table

    @classmethod
    def create(cls, ctx: QuotientContext, rank: int,
               relation_vectors=(), table: Optional[dict] = None
               ) -> "CartierModule":
        relations = ctx.module_relations(rank, relation_vectors)
        clean = {}
        if table:
            for (j, a), v in table.items():
                if not 0 <= j < rank:
                    raise RankMismatchError(f"table position {j} out of range")
                if v.rank != rank:
                    raise RankMismatchError("table value rank mismatch")
                nf = normal_form(v, relations)
                if nf:
                    clean[(j, tuple(a))] = nf
        return cls(ctx, rank, relations, clean)

    @property
    def ring(self) -> RingContext:
        return self.ctx.ring

    def table_value(self, j: int, a: Monomial) -> FreeVector:
        return self.kappa_table.get((j, tuple(a)),
                                    FreeVector.zero(self.ring, self.rank))

    def nf(self, v: FreeVector) -> FreeVector:
        return normal_form(v, self.relations)


def kappa_lift(m: CartierModule, v: FreeVector) -> FreeVector:
    """Apply the table to a raw representative, without reducing the input:
    decompose each component over {x^a} and contract against the table.  Used
    directly for well-definedness checks; kappa_apply wraps it with normal
    forms."""
    if v.rank != m.rank:
        raise RankMismatchError(f"vector rank {v.rank}, module rank {m.rank}")
    acc = FreeVector.zero(m.ring, m.rank)
    for j, comp in enumerate(v.comps):
        if comp.is_zero():
            continue
        for a, g in pth_root_decompose(comp).parts.items():
            tv = m.kappa_table.get((j, a))
            if tv is not None:
                acc = acc + tv.scale(g)
    return acc


def kappa_apply(m: CartierModule, v: FreeVector) -> FreeVector:
    """kappa on the class of v; semilinear: kappa(h^p v) = h kappa(v)."""
    return m.nf(kappa_lift(m, m.nf(v)))


def cartier_structure_violations(m: CartierModule) -> list[tuple]:
    """Well-definedness of the table presentation: the lift must send
    x^a * rho into the relations for every relation generator rho and every
    a in [0,p)^n.  Returns the pairs (position of rho, a) for which it does
    not; the table is well defined when the list is empty."""
    violations = []
    one = m.ring.field.one()
    for gi, rho in enumerate(m.relations.generators):
        for a in residue_exponents(m.ring):
            image = kappa_lift(m, rho.term_mul(a, one))
            if not m.nf(image).is_zero():
                violations.append((gi, a))
    return violations


@dataclass(frozen=True)
class StableImageResult:
    """The descending chain of kappa-iterated image submodules and its limit."""

    chain: tuple[GroebnerBasis, ...]
    index: int
    stable: GroebnerBasis


def stable_image(m: CartierModule) -> StableImageResult:
    """Compute the chain M >= kappa(F_*M) >= kappa^2(F_*^2 M) >= ... until two
    consecutive levels generate the same submodule; the chain is constant from
    there on, so the result is the stable image.  Raises BudgetExceededError
    after ``current_limits().chain`` levels."""
    max_levels = current_limits().chain
    one = m.ring.field.one()
    chain = [GroebnerBasis(m.ring, m.rank, tuple(
        FreeVector.unit(m.ring, m.rank, j) for j in range(m.rank)))]
    for level in range(1, max_levels + 1):
        gens = list(m.relations.generators)
        for u in chain[-1].generators:
            for a in residue_exponents(m.ring):
                w = m.nf(kappa_lift(m, u.term_mul(a, one)))
                if w:
                    gens.append(w)
        nxt = module_buchberger(gens, m.rank, m.ring)
        if submodule_equal(nxt, chain[-1]):
            # chain value at level-1 already equals the limit
            return StableImageResult(tuple(chain) + (nxt,), level - 1, nxt)
        chain.append(nxt)
    raise BudgetExceededError(f"image chain did not stabilize in {max_levels} "
                              "levels; the last level had "
                              f"{len(chain[-1].generators)} generators")


def is_nilpotent(m: CartierModule) -> NilpotenceVerdict:
    """Nilpotent iff the stable image collapses to the relation submodule."""
    try:
        result = stable_image(m)
    except BudgetExceededError:
        return NilpotenceVerdict.budget_exceeded()
    if submodule_equal(result.stable, m.relations):
        return NilpotenceVerdict.nilpotent(result.index)
    return NilpotenceVerdict.not_nilpotent()


def is_crystal_supported_on(m: CartierModule,
                            j_gens: list[Polynomial]) -> bool:
    """True when the restriction of M to the complement of V(J) is nilpotent:
    every stable-image generator must be killed by a power of each generator
    of J (membership in the h-saturation of the relations)."""
    result = stable_image(m)
    for h in j_gens:
        if h.is_zero():
            continue
        sat = saturate(m.relations, h)
        for g in result.stable.generators:
            if not normal_form(g, sat).is_zero():
                return False
    return True


def volume_cartier_module(ring: RingContext) -> CartierModule:
    """The rank-1 module of top forms over the ambient ring with the canonical
    Cartier operator: kappa(x^a e) = e when a = (p-1,...,p-1) and 0 for the
    other residues."""
    ctx = QuotientContext.trivial(ring)
    top = tuple(ring.field.p - 1 for _ in range(ring.nvars))
    return CartierModule.create(ctx, 1,
                                table={(0, top): FreeVector.unit(ring, 1, 0)})


# ---------------------------------------------------------------------------
# finite-dimensional tier

@dataclass(frozen=True)
class SemilinearEndo:
    """A p^(-1)-linear endomorphism of k^d: T(v) = U v^(1/p entrywise), so
    T(c^p v) = c T(v)."""

    dim: int
    matrix: tuple
    spec: FieldSpec

    def apply(self, v: list[FieldElement]) -> list[FieldElement]:
        root = [frobenius_root(x) for x in v]
        return [sum((u * r for u, r in zip(row, root)), self.spec.zero())
                for row in self.matrix]

    def rows(self) -> list[list[FieldElement]]:
        return [list(r) for r in self.matrix]


def semilinear_image_chain(t: SemilinearEndo) -> list:
    """The image chain k^d = V_0 > V_1 > ... with V_(i+1) = T(V_i), each
    level as the nonzero rows of an rref basis, up to and including the
    stable image T^d(k^d), which is the last entry.  The chain descends
    strictly until two consecutive levels have the same dimension, and is
    fixed from there on, so it has at most d + 1 entries."""
    chain = [linalg.identity(t.spec, t.dim)]
    while True:
        nxt, _ = linalg.rref([t.apply(b) for b in chain[-1]])
        if len(nxt) == len(chain[-1]):
            return chain
        chain.append(nxt)


def hom_commuting(m: SemilinearEndo, n: SemilinearEndo) -> list[tuple]:
    """F_p-basis of the k-linear maps phi: k^dM -> k^dN with
    phi o T_M = T_N o phi, that is phi U_M = U_N phi^(1/p entrywise).
    Restriction of scalars to F_p makes the condition linear in the prime
    field coordinates of the entries of phi."""
    spec = m.spec
    if n.spec != spec:
        raise ValueError("field mismatch")
    um, un = m.rows(), n.rows()
    # the image of g^t E_rs is g^t U_M[s][j] in row r, minus
    # U_N[i][r] (g^t)^(1/p) in column s
    basis_root = [(b, frobenius_root(b)) for b in spec.power_basis()]
    images = []
    for r in range(n.dim):
        for s in range(m.dim):
            for bt, root in basis_root:
                img = linalg.zeros(spec, n.dim, m.dim)
                img[r] = [bt * x for x in um[s]]
                for i in range(n.dim):
                    img[i][s] = img[i][s] - un[i][r] * root
                images.append([x for row in img for x in row])
    return [tuple(tuple(phi[r * m.dim:(r + 1) * m.dim]) for r in range(n.dim))
            for phi in linalg.prime_field_kernel(images, spec)]


def nil_isomorphism_test(phi, m: SemilinearEndo, n: SemilinearEndo) -> bool:
    """phi is a nil-isomorphism when T_M on ker phi and T_N on coker phi are
    nilpotent; phi must be a dN x dM matrix that commutes with the
    operators.  Let S = T^d(k^d) be the stable image, on which T is
    bijective; phi T_M^k = T_N^k phi gives phi(S_M) <= S_N.  Proof of the
    rule: T_M^dM maps ker phi into its intersection with S_M, on which T_M
    is bijective, so ker phi is nilpotent iff it meets S_M in 0; coker phi
    is nilpotent iff S_N <= im phi, and then S_N = T_N^dM(S_N) <=
    T_N^dM(im phi) = phi(S_M).  So phi is a nil-isomorphism iff it is
    injective on S_M and dim S_M = dim S_N."""
    phi = [list(r) for r in phi]
    if len(phi) != n.dim or any(len(r) != m.dim for r in phi):
        raise ValueError(f"map must be a {n.dim}x{m.dim} matrix")
    if (linalg.mat_mul(phi, m.rows())
            != linalg.mat_mul(n.rows(), linalg.mat_frobenius_root(phi))):
        raise ValueError("map does not commute with the operators")
    s_m = semilinear_image_chain(m)[-1]
    s_n = semilinear_image_chain(n)[-1]
    # the columns are phi(b) for the basis vectors b of S_M
    on_s_m = linalg.mat_mul(phi, [list(c) for c in zip(*s_m)])
    return len(s_m) == len(s_n) and not linalg.nullspace(on_s_m, m.spec)
