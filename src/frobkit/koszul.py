"""Closed immersions presented by regular sequences, the pullback of Cartier
modules along them, the dualizing module of a complete-intersection quotient,
the determinant transition factor between two presenting sequences, and the
commutation check between pullback and the dualizing twist."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .cartier import CartierModule, kappa_apply, volume_cartier_module
from .gamma import GammaSheaf, twist_to_cartier
from .polyring import (FreeVector, Polynomial, QuotientContext, RingContext,
                       buchberger, is_regular_sequence, module_buchberger,
                       normal_form, submodule_equal)


@dataclass(frozen=True)
class ClosedImmersion:
    """V(f_1..f_c) -> Spec P for a regular sequence; ``target`` is the
    quotient context for the ideal the sequence generates."""

    ambient: RingContext
    seq: tuple[Polynomial, ...]
    target: QuotientContext

    @classmethod
    def create(cls, ambient: RingContext, seq) -> "ClosedImmersion":
        seq = tuple(seq)
        if not is_regular_sequence(list(seq), ambient):
            raise ValueError("sequence is not regular")
        target = QuotientContext.from_generators(ambient, seq)
        return cls(ambient, seq, target)

    @property
    def codim(self) -> int:
        return len(self.seq)

    def product(self) -> Polynomial:
        return math.prod(self.seq, start=Polynomial.one(self.ambient))


def cartier_pullback(m: CartierModule, im: ClosedImmersion) -> CartierModule:
    """The induced Cartier module on M/IM for I = (f_1..f_c):
    kappa'(x^a e_j) = kappa((f_1...f_c)^(p-1) x^a e_j), relations extended by
    I e_j."""
    if m.ring != im.ambient:
        raise ValueError("module and immersion live over different rings")
    ring = m.ring
    p = ring.field.p
    factor = im.product() ** (p - 1)
    table: dict = {}
    for j in range(m.rank):
        base = FreeVector.unit(ring, m.rank, j, factor)
        for a in product(range(p), repeat=ring.nvars):
            v = kappa_apply(m, base.term_mul(a, ring.field.one()))
            if v:
                table[(j, a)] = v
    # the target ideal accumulates: pulling back a module that already lives
    # over P/I along V(seq) lands over P/(I + seq)
    if m.ctx.is_ambient:
        target = im.target
    else:
        combined = [g.comps[0] for g in m.ctx.ideal_gb.generators]
        combined.extend(im.seq)
        target = QuotientContext.from_generators(ring, combined)
    return CartierModule.create(target, m.rank, m.relations.generators,
                                table)


def dualizing_module(im: ClosedImmersion) -> CartierModule:
    """omega of the complete-intersection quotient: the pullback of the
    ambient volume-form module along the immersion."""
    return cartier_pullback(volume_cartier_module(im.ambient), im)


def gamma_pullback(n: GammaSheaf, im: ClosedImmersion) -> GammaSheaf:
    """Pull a gamma-sheaf over the ambient ring back to the quotient: same
    matrix reduced mod I, relations extended by I e_j."""
    if n.ring != im.ambient:
        raise ValueError("sheaf and immersion live over different rings")
    if not n.ctx.is_ambient:
        raise ValueError("gamma pullback expects a sheaf over the ambient "
                         "ring")
    return GammaSheaf.create(im.target, n.rank, n.matrix,
                             n.relations.generators)


# ---------------------------------------------------------------------------
# transition factor between two presenting sequences

@dataclass(frozen=True)
class TransitionMatrix:
    """g_i = sum_j C[i][j] f_j, plus det(C) reduced mod the common ideal."""

    matrix: tuple
    det: Polynomial


def _det(mat: list[list[Polynomial]], ctx: RingContext) -> Polynomial:
    n = len(mat)
    if n == 0:
        return Polynomial.one(ctx)
    if n == 1:
        return mat[0][0]
    acc = Polynomial.zero(ctx)
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[row[t] for t in range(n) if t != j] for row in mat[1:]]
        term = mat[0][j] * _det(minor, ctx)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def transition_factor(f_seq, g_seq, ctx: RingContext) -> TransitionMatrix:
    """A matrix C with g_i = sum_j C[i][j] f_j and its determinant mod the
    common ideal.  C is chosen deterministically but is not unique; f must
    be a regular sequence, which makes det(C) mod I independent of the
    choice."""
    f_seq, g_seq = list(f_seq), list(g_seq)
    if len(f_seq) != len(g_seq):
        raise ValueError("sequences have different lengths")
    if not is_regular_sequence(f_seq, ctx):
        raise ValueError("sequence is not regular")
    fgb = buchberger(f_seq, ctx)
    ggb = buchberger(g_seq, ctx)
    if not submodule_equal(fgb, ggb):
        raise ValueError("sequences generate different ideals")
    # every element (h | c) of the module generated by the (f_j | e_j)
    # satisfies h = sum_j c_j f_j, so (g | 0) reduces to (0 | -row)
    k = len(f_seq)
    zeros = (Polynomial.zero(ctx),) * k
    mgb = module_buchberger(
        [FreeVector(ctx, (f,) + FreeVector.unit(ctx, k, j).comps)
         for j, f in enumerate(f_seq)], 1 + k, ctx)
    rows = []
    for g in g_seq:
        r = normal_form(FreeVector(ctx, (g,) + zeros), mgb)
        if r.comps[0]:
            raise ValueError("membership reduction failed")
        rows.append([-c for c in r.comps[1:]])
    # the defining identities hold exactly by construction; assert anyway
    for g, row in zip(g_seq, rows):
        acc = Polynomial.zero(ctx)
        for c, f in zip(row, f_seq):
            acc = acc + c * f
        if acc != g:
            raise AssertionError("transition identity failed")
    det = normal_form(_det(rows, ctx), fgb)
    return TransitionMatrix(tuple(tuple(r) for r in rows), det)


# ---------------------------------------------------------------------------
# commutation of pullback with the dualizing twist

@dataclass(frozen=True)
class CommutationCertificate:
    equal: bool
    discrepancies: tuple  # entries (j, a, route_a_value, route_b_value)


def check_pullback_twist_commutes(n: GammaSheaf, im: ClosedImmersion
                                  ) -> CommutationCertificate:
    """Compare the two routes from a gamma-sheaf over the ambient ring to a
    Cartier module over the quotient: (twist, then pull back) against (pull
    back, then twist with the dualizing factor of the sequence).  With the
    volume-form normalization used throughout, the canonical isomorphism is
    the identity, so the tables must agree entrywise."""
    route_a = cartier_pullback(twist_to_cartier(n), im)
    route_b = twist_to_cartier(gamma_pullback(n, im), seq=im.seq)
    keys = set(route_a.kappa_table) | set(route_b.kappa_table)
    bad = []
    for key in sorted(keys):
        va = route_a.table_value(*key)
        vb = route_b.table_value(*key)
        if va != vb:
            bad.append((key[0], key[1], va, vb))
    return CommutationCertificate(not bad, tuple(bad))
