"""Sparse multivariate polynomials over GF(p^e), monomial orders, Buchberger
Groebner bases for ideals and for submodules of free modules, normal forms,
quotients, saturation, and regular-sequence testing.

Monomials are plain exponent tuples.  Module term order is position-over-term
with e_0 > e_1 > ...; within a position the ring's order (lex or grevlex)
applies.  All computation is exact.
"""
from __future__ import annotations

import heapq
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import add, le, neg, sub
from typing import Iterable, Optional

from .field import FieldElement, FieldSpec, power

Monomial = tuple  # exponent vectors; length = number of ring variables


@dataclass(frozen=True)
class Limits:
    """Bounds on the work of one computation: S-pairs reduced per Groebner
    basis, levels of a Cartier image chain, a gamma kernel chain or a
    saturation, and points or field elements enumerated.  Each limit is a
    positive int (not a bool), read where it is spent, from the limits in
    force (see use_limits)."""

    spair: int = 50_000
    chain: int = 64
    guard: int = 10 ** 6

    def __post_init__(self):
        for name in ("spair", "chain", "guard"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"limit {name} must be a positive int, "
                                 f"got {value!r}")


_LIMITS: ContextVar[Limits] = ContextVar("frobkit_limits", default=Limits())


def current_limits() -> Limits:
    return _LIMITS.get()


def check_guard(size: int, what: str) -> None:
    """Raise GuardExceededError when ``size`` exceeds the guard G in force,
    with the message ``what.format(size)`` followed by "the guard G"."""
    guard = current_limits().guard
    if size > guard:
        raise GuardExceededError(f"{what.format(size)} the guard {guard}")


@contextmanager
def use_limits(limits: Limits):
    """Put ``limits`` in force for the code run inside the block, like
    decimal.localcontext does for precision."""
    token = _LIMITS.set(limits)
    try:
        yield limits
    finally:
        _LIMITS.reset(token)


class BudgetExceededError(RuntimeError):
    """An S-pair or iteration budget was exhausted before completion."""


class GuardExceededError(RuntimeError):
    """An enumeration guard was exceeded."""


class RankMismatchError(ValueError):
    """Vector or basis rank does not match the ambient free module."""


class ParseError(ValueError):
    """Polynomial text does not conform to the input grammar."""


# ---------------------------------------------------------------------------
# monomial helpers

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def _lex_descending(m: Monomial) -> tuple:
    return tuple(map(neg, m))


def _grevlex_descending(m: Monomial) -> tuple:
    return (-sum(m),) + m[::-1]


@dataclass(frozen=True)
class RingContext:
    """The ambient polynomial ring k[x_1..x_n] with a fixed term order."""

    field: FieldSpec
    vars: tuple[str, ...]
    order: str = "grevlex"

    def __post_init__(self) -> None:
        if len(self.vars) < 1:
            raise ValueError("need at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("variable names must be distinct")
        if self.order not in ("lex", "grevlex"):
            raise ValueError(f"unknown order {self.order!r}")
        object.__setattr__(self, "vars", tuple(self.vars))

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def monomial_key(self, m: Monomial):
        """Sort key: larger key means larger monomial."""
        if self.order == "lex":
            return m
        return (sum(m), tuple(-x for x in reversed(m)))

    @property
    def descending_key(self):
        """The heap key of the order, as a function of a monomial: a smaller
        key means a larger monomial (the reverse of monomial_key), so a
        min-heap of keys pops terms from the leading one down."""
        return _lex_descending if self.order == "lex" else _grevlex_descending


class Polynomial:
    """Immutable sparse polynomial: a finite map exponent-tuple -> coefficient.
    Zero coefficients are never stored, and ``terms`` is never changed after
    construction, so the leading term is computed once."""

    __slots__ = ("ctx", "terms", "_lead")

    def __init__(self, ctx: RingContext, terms: Optional[dict] = None, *,
                 _clean: bool = True):
        self.ctx = ctx
        self._lead = None
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = terms

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, ctx: RingContext) -> "Polynomial":
        return cls(ctx, None)

    @classmethod
    def constant(cls, ctx: RingContext, c) -> "Polynomial":
        if isinstance(c, int):
            c = ctx.field.from_int(c)
        m = (0,) * ctx.nvars
        return cls(ctx, {m: c})

    @classmethod
    def one(cls, ctx: RingContext) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx: RingContext, name: str) -> "Polynomial":
        i = ctx.vars.index(name)
        m = tuple(1 if j == i else 0 for j in range(ctx.nvars))
        return cls(ctx, {m: ctx.field.one()})

    @classmethod
    def monomial(cls, ctx: RingContext, expvec, coeff=None) -> "Polynomial":
        if coeff is None:
            coeff = ctx.field.one()
        elif isinstance(coeff, int):
            coeff = ctx.field.from_int(coeff)
        return cls(ctx, {tuple(expvec): coeff})

    # -- predicates / views -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.ctx == other.ctx
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def leading(self) -> tuple[Monomial, FieldElement]:
        lead = self._lead
        if lead is None:
            m = max(self.terms, key=self.ctx.monomial_key)
            lead = self._lead = (m, self.terms[m])
        return lead

    def sorted_terms(self) -> list[tuple[Monomial, FieldElement]]:
        key = self.ctx.descending_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = c
        return Polynomial(self.ctx, out, _clean=False)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] - c
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = -c
        return Polynomial(self.ctx, out, _clean=False)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, {m: -c for m, c in self.terms.items()},
                          _clean=False)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    c = c1 * c2
                    if m in out:
                        s = out[m] + c
                        if s:
                            out[m] = s
                        else:
                            del out[m]
                    elif c:
                        out[m] = c
            return Polynomial(self.ctx, out, _clean=False)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.ctx.field.from_int(c)
        if not c:
            return Polynomial.zero(self.ctx)
        return Polynomial(self.ctx, {m: k * c for m, k in self.terms.items()},
                          _clean=False)

    def term_mul(self, mono: Monomial, coeff: FieldElement) -> "Polynomial":
        if not coeff:
            return Polynomial.zero(self.ctx)
        return Polynomial(self.ctx,
                          {mono_mul(m, mono): c * coeff
                           for m, c in self.terms.items()}, _clean=False)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, Polynomial.one(self.ctx))

    def frobenius_twist(self) -> "Polynomial":
        """Coefficients to the p, exponents times p (equals f^p in
        characteristic p)."""
        p = self.ctx.field.p
        return Polynomial(self.ctx,
                          {tuple(e * p for e in m): c ** p
                           for m, c in self.terms.items()}, _clean=False)

    def evaluate(self, coords: tuple[FieldElement, ...],
                 target: Optional[FieldSpec] = None) -> FieldElement:
        """Evaluate at a point with coordinates in ``target`` (defaults to the
        field of the coordinates).  Base-field coefficients embed into the
        point field via the prime subfield, so both have one characteristic;
        extension coefficients require the point field to equal the base
        field.  There must be one coordinate per variable."""
        if len(coords) != self.ctx.nvars:
            raise ValueError(f"{len(coords)} coordinates for "
                             f"{self.ctx.nvars} variables")
        if target is None:
            target = coords[0].spec
        base = self.ctx.field
        same = base is target or base == target
        if not same:
            if base.e > 1:
                raise ValueError("extension base fields require points with "
                                 "coordinates in the base field itself")
            if base.p != target.p:
                raise ValueError("the point field has another characteristic")
        pad = (0,) * (target.e - 1)  # a prime-field c is (c, 0, ..., 0)
        acc = None
        for m, c in self.terms.items():
            cv = c if same else FieldElement(target, c.coeffs + pad)
            for x, e in zip(coords, m):
                if e:
                    cv = cv * (x if e == 1 else x ** e)
            acc = cv if acc is None else acc + cv
        return target.zero() if acc is None else acc

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


class FreeVector:
    """An element of the free module P^s; components are Polynomials.  Like
    them it never changes after construction, so its leading term and, over
    a prime field, the integer view of its terms that division reads
    (_int_view) are computed once."""

    __slots__ = ("ctx", "comps", "_lead", "_ints")

    def __init__(self, ctx: RingContext, comps: Iterable[Polynomial]):
        self.ctx = ctx
        self.comps = tuple(comps)
        self._lead = None
        self._ints = None

    @classmethod
    def zero(cls, ctx: RingContext, rank: int) -> "FreeVector":
        z = Polynomial.zero(ctx)
        return cls(ctx, (z,) * rank)

    @classmethod
    def unit(cls, ctx: RingContext, rank: int, j: int,
             poly: Optional[Polynomial] = None) -> "FreeVector":
        if poly is None:
            poly = Polynomial.one(ctx)
        z = Polynomial.zero(ctx)
        return cls(ctx, tuple(poly if i == j else z for i in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeVector) and self.comps == other.comps

    def __hash__(self) -> int:
        return hash(self.comps)

    def __add__(self, other: "FreeVector") -> "FreeVector":
        return FreeVector(self.ctx, (a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        return FreeVector(self.ctx, (a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "FreeVector":
        return FreeVector(self.ctx, (-a for a in self.comps))

    def scale(self, f) -> "FreeVector":
        if isinstance(f, (int, FieldElement)):
            return FreeVector(self.ctx, (a.scale(f) for a in self.comps))
        return FreeVector(self.ctx, (a * f for a in self.comps))

    def term_mul(self, mono: Monomial, coeff: FieldElement) -> "FreeVector":
        return FreeVector(self.ctx, (a.term_mul(mono, coeff) for a in self.comps))

    def leading(self) -> tuple[int, Monomial, FieldElement]:
        """Position-over-term leading term: smallest nonzero position wins."""
        if self._lead is None:
            for j, comp in enumerate(self.comps):
                if comp:
                    self._lead = (j,) + comp.leading()
                    break
            else:
                raise ValueError("zero vector has no leading term")
        return self._lead

    def monic(self) -> "FreeVector":
        """This vector scaled to leading coefficient 1; itself, with its
        cached views, when it is zero or monic already."""
        if self.is_zero():
            return self
        _, _, c = self.leading()
        if c == self.ctx.field.one():
            return self
        return self.scale(c.inverse())

    def __repr__(self) -> str:
        return f"FreeVector([{', '.join(map(format_polynomial, self.comps))}])"


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis of an ideal (rank 1) or of a submodule of a
    free module (position-over-term order)."""

    ctx: RingContext
    rank: int
    generators: tuple[FreeVector, ...]

    @property
    def polys(self) -> list[Polynomial]:
        if self.rank != 1:
            raise RankMismatchError("polys view requires rank 1")
        return [g.comps[0] for g in self.generators]

    def is_unit_ideal(self) -> bool:
        return (self.rank == 1 and len(self.generators) == 1
                and self.generators[0].comps[0].terms.keys()
                == {(0,) * self.ctx.nvars})


# ---------------------------------------------------------------------------
# division / normal form

def _as_vector(f) -> FreeVector:
    if isinstance(f, FreeVector):
        return f
    return FreeVector(f.ctx, (f,))


def _int_view(v: FreeVector) -> tuple[dict, ...]:
    """The components of ``v``, over a prime field, as {monomial: int} dicts
    of coefficients in [0, p)."""
    return tuple({m: c.coeffs[0] for m, c in comp.terms.items()}
                 for comp in v.comps)


def _reduce_vector(v: FreeVector, gens: list[FreeVector]) -> FreeVector:
    """Full multivariate division: returns the remainder of ``v`` against
    ``gens``.  Generators must be monic.

    Each position keeps its pending terms in a dict and their descending keys
    in a heap, so the largest pending term is a heap pop; a key is computed
    once, when its monomial enters the dict, and a heap entry whose monomial
    has cancelled since is skipped.  The divisor of a term is the first
    generator, in list order, whose lead divides it.  Reducing at position j
    adds terms only at positions >= j (a generator's lead position is its
    first nonzero one), and at position j only below the term reduced, so the
    positions drain in increasing order.

    Over a prime field the loop runs on int coefficients mod p, not on
    FieldElements: the dividend's terms are copied into int dicts, each
    generator's int view (_int_view) is built on its first division and
    cached on it, so that a basis element is converted once however many
    reductions it serves, and the remainder is rebuilt as FieldElement
    polynomials.  The cached dicts are only read, never written."""
    ctx = v.ctx
    field = ctx.field
    dkey = ctx.descending_key
    # 0 over an extension field, where the loop runs on FieldElements
    p = field.p if field.e == 1 else 0
    divisors: list[list] = [[] for _ in v.comps]
    for g in gens:
        gpos, gm, _ = g.leading()
        if p:
            view = g._ints
            if view is None:
                view = g._ints = _int_view(g)
        else:
            view = tuple(comp.terms for comp in g.comps)
        divisors[gpos].append((gm, view))
    if p:
        work = [{m: c.coeffs[0] for m, c in comp.terms.items()}
                for comp in v.comps]
    else:
        work = [dict(comp.terms) for comp in v.comps]
    heaps = [[(dkey(m), m) for m in terms] for terms in work]
    rem = [dict() for _ in v.comps]

    for j, terms in enumerate(work):
        heap = heaps[j]
        heapq.heapify(heap)
        while heap:
            m = heapq.heappop(heap)[1]
            c = terms.get(m)
            if c is None:
                continue
            for gm, comps in divisors[j]:
                if mono_divides(gm, m):
                    shift = mono_div(m, gm)
                    for pos in range(j, len(comps)):
                        tgt = work[pos]
                        tgt_heap = heaps[pos]
                        for mm, cc in comps[pos].items():
                            mmm = mono_mul(mm, shift)
                            prod = cc * c
                            if mmm in tgt:
                                s = tgt[mmm] - prod
                                if p:
                                    s %= p
                                if s:
                                    tgt[mmm] = s
                                else:
                                    del tgt[mmm]
                            else:
                                tgt[mmm] = -prod % p if p else -prod
                                heapq.heappush(tgt_heap, (dkey(mmm), mmm))
                    break
            else:
                rem[j][m] = c
                del terms[m]

    if p:
        rem = [{m: FieldElement(field, (c,)) for m, c in d.items()}
               for d in rem]
    return FreeVector(ctx, (Polynomial(ctx, d, _clean=False) for d in rem))


def normal_form(f, gb: GroebnerBasis):
    """Remainder of multivariate division by a Groebner basis.  Zero exactly
    for members.  Accepts a Polynomial (rank 1) or a FreeVector."""
    poly_input = isinstance(f, Polynomial)
    v = _as_vector(f)
    if v.rank != gb.rank:
        raise RankMismatchError(f"rank {v.rank} vs basis rank {gb.rank}")
    if not gb.generators:
        return f
    r = _reduce_vector(v, list(gb.generators))
    return r.comps[0] if poly_input else r


# ---------------------------------------------------------------------------
# Buchberger

def _spair(f: FreeVector, g: FreeVector) -> FreeVector:
    fj, fm, fc = f.leading()
    gj, gm, gc = g.leading()
    l = mono_lcm(fm, gm)
    one = f.ctx.field.one()
    a = f.term_mul(mono_div(l, fm), one)
    b = g.term_mul(mono_div(l, gm), fc / gc)
    return a - b


def _interreduce(basis: list[FreeVector], ctx: RingContext,
                 rank: int) -> GroebnerBasis:
    basis = [b.monic() for b in basis if b]
    key = ctx.monomial_key
    basis.sort(key=lambda v: (v.leading()[0], key(v.leading()[1])))
    minimal: list[FreeVector] = []
    for g in basis:
        gj, gm, _ = g.leading()
        if any(h.leading()[0] == gj and mono_divides(h.leading()[1], gm)
               for h in minimal):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = _reduce_vector(g, others) if others else g
        if r:
            reduced.append(r.monic())
    reduced.sort(key=lambda v: (v.leading()[0], key(v.leading()[1])))
    return GroebnerBasis(ctx, rank, tuple(reduced))


def module_buchberger(vectors: Iterable[FreeVector], rank: int,
                      ctx: Optional[RingContext] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule of P^rank generated by
    ``vectors`` (position-over-term).  Pairs are pruned within a lead
    position by the Gebauer-Moeller criteria M and F (Gebauer & Moeller 1988)
    and, in rank 1 only, by Buchberger's product criterion; surviving pairs
    are reduced in order of (lcm degree, i, j).  Raises BudgetExceededError
    when more than ``current_limits().spair`` S-pairs must be reduced; pruned
    pairs are not reduced and do not count."""
    vectors = [v for v in vectors if v]
    if ctx is None:
        if not vectors:
            raise ValueError("need a ring context for the empty basis")
        ctx = vectors[0].ctx
    for v in vectors:
        if v.rank != rank:
            raise RankMismatchError("generator rank mismatch")
    if not vectors:
        return GroebnerBasis(ctx, rank, ())

    basis: list[FreeVector] = []
    leads: list[tuple[int, Monomial]] = []
    # the elements that still form new pairs: those whose lead no later lead
    # divides
    live: list[int] = []
    # pairs (lcm degree, i, j) with i < j and equal lead positions, popped
    # smallest first; leading terms of basis elements never change, so each
    # key is computed once, and keys are unique, so the order is total
    pairs: list[tuple[int, int, int]] = []
    pruned = 0

    def add(v: FreeVector) -> None:
        """Pair a new element with the live elements at its lead position,
        keeping the pairs that the Gebauer-Moeller criteria M and F leave,
        then retire the live elements whose lead the new lead divides: a pair
        (k, later) is covered by (k, new) and (new, later)."""
        nonlocal pruned
        new = len(basis)
        pos, m, _ = v.leading()
        basis.append(v)
        leads.append((pos, m))
        # M: a new pair goes when another new pair's lcm divides its lcm;
        # F: of new pairs with equal lcms one stays, the one with the oldest
        # partner, since the candidates run newest first.  In rank 1 a pair
        # with coprime leads stays as a witness here and is then dropped by
        # the product criterion.  Pending pairs are never dropped (the B
        # criterion): with pairs taken by lcm degree, dropping them made lex
        # Katsura-4 run for minutes instead of a fraction of a second, as the
        # pairs of short early elements no longer trimmed the later ones.
        cands = [(k, mono_lcm(leads[k][1], m)) for k in reversed(live)
                 if leads[k][0] == pos]
        chosen: list[tuple[int, Monomial, bool]] = []
        for idx, (k, l) in enumerate(cands):
            coprime = rank == 1 and l == mono_mul(leads[k][1], m)
            if coprime or not (
                    any(mono_divides(l2, l) for _, l2 in cands[idx + 1:])
                    or any(mono_divides(l2, l) for _, l2, _ in chosen)):
                chosen.append((k, l, coprime))
        kept = [(mono_degree(l), k, new) for k, l, coprime in chosen
                if not coprime]
        for pair in kept:
            heapq.heappush(pairs, pair)
        pruned += len(cands) - len(kept)
        live[:] = [k for k in live
                   if leads[k][0] != pos or not mono_divides(m, leads[k][1])]
        live.append(new)

    for v in vectors:
        add(v.monic())
    budget = current_limits().spair
    spent = 0
    while pairs:
        if spent >= budget:
            raise BudgetExceededError(
                f"S-pair budget {budget} exceeded after {len(basis)} basis "
                f"elements, {len(pairs)} pairs pending, {pruned} pairs pruned")
        _, i, j = heapq.heappop(pairs)
        spent += 1
        r = _reduce_vector(_spair(basis[i], basis[j]), basis)
        if r:
            add(r.monic())
    return _interreduce(basis, ctx, rank)


def buchberger(polys: Iterable[Polynomial],
               ctx: Optional[RingContext] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``polys``."""
    polys = list(polys)
    if ctx is None:
        if not polys:
            raise ValueError("need a ring context for the empty basis")
        ctx = polys[0].ctx
    return module_buchberger([_as_vector(f) for f in polys], 1, ctx)


def submodule_equal(a: GroebnerBasis, b: GroebnerBasis) -> bool:
    """True iff the two bases generate the same submodule: every basis is
    reduced and sorted, and reduced bases are unique."""
    if a.ctx != b.ctx or a.rank != b.rank:
        raise RankMismatchError("bases live in different modules")
    return a.generators == b.generators


# ---------------------------------------------------------------------------
# quotients, saturation

def module_quotient(n: GroebnerBasis, h: Polynomial) -> GroebnerBasis:
    """(N : h) = {v : h*v in N} for N in P^s.  The vectors (h e_j | e_j) and
    (g | 0), g in N, generate a submodule of P^(2s) whose elements with zero
    first block are the (0 | v) with h*v in N.  Position-over-term order
    ranks every position of the first block above the second, so the
    elements of its reduced basis with lead position >= s, cut to their last
    s components, are the reduced basis of (N : h), already in order."""
    if h.is_zero():
        raise ValueError("quotient by zero")
    ctx, s = n.ctx, n.rank
    zeros = (Polynomial.zero(ctx),) * s
    gens = [FreeVector(ctx, FreeVector.unit(ctx, s, j, h).comps
                       + FreeVector.unit(ctx, s, j).comps) for j in range(s)]
    gens += [FreeVector(ctx, g.comps + zeros) for g in n.generators]
    full = module_buchberger(gens, 2 * s, ctx)
    return GroebnerBasis(ctx, s, tuple(FreeVector(ctx, v.comps[s:])
                                       for v in full.generators
                                       if v.leading()[0] >= s))


def saturate(n: GroebnerBasis, h: Polynomial) -> GroebnerBasis:
    """(N : h^infinity): iterate quotients by h until they stabilize, for at
    most ``current_limits().chain`` rounds."""
    max_rounds = current_limits().chain
    cur = n
    for _ in range(max_rounds):
        nxt = module_quotient(cur, h)
        if submodule_equal(cur, nxt):
            return cur
        cur = nxt
    raise BudgetExceededError("saturation did not stabilize within "
                              f"{max_rounds} rounds; the last quotient had "
                              f"{len(cur.generators)} generators")


def is_regular_sequence(seq: list[Polynomial], ctx: RingContext) -> bool:
    """True iff each f_i is a nonzerodivisor modulo its predecessors and the
    sequence does not generate the unit ideal."""
    seq = list(seq)
    if not seq or any(f.is_zero() for f in seq):
        return False
    if buchberger(seq, ctx).is_unit_ideal():
        return False
    prev: list[Polynomial] = []
    for f in seq:
        if prev:
            pgb = buchberger(prev, ctx)
            q = module_quotient(pgb, f)
            if not submodule_equal(q, pgb):
                return False
        prev.append(f)
    return True


# ---------------------------------------------------------------------------
# quotient contexts and staircases

def module_staircase(gb: GroebnerBasis, rank: int) -> Optional[list[tuple[int, Monomial]]]:
    """Monomial basis (j, x^b) of P^rank / <gb>, or None when infinite.
    Raises GuardExceededError before enumerating boxes that hold more than
    ``current_limits().guard`` monomials in all."""
    ctx = gb.ctx
    n = ctx.nvars
    leads: dict[int, list[Monomial]] = {j: [] for j in range(rank)}
    for g in gb.generators:
        j, m, _ = g.leading()
        leads[j].append(m)
    size = 0
    out: list[tuple[int, Monomial]] = []
    for j in range(rank):
        ms = leads[j]
        # a unit lead empties this position's fiber
        if (0,) * n in ms:
            continue
        bounds = []
        for i in range(n):
            pure = [m[i] for m in ms if all(m[k] == 0 for k in range(n) if k != i)
                    and m[i] > 0]
            if not pure:
                return None
            bounds.append(min(pure))
        size += prod(bounds)
        check_guard(size, "staircase box of {} monomials exceeds")
        for b in product(*(range(bd) for bd in bounds)):
            if not any(mono_divides(m, b) for m in ms):
                out.append((j, b))
    out.sort(key=lambda jm: (jm[0], ctx.monomial_key(jm[1])))
    return out


@dataclass(frozen=True)
class QuotientContext:
    """The quotient ring R = P/I presented by a reduced Groebner basis."""

    ring: RingContext
    ideal_gb: GroebnerBasis

    @classmethod
    def from_generators(cls, ring: RingContext,
                        gens: Iterable[Polynomial]) -> "QuotientContext":
        return cls(ring, buchberger(gens, ring))

    @classmethod
    def trivial(cls, ring: RingContext) -> "QuotientContext":
        return cls(ring, GroebnerBasis(ring, 1, ()))

    def module_relations(self, rank: int, vectors=()) -> GroebnerBasis:
        """Groebner basis of the submodule of P^rank generated by the vectors
        and I e_j, the relations of a quotient of R^rank."""
        gens = list(vectors)
        for g in self.ideal_gb.generators:
            for j in range(rank):
                gens.append(FreeVector.unit(self.ring, rank, j, g.comps[0]))
        return module_buchberger(gens, rank, self.ring)

    def nf(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.ideal_gb)

    @property
    def is_ambient(self) -> bool:
        return not self.ideal_gb.generators


# ---------------------------------------------------------------------------
# text grammar

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_polynomial(ctx: RingContext, text: str) -> Polynomial:
    """Parse the session grammar: terms joined by +/-, each term a product of
    an optional integer coefficient and powers ``var^k`` joined by '*'."""
    s = text.replace(" ", "")
    if s in ("", "0"):
        return Polynomial.zero(ctx)
    if s[0] not in "+-":
        s = "+" + s
    pos = 0
    acc = Polynomial.zero(ctx)
    for tok in _TERM_RE.finditer(s):
        if tok.start() != pos:
            raise ParseError(f"cannot parse {text!r} at offset {tok.start()}")
        pos = tok.end()
        body = tok.group(0)
        sign = -1 if body[0] == "-" else 1
        body = body.lstrip("+-")
        if not body:
            raise ParseError(f"empty term in {text!r}")
        coeff = sign
        exps = [0] * ctx.nvars
        for part in body.split("*"):
            if part.isdigit():
                coeff *= int(part)
                continue
            m = _FACTOR_RE.match(part)
            if not m:
                raise ParseError(f"bad factor {part!r} in {text!r}")
            name, k = m.group(1), int(m.group(2) or 1)
            if name not in ctx.vars:
                raise ParseError(f"undeclared variable {name!r} in {text!r}")
            exps[ctx.vars.index(name)] += k
        acc = acc + Polynomial.monomial(ctx, exps, coeff)
    if pos != len(s):
        raise ParseError(f"cannot parse {text!r}")
    return acc


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form: terms sorted descending by the ring order."""
    if f.is_zero():
        return "0"
    ctx = f.ctx
    pieces = []
    for idx, (m, c) in enumerate(f.sorted_terms()):
        factors = []
        for name, e in zip(ctx.vars, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cstr = str(c)
        if factors and cstr == "1":
            body = "*".join(factors)
        elif factors:
            body = cstr + "*" + "*".join(factors)
        else:
            body = cstr
        pieces.append(("" if idx == 0 else " + ") + body)
    return "".join(pieces)


def parse_vector(ctx: RingContext, rank: int, text: str) -> FreeVector:
    """Vector grammar: either a bare polynomial (rank 1) or a bracketed
    comma-separated component list ``[p1, p2, ...]``."""
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError(f"unterminated vector {text!r}")
        parts = s[1:-1].split(",") if s[1:-1].strip() else []
        if len(parts) != rank:
            raise ParseError(f"vector {text!r} has {len(parts)} components, "
                             f"expected {rank}")
        return FreeVector(ctx, (parse_polynomial(ctx, p) for p in parts))
    if rank != 1:
        raise ParseError(f"rank-{rank} vectors need bracket syntax: {text!r}")
    return FreeVector(ctx, (parse_polynomial(ctx, s),))


def format_vector(v: FreeVector) -> str:
    if v.rank == 1:
        return format_polynomial(v.comps[0])
    return "[" + ", ".join(format_polynomial(c) for c in v.comps) + "]"
