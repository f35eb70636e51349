"""Frobenius pushforward structure of the polynomial ring P = k[x_1..x_n]:
F_*P is free over P with basis {x^a : 0 <= a_i < p}.  This module provides the
decomposition of a polynomial over that basis (its parts are the values of the
dual-basis functionals) and the canonical Cartier operator on the volume form
dx_1 ^ ... ^ dx_n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .field import frobenius_root
from .polyring import (GuardExceededError, Monomial, Polynomial,
                       RingContext, current_limits)


def residue_exponents(ctx: RingContext):
    """All exponent vectors a with 0 <= a_i < p (the F_* basis indices).
    Raises GuardExceededError, before listing any, when the p^n vectors
    exceed ``current_limits().guard``."""
    size, guard = ctx.field.p ** ctx.nvars, current_limits().guard
    if size > guard:
        raise GuardExceededError(f"{size} residue exponents exceed the "
                                 f"guard {guard}")
    return product(range(ctx.field.p), repeat=ctx.nvars)


@dataclass(frozen=True)
class FrobeniusDecomposition:
    """f = sum over a of g_a^p * x^a; ``parts`` maps a -> g_a (zero parts
    omitted)."""

    ctx: RingContext
    parts: dict

    def part(self, a: Monomial) -> Polynomial:
        return self.parts.get(tuple(a), Polynomial.zero(self.ctx))

    def recompose(self) -> Polynomial:
        """The sum of g_a^p * x^a, built in one pass: distinct slots (a, b)
        give distinct exponents p*b + a, so no two terms meet."""
        p = self.ctx.field.p
        return Polynomial(self.ctx, {
            tuple(p * e + r for e, r in zip(b, a)): c ** p
            for a, g in self.parts.items() for b, c in g.terms.items()},
            _clean=False)


@lru_cache(maxsize=None)
def _term_loop(nvars: int, take_root: bool, volume: bool = False):
    """The per-term loop of pth_root_decompose, or with volume True that of
    cartier_volume, for a fixed number of variables: exponents are unpacked
    and the keys are built as tuple displays, which is several times cheaper
    per term than building them from generator expressions.  With take_root
    False the coefficients are copied as they are (frobenius_root is the
    identity over a prime field).

    The decomposition finds a term's slot by the integer whose base-p digits
    are the residues, and builds the residue tuple only when the slot is new.
    Each distinct quotient is stored once: every part that holds it keys its
    term by the same tuple object."""
    es = "".join(f"e{i}, " for i in range(nvars))
    residues = "".join(f"e{i} % p, " for i in range(nvars))
    quotients = "".join(f"e{i} // p, " for i in range(nvars))
    coeff = "root(c)" if take_root else "c"
    if volume:
        # e % p == p - 1 exactly when p divides e + 1, and then
        # (e + 1) // p - 1 == e // p
        keep = " and ".join(f"e{i} % p == top" for i in range(nvars))
        body = f"""
    out = {{}}
    top = p - 1
    for ({es}), c in terms.items():
        if {keep}:
            out[({quotients})] = {coeff}
    return out
"""
    else:
        index = "e0 % p"
        for i in range(1, nvars):
            index = f"({index}) * p + e{i} % p"
        body = f"""
    parts = {{}}
    slots = {{}}
    shared = {{}}
    for ({es}), c in terms.items():
        i = {index}
        slot = slots.get(i)
        if slot is None:
            slot = slots[i] = parts[({residues})] = {{}}
        q = ({quotients})
        # distinct m give distinct (a, q)
        slot[shared.setdefault(q, q)] = {coeff}
    return parts
"""
    namespace: dict = {}
    exec("def loop(terms, p, root):" + body, namespace)
    return namespace["loop"]


def pth_root_decompose(f: Polynomial) -> FrobeniusDecomposition:
    """Split f by exponent residues mod p.  The term c*x^E lands in the slot
    a = E mod p as the term frobenius_root(c)*x^((E-a)/p).  The parts, and
    the terms within each part, come in the order of their first appearance
    in f.  Parts share their exponent tuples, which are immutable: equal
    quotients (E-a)/p in different parts are one tuple object.  The term loop
    is specialised to the number of variables and cached (see _term_loop)."""
    ctx = f.ctx
    loop = _term_loop(ctx.nvars, ctx.field.e > 1)
    parts = loop(f.terms, ctx.field.p, frobenius_root)
    return FrobeniusDecomposition(
        ctx, {a: Polynomial(ctx, d, _clean=False) for a, d in parts.items()})


def cartier_volume(f: Polynomial) -> Polynomial:
    """Coefficient of the canonical Cartier operator on the volume form:
    kappa(f dx) = cartier_volume(f) dx.  A term c*x^E contributes
    c^(1/p) * x^((E+1)/p - 1) when every E_i + 1 is divisible by p, and zero
    otherwise.  Equals the (p-1,...,p-1) slot of pth_root_decompose(f).  The
    term loop is specialised to the number of variables and cached (see
    _term_loop)."""
    ctx = f.ctx
    loop = _term_loop(ctx.nvars, ctx.field.e > 1, volume=True)
    return Polynomial(ctx, loop(f.terms, ctx.field.p, frobenius_root),
                      _clean=False)
