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
from .polyring import Monomial, Polynomial, RingContext


def residue_exponents(ctx: RingContext):
    """All exponent vectors a with 0 <= a_i < p (the F_* basis indices)."""
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
        acc = Polynomial.zero(self.ctx)
        for a, g in self.parts.items():
            acc = acc + g.frobenius_twist().term_mul(a, self.ctx.field.one())
        return acc


@lru_cache(maxsize=None)
def _term_loop(nvars: int, take_root: bool):
    """The per-term loop of pth_root_decompose for a fixed number of
    variables: exponents are unpacked and the residue and quotient keys are
    built as tuple displays, which is several times cheaper per term than
    building them from generator expressions.  With take_root False the
    coefficients are copied as they are (frobenius_root is the identity over
    a prime field)."""
    es = "".join(f"e{i}, " for i in range(nvars))
    residues = "".join(f"e{i} % p, " for i in range(nvars))
    quotients = "".join(f"e{i} // p, " for i in range(nvars))
    coeff = "root(c)" if take_root else "c"
    source = f"""
def loop(terms, p, root):
    parts = {{}}
    for ({es}), c in terms.items():
        a = ({residues})
        slot = parts.get(a)
        if slot is None:
            slot = parts[a] = {{}}
        slot[({quotients})] = {coeff}  # distinct m give distinct (a, root)
    return parts
"""
    namespace: dict = {}
    exec(source, namespace)
    return namespace["loop"]


def pth_root_decompose(f: Polynomial) -> FrobeniusDecomposition:
    """Split f by exponent residues mod p.  The term c*x^E lands in the slot
    a = E mod p as the term frobenius_root(c)*x^((E-a)/p).  The term loop is
    specialised to the number of variables and cached (see _term_loop)."""
    ctx = f.ctx
    loop = _term_loop(ctx.nvars, ctx.field.e > 1)
    parts = loop(f.terms, ctx.field.p, frobenius_root)
    return FrobeniusDecomposition(
        ctx, {a: Polynomial(ctx, d, _clean=False) for a, d in parts.items()})


def cartier_volume(f: Polynomial) -> Polynomial:
    """Coefficient of the canonical Cartier operator on the volume form:
    kappa(f dx) = cartier_volume(f) dx.  A term c*x^E contributes
    c^(1/p) * x^((E+1)/p - 1) when every E_i + 1 is divisible by p, and zero
    otherwise.  Equals the (p-1,...,p-1) slot of pth_root_decompose(f)."""
    ctx = f.ctx
    p = ctx.field.p
    out: dict = {}
    for m, c in f.terms.items():
        ok = True
        for e in m:
            if (e + 1) % p:
                ok = False
                break
        if ok:
            out[tuple((e + 1) // p - 1 for e in m)] = frobenius_root(c)
    return Polynomial(ctx, out, _clean=False)

