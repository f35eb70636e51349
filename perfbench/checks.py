"""Output checks that do not use frobkit: a parser for frobkit's polynomial
text, grevlex division over GF(p), staircase counting, and GF(p^m)
arithmetic on coefficient tuples.  Each check returns True when the output
it is given is right; the workloads call them, and tests/test_checks.py shows
that each one rejects a perturbed output."""
from __future__ import annotations

from itertools import product


# ---------------------------------------------------------------------------
# polynomials over GF(p) as {exponent tuple: int}

def parse_poly(text: str, names: list[str], p: int) -> dict:
    """Read frobkit's canonical polynomial text over a prime field: terms
    joined by " + ", each an optional integer and factors name or name^e
    joined by "*"."""
    out: dict = {}
    if text.strip() == "0":
        return out
    index = {name: i for i, name in enumerate(names)}
    for term in text.split(" + "):
        coeff = 1
        exps = [0] * len(names)
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, e = factor.partition("^")
            exps[index[name]] += int(e) if e else 1
        key = tuple(exps)
        out[key] = (out.get(key, 0) + coeff) % p
        if not out[key]:
            del out[key]
    return out


def format_poly(poly: dict, names: list[str]) -> str:
    """Session text for a polynomial {exponents: int}; terms in any order."""
    if not poly:
        return "0"
    terms = []
    for exps, c in sorted(poly.items()):
        factors = [n if e == 1 else f"{n}^{e}"
                   for n, e in zip(names, exps) if e]
        terms.append("*".join(([str(c)] if c != 1 or not factors else [])
                              + factors))
    return " + ".join(terms)


def grevlex_key(m: tuple) -> tuple:
    """Larger key, larger monomial: total degree first, then the smaller
    exponent of the last variable wins."""
    return (sum(m), tuple(-e for e in reversed(m)))


def leading(poly: dict) -> tuple:
    return max(poly, key=grevlex_key)


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reduce_poly(f: dict, basis: list[dict], p: int) -> dict:
    """Remainder of f under division by ``basis`` in grevlex over GF(p)."""
    heads = []
    for g in basis:
        lm = leading(g)
        heads.append((lm, pow(g[lm], p - 2, p), g))
    work = dict(f)
    rem: dict = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lm, inv, g in heads:
            if _divides(lm, m):
                q = c * inv % p
                shift = tuple(x - y for x, y in zip(m, lm))
                for gm, gc in g.items():
                    if gm == lm:
                        continue
                    key = tuple(x + y for x, y in zip(gm, shift))
                    v = (work.get(key, 0) - q * gc) % p
                    if v:
                        work[key] = v
                    else:
                        work.pop(key, None)
                break
        else:
            rem[m] = c
    return rem


def s_poly(f: dict, g: dict, p: int) -> dict:
    fm, gm = leading(f), leading(g)
    lcm = tuple(max(x, y) for x, y in zip(fm, gm))
    fs = tuple(x - y for x, y in zip(lcm, fm))
    gs = tuple(x - y for x, y in zip(lcm, gm))
    fa = pow(f[fm], p - 2, p)
    ga = pow(g[gm], p - 2, p)
    out: dict = {}
    for poly, shift, scale in ((f, fs, fa), (g, gs, -ga)):
        for m, c in poly.items():
            key = tuple(x + y for x, y in zip(m, shift))
            v = (out.get(key, 0) + scale * c) % p
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def staircase_size(leads: list[tuple]) -> int | None:
    """Number of monomials divisible by no leading monomial, or None when
    that set is infinite (some variable has no pure power among the
    leads)."""
    n = len(leads[0]) if leads else 0
    bounds = []
    for i in range(n):
        pure = [m[i] for m in leads
                if m[i] and all(e == 0 for k, e in enumerate(m) if k != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(1 for b in product(*(range(d) for d in bounds))
               if not any(_divides(m, b) for m in leads))


def check_groebner(basis_text: list[str], inputs: list[dict], names: list[str],
                   p: int, expected_staircase: int) -> bool:
    """The returned basis spans the ideal's staircase of the expected size,
    every input reduces to zero under it, and so does every S-polynomial of
    it (Buchberger's criterion)."""
    basis = [parse_poly(t, names, p) for t in basis_text]
    if not basis or any(not g for g in basis):
        return False
    if staircase_size([leading(g) for g in basis]) != expected_staircase:
        return False
    if any(reduce_poly(f, basis, p) for f in inputs):
        return False
    return not any(reduce_poly(s_poly(basis[i], basis[j], p), basis, p)
                   for i in range(len(basis))
                   for j in range(i + 1, len(basis)))


# ---------------------------------------------------------------------------
# GF(p^m) on coefficient tuples (constant term first)

def _is_irreducible(poly: tuple, p: int) -> bool:
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for tail in product(range(p), repeat=d):
            div = list(tail) + [1]
            rem = list(poly)
            for i in range(m, d - 1, -1):
                c = rem[i]
                if c:
                    for k in range(d + 1):
                        rem[i - d + k] = (rem[i - d + k] - c * div[k]) % p
            if not any(rem[:d]):
                return False
    return True


def first_irreducible(p: int, m: int) -> tuple:
    """The first monic irreducible of degree m, taking the low coefficients
    (constant term first) in lexicographic order."""
    for tail in product(range(p), repeat=m):
        if _is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise ValueError("no irreducible polynomial")


class GF:
    """GF(p^m) with elements as length-m coefficient tuples."""

    def __init__(self, p: int, modulus: tuple):
        self.p = p
        self.m = len(modulus) - 1
        self.modulus = modulus

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        p, m, mod = self.p, self.m, self.modulus
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i] % p
            if c:
                for k in range(m + 1):
                    conv[i - m + k] -= c * mod[k]
        return tuple(c % p for c in conv[:m])

    def power(self, a: tuple, n: int) -> tuple:
        out = self.const(1)
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def frobenius(self, a: tuple) -> tuple:
        """a^p; the identity on the prime field (Fermat)."""
        return a if self.m == 1 else self.power(a, self.p)

    def const(self, c: int) -> tuple:
        return (c % self.p,) + (0,) * (self.m - 1)

    def evaluate(self, poly: dict, point: tuple) -> tuple:
        """A polynomial over GF(p) at a point with coordinates in GF(p^m)."""
        acc = self.const(0)
        for exps, c in poly.items():
            term = self.const(c)
            for x, e in zip(point, exps):
                term = self.mul(term, self.power(x, e))
            acc = self.add(acc, term)
        return acc


def check_solution_vector(field: GF, matrix: list[list[dict]], point: tuple,
                          w: list[tuple]) -> bool:
    """w_j = sum_i A_ij(alpha) w_i^p for every j."""
    rank = len(matrix)
    at = [[field.evaluate(matrix[i][j], point) for j in range(rank)]
          for i in range(rank)]
    wp = [field.power(x, field.p) for x in w]
    for j in range(rank):
        rhs = field.const(0)
        for i in range(rank):
            rhs = field.add(rhs, field.mul(at[i][j], wp[i]))
        if rhs != w[j]:
            return False
    return True


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of integer row vectors."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i],
                                                           rows[rank])]
        rank += 1
    return rank


def check_solutions(rows: list[dict], field: GF, matrix: list[list[dict]],
                    identity: bool, sample: list[int]) -> bool:
    """A `solutions` result over every point of the plane over GF(q): q^2
    distinct points, each dimension in [0, rank] with that many basis
    vectors, independent over GF(p); dimension = rank everywhere for the
    identity root; and the defining equation on every basis vector at the
    sampled rows."""
    rank = len(matrix)
    q = field.p ** field.m
    points = {tuple(tuple(c) for c in row["point"]) for row in rows}
    if len(rows) != q * q or len(points) != q * q:
        return False
    for row in rows:
        dim, basis = row["dim"], row["basis"]
        if not 0 <= dim <= rank or len(basis) != dim:
            return False
        if identity and dim != rank:
            return False
        flat = [[x for coord in vec for x in coord] for vec in basis]
        if dim and rank_mod_p(flat, field.p) != dim:
            return False
    for k in sample:
        row = rows[k]
        point = tuple(tuple(c) for c in row["point"])
        for vec in row["basis"]:
            if not check_solution_vector(field, matrix, point,
                                         [tuple(c) for c in vec]):
                return False
    return True


# ---------------------------------------------------------------------------
# Frobenius decomposition

def check_decomposition(source: dict, parts: dict, field: GF, coeffs=tuple,
                        sample=None) -> bool:
    """``source`` maps exponents to coefficients and ``parts`` maps a residue
    a to {b: coefficient}; ``coeffs`` turns a coefficient into its tuple.  The
    part sizes add up to the source's term count, and every term of part a at
    b is a p-th root of the source term at p*b + a (all terms, or only the
    given sample of (a, b))."""
    p = field.p
    if sum(len(part) for part in parts.values()) != len(source):
        return False
    items = (sample if sample is not None else
             ((a, b) for a, part in parts.items() for b in part))
    for a, b in items:
        part = parts.get(a)
        if part is None or b not in part:
            return False
        c = source.get(tuple(p * x + r for x, r in zip(b, a)))
        if c is None or coeffs(c) != field.frobenius(coeffs(part[b])):
            return False
    return True
