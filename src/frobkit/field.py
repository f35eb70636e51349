"""Exact arithmetic in the finite field GF(p^e), including the Frobenius map
r -> r^p and its inverse (which exists because the field is perfect).

Extension fields are presented by an explicit monic irreducible modulus over
GF(p); elements are coefficient vectors of length e with entries in [0, p).

An extension field of at most ``TABLE_CAP`` elements multiplies, divides,
inverts and raises to powers by exp/log table lookup: its nonzero elements
are the powers of a primitive element g, so a * b = g^(log a + log b).  The
tables are built on the first such operation, once per ``FieldSpec``.  A
larger extension field convolves the coefficients and reduces by the
modulus, inverts by the extended Euclidean algorithm and raises to powers by
square-and-multiply.  Prime fields use integer arithmetic mod p.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

# Extension fields of at most this many elements get exp/log tables.  On a
# 2-vCPU host under Python 3.11 the tables of GF(2^13) take 0.06-0.09 s and
# 2.4 MB to build; those of GF(2^16) would take 0.8-1.2 s and 20 MB, a poor
# trade for a session that multiplies in the field a few times.
TABLE_CAP = 2 ** 13

# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson
# and Webster 2017, "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


class FieldError(ValueError):
    """Invalid field specification or undefined field operation."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError at or above
    PRIME_BOUND, where the fixed bases no longer decide it."""
    if n >= PRIME_BOUND:
        raise FieldError(f"{n} is too large: primality is decided only "
                         f"below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _polydiv(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Euclidean division of coefficient lists (low-to-high) over GF(p)."""
    num = [c % p for c in num]
    dd = len(den) - 1
    while dd > 0 and den[dd] % p == 0:
        dd -= 1
    if dd < 0 or den[dd] % p == 0:
        raise FieldError("division by the zero polynomial")
    inv = pow(den[dd] % p, p - 2, p)
    quot = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            q = c * inv % p
            quot[i - dd] = q
            for k in range(dd + 1):
                num[i - dd + k] = (num[i - dd + k] - q * den[k]) % p
    rem = [c % p for c in num[:dd]]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _conv_mul(a: tuple[int, ...], b: tuple[int, ...],
              modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The product of two coefficient vectors of GF(p)[x]/(modulus):
    convolve, then reduce by the modulus."""
    e = len(modulus) - 1
    conv = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    _, rem = _polydiv(conv, list(modulus), p)
    return tuple(rem + [0] * (e - len(rem)))


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's test (Rabin 1980, "Probabilistic algorithms in finite
    fields"), which is deterministic: a monic m of degree e over GF(p) is
    irreducible exactly when gcd(x^(p^(e/q)) - x, m) = 1 for every prime q
    dividing e and x^(p^e) = x mod m.  It takes O(e log p) products mod m;
    each gcd is taken as soon as its power is known, so that most reducible
    m are refused early."""
    e = len(modulus) - 1
    if e == 1:
        return True
    x = (0, 1) + (0,) * (e - 2)
    checks = {e // q for q in range(2, e + 1) if e % q == 0 and _is_prime(q)}
    h = x  # x^(p^k) mod m
    for k in range(1, e + 1):
        h = power(h, p - 1, h, lambda a, b: _conv_mul(a, b, modulus, p))
        if k in checks:
            # Euclid on (m, h - x); the gcd is 1 when it ends on a constant
            a, b = list(modulus), list(h)
            b[1] = (b[1] - 1) % p
            while any(b):
                a, b = b, _polydiv(a, b, p)[1]
            if any(a[1:]):
                return False
    return h == x


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p^e).  For e > 1, ``modulus`` holds the e+1 coefficients
    (constant term first) of a monic irreducible polynomial over GF(p)."""

    p: int
    e: int = 1
    modulus: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        if self.e < 1:
            raise FieldError("extension degree must be >= 1")
        object.__setattr__(self, "modulus", tuple(c % self.p for c in self.modulus))
        if self.e == 1:
            if self.modulus:
                raise FieldError("prime fields take an empty modulus")
            return
        if len(self.modulus) != self.e + 1 or self.modulus[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {self.e}")
        if not _is_irreducible(self.modulus, self.p):
            raise FieldError("modulus is reducible over the prime field")

    @property
    def size(self) -> int:
        return self.p ** self.e

    @cached_property
    def _tables(self) -> tuple:
        """(log, exp, q - 1) for an extension field of q <= TABLE_CAP
        elements, else ().  exp lists g^0, ..., g^(q-2) twice for a
        primitive g, so a sum of two logs indexes it without a reduction;
        log maps the coefficients of each nonzero element to its exponent.
        The zero vector is in neither table."""
        q = self.size
        if self.e == 1 or q > TABLE_CAP:
            return ()
        e, p = self.e, self.p
        one = (1,) + (0,) * (e - 1)
        for g in product(range(p), repeat=e):
            if not any(g):
                continue
            # row i is a^i * g for the generator a, so h * g is the sum of
            # h_i times row i
            rows = [_conv_mul((0,) * i + one[:e - i], g, self.modulus, p)
                    for i in range(e)]
            powers = [one]
            h = g
            while h != one:
                powers.append(h)
                acc = [0] * e
                for hi, row in zip(h, rows):
                    if hi:
                        for j, r in enumerate(row):
                            acc[j] += hi * r
                h = tuple(c % p for c in acc)
            if len(powers) == q - 1:
                break
        log = {c: i for i, c in enumerate(powers)}
        exp = [FieldElement(self, c) for c in powers]
        return log, exp + exp, q - 1

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.e:
            raise FieldError(f"expected {self.e} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (n % self.p,) + (0,) * (self.e - 1))

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def generator(self) -> "FieldElement":
        """The class of the modulus variable (e > 1 only)."""
        if self.e == 1:
            raise FieldError("prime fields have no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.e - 2))

    def power_basis(self) -> list["FieldElement"]:
        """1, g, ..., g^(e-1) for the generator g: a basis over GF(p)."""
        out = [self.one()]
        for _ in range(self.e - 1):
            out.append(out[-1] * self.generator())
        return out

    def elements(self) -> Iterator["FieldElement"]:
        for coeffs in product(range(self.p), repeat=self.e):
            yield FieldElement(self, coeffs)


def _mixed_fields(a: FieldSpec, b: FieldSpec) -> FieldError:
    return FieldError(f"arithmetic between elements of different fields: "
                      f"{a} and {b}")


class FieldElement:
    """An element of GF(p^e), immutable and hashable."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement)
                and self.coeffs == other.coeffs and self.spec == other.spec)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement({self.coeffs}, GF({self.spec.p}^{self.spec.e}))"

    def __str__(self) -> str:
        """A prime-subfield element prints as a bare integer, in every
        GF(p^e), so that polynomials with such coefficients parse back;
        any other element prints in parentheses in the generator a."""
        if not any(self.coeffs[1:]):
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}a" if i == 1 else f"{head}a^{i}")
        return "(" + " + ".join(parts) + ")"

    def __add__(self, other: "FieldElement") -> "FieldElement":
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise _mixed_fields(spec, other.spec)
        p = spec.p
        if spec.e == 1:
            return FieldElement(spec, ((self.coeffs[0] + other.coeffs[0]) % p,))
        return FieldElement(spec, tuple((a + b) % p
                                        for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise _mixed_fields(spec, other.spec)
        p = spec.p
        if spec.e == 1:
            return FieldElement(spec, ((self.coeffs[0] - other.coeffs[0]) % p,))
        return FieldElement(spec, tuple((a - b) % p
                                        for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.spec.p
        return FieldElement(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise _mixed_fields(spec, other.spec)
        p = spec.p
        if spec.e == 1:
            return FieldElement(spec, (self.coeffs[0] * other.coeffs[0] % p,))
        a, b = self.coeffs, other.coeffs
        tables = spec._tables
        if not tables:
            return FieldElement(spec, _conv_mul(a, b, spec.modulus, p))
        if not (any(a) and any(b)):
            return spec.zero()
        log, exp, _ = tables
        return exp[log[a] + log[b]]

    def inverse(self) -> "FieldElement":
        spec = self.spec
        p = spec.p
        if not self:
            raise FieldError("division by zero")
        if spec.e == 1:
            return FieldElement(spec, (pow(self.coeffs[0], p - 2, p),))
        tables = spec._tables
        if tables:
            log, exp, order = tables
            return exp[order - log[self.coeffs]]
        # extended Euclid on (self, modulus) over GF(p)
        r0, r1 = list(spec.modulus), list(self.coeffs)
        s0, s1 = [0], [1]
        while any(r1):
            q, r = _polydiv(r0, r1, p)
            # s = s0 - q*s1
            s = list(s0) + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        s[i + j] = (s[i + j] - qi * sj) % p
            r0, r1 = r1, r
            s0, s1 = s1, s
        # r0 is a nonzero constant gcd
        c = next(c for c in r0 if c)
        cinv = pow(c, p - 2, p)
        out = [cj * cinv % p for cj in s0]
        out += [0] * (spec.e - len(out))
        return FieldElement(spec, tuple(out[:spec.e]))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        spec = self.spec
        tables = spec._tables
        if tables:
            a = self.coeffs
            if any(a):
                log, exp, order = tables
                return exp[log[a] * n % order]
            if n < 0:
                raise FieldError("division by zero")
            return spec.zero() if n else spec.one()
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, spec.one())


def power(x, n: int, one, mul=operator.mul):
    """x ** n for n >= 0 by square-and-multiply from ``one`` with the product
    ``mul``: floor(log2 n) squarings and popcount(n) products.  The one loop
    behind FieldElement.__pow__, Polynomial.__pow__, Rabin's irreducibility
    test and the Frobenius of a quotient ring, whose ``mul`` reduces each
    product."""
    result = one
    while True:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def frobenius(a: FieldElement) -> FieldElement:
    """a -> a^p; the identity on the prime field."""
    if a.spec.e == 1:
        return a
    return a ** a.spec.p


def frobenius_root(a: FieldElement) -> FieldElement:
    """The unique p-th root: a -> a^(p^(e-1)).  Inverse of ``frobenius``."""
    if a.spec.e == 1:
        return a
    return a ** (a.spec.p ** (a.spec.e - 1))
