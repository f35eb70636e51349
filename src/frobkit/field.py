"""Exact arithmetic in the finite field GF(p^e), including the Frobenius map
r -> r^p and its inverse (which exists because the field is perfect).

Extension fields are presented by an explicit monic irreducible modulus over
GF(p); elements are coefficient vectors of length e with entries in [0, p).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator


class FieldError(ValueError):
    """Invalid field specification or undefined field operation."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Exhaustive factor search: no monic divisor of degree 1..e//2."""
    e = len(modulus) - 1
    for d in range(1, e // 2 + 1):
        for tail in product(range(p), repeat=d):
            cand = list(tail) + [1]
            _, rem = _polydiv(list(modulus), cand, p)
            if not rem:
                return False
    return True


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

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        return cls(int(data["p"]), int(data.get("e", 1)),
                   tuple(data.get("modulus", ())))


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
        if self.spec.e == 1:
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
        return "(" + (" + ".join(parts) if parts else "0") + ")"

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if other.spec is not self.spec and other.spec != self.spec:
            raise _mixed_fields(self.spec, other.spec)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p
                                             for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if other.spec is not self.spec and other.spec != self.spec:
            raise _mixed_fields(self.spec, other.spec)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a - b) % p
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
        conv = [0] * (2 * spec.e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        _, rem = _polydiv(conv, list(spec.modulus), p)
        rem += [0] * (spec.e - len(rem))
        return FieldElement(spec, tuple(rem))

    def inverse(self) -> "FieldElement":
        spec = self.spec
        p = spec.p
        if not self:
            raise FieldError("division by zero")
        if spec.e == 1:
            return FieldElement(spec, (pow(self.coeffs[0], p - 2, p),))
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
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


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
