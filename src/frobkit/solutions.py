"""Solution spaces of unit Frobenius modules at rational points: given a root
matrix A over R = P/I and a point alpha with coordinates in GF(p^m), the
solutions are the vectors w over the point field with w_j = sum_i A_ij(alpha)
w_i^p.  These form an F_p-vector space of dimension at most s; the rank-1 case
A = (1) recovers the Artin-Schreier kernel Z/pZ."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from .field import FieldElement, FieldSpec, _is_irreducible
from .gamma import GammaSheaf
from .linalg import nullspace_mod_p
from .polyring import QuotientContext, check_guard


class FiberDegenerationError(ValueError):
    """A relation generator does not vanish at the point, so the fiber of the
    presentation is not the free space the solver assumes."""


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Deterministic modulus choice for GF(p^m): the first monic irreducible
    of degree m in lexicographic order of the low coefficient tuple."""
    for tail in product(range(p), repeat=m):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ValueError("no irreducible found")  # unreachable: they always exist


# Point fields kept built at once; each holds its exp/log tables once used,
# at most 2.4 MB (those of GF(2^13), see field.TABLE_CAP).
_POINT_FIELDS = 8


@lru_cache(maxsize=_POINT_FIELDS)
def point_field(p: int, m: int) -> FieldSpec:
    """GF(p^m) presented by ``smallest_irreducible``, built once per (p, m)
    so that its exp/log tables are shared by every point over it."""
    if m == 1:
        return FieldSpec(p)
    return FieldSpec(p, m, smallest_irreducible(p, m))


@dataclass(frozen=True)
class RationalPoint:
    """A point of Spec R with coordinates in GF(p^m)."""

    m: int
    spec: FieldSpec
    coords: tuple[FieldElement, ...]

    def to_json(self) -> dict:
        return {"m": self.m, "coords": [list(c.coeffs) for c in self.coords]}


@dataclass(frozen=True)
class SolutionSpace:
    """F_p-vector space of solutions; basis vectors live in (point field)^s."""

    dimension: int
    basis: tuple[tuple[FieldElement, ...], ...]

    def to_json(self) -> dict:
        return {"dim": self.dimension,
                "basis": [[list(c.coeffs) for c in vec] for vec in self.basis]}


def resolve_point_field(base: FieldSpec, m: int) -> FieldSpec:
    """The field of points with coordinates in GF(p^m) over ``base``.
    Raises GuardExceededError when p^m exceeds ``current_limits().guard``
    (checked first: finding the modulus of GF(p^m) is itself a search)."""
    check_guard(base.p ** m, "point field of size {} exceeds")
    if base.e > 1:
        # extension base fields: points carry coordinates in the base field
        # itself, so only m = e is available
        if m != base.e:
            raise ValueError("over an extension base field only points with "
                             "coordinates in the base field are supported")
        return base
    return point_field(base.p, m)


def enumerate_points(ctx: QuotientContext, m: int) -> list[RationalPoint]:
    """All alpha in (GF(p^m))^n at which every ideal generator vanishes.
    Raises GuardExceededError when the p^(m*n) candidates exceed
    ``current_limits().guard``."""
    base = ctx.ring.field
    n = ctx.ring.nvars
    check_guard(base.p ** (m * n), "{} candidate points exceed")
    spec = resolve_point_field(base, m)
    gens = [g.comps[0] for g in ctx.ideal_gb.generators]
    out = []
    for coords in product(list(spec.elements()), repeat=n):
        if all(not g.evaluate(coords, spec) for g in gens):
            out.append(RationalPoint(m, spec, tuple(coords)))
    return out


def _check_fiber(root: GammaSheaf, pt: RationalPoint) -> list[list[FieldElement]]:
    """Evaluate the root matrix at the point after checking that the fiber is
    honestly free (all relation generators vanish)."""
    spec = pt.spec
    for rho in root.relations.generators:
        vals = [c.evaluate(pt.coords, spec) for c in rho.comps]
        if any(vals):
            raise FiberDegenerationError("a relation generator does not "
                                         "vanish at the point")
    return [[root.matrix[i][j].evaluate(pt.coords, spec)
             for j in range(root.rank)] for i in range(root.rank)]


@lru_cache(maxsize=_POINT_FIELDS)
def _frobenius_of_basis(spec: FieldSpec) -> tuple[FieldElement, ...]:
    """g^(tp) for the power basis 1, g, ..., g^(m-1) of the point field,
    computed once per field and shared by every point over it."""
    return tuple(b ** spec.p for b in spec.power_basis())


def solutions_at_point(root: GammaSheaf, pt: RationalPoint,
                       solved: Optional[dict] = None) -> SolutionSpace:
    """Solve w_j = sum_i A_ij(alpha) w_i^p by restriction of scalars: the map
    w -> w - A(alpha)^T w^[p] is F_p-linear, so its kernel is cut out by an
    F_p-linear system in the s*m prime-field coordinates of w.

    The system is one s*m x s*m integer matrix over GF(p) in block form:
    block (j, i) is delta_ij * I - N(A_ij(alpha)), where column t of N(c) is
    the coefficient vector of c * g^(tp) (rows j*m..j*m+m-1 hold the
    coefficients of the image's entry j, columns i*m..i*m+m-1 the
    coordinates of w_i).  A zero entry leaves its block delta_ij * I.

    The system depends only on the point field and the fiber A(alpha).
    ``solved``, when given, maps each fiber already solved over this point
    field to its space, and the space is reused at every point with that
    fiber; the fiber is checked at every point first."""
    solved = {} if solved is None else solved
    spec = pt.spec
    m, s = spec.e, root.rank
    a_at = _check_fiber(root, pt)
    key = tuple(c.coeffs for row in a_at for c in row)
    if key in solved:
        return solved[key]
    frob = _frobenius_of_basis(spec)
    size = s * m
    system = [[0] * size for _ in range(size)]
    for r in range(size):
        system[r][r] = 1
    for i, row in enumerate(a_at):
        for j, c in enumerate(row):
            if c:
                for col, bp in enumerate(frob, i * m):
                    for r, x in enumerate((c * bp).coeffs, j * m):
                        system[r][col] -= x
    basis = tuple(tuple(FieldElement(spec, tuple(sol[k:k + m]))
                        for k in range(0, size, m))
                  for sol in nullspace_mod_p(system, size, spec.p))
    solved[key] = space = SolutionSpace(len(basis), basis)
    return space


def artin_schreier_kernel(q: int) -> int:
    """F_p-dimension of {a in GF(q) : a^p = a}; the fixed set is the prime
    field, so the answer is 1 for every prime power q."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    check_guard(q, "field of size {} exceeds")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least is prime
    m = 0
    t = q
    while t > 1:
        if t % p:
            raise ValueError(f"{q} is not a prime power")
        t //= p
        m += 1
    spec = point_field(p, m)
    fixed = sum(1 for a in spec.elements() if a ** p == a)
    dim = 0
    while p ** dim < fixed:
        dim += 1
    if p ** dim != fixed:
        raise AssertionError("fixed set is not an F_p-subspace")
    return dim

